/**
 * @file
 * Autotuning (paper §3.8): the model-driven compiler narrows the
 * search space to tile sizes and the overlap threshold; the autotuner
 * enumerates that small space, builds each configuration, measures it,
 * and picks the best.  The paper's full space is 7 tile sizes per
 * tiled dimension x 3 thresholds (147 configurations for 2-D
 * pipelines, explored in under 30 minutes).
 */
#ifndef POLYMAGE_TUNE_AUTOTUNER_HPP
#define POLYMAGE_TUNE_AUTOTUNER_HPP

#include <functional>
#include <string>
#include <vector>

#include "runtime/executor.hpp"

namespace polymage::tune {

/** The explored parameter space. */
struct TuneSpace
{
    /** Candidate tile sizes per dimension (paper: 8..512). */
    std::vector<std::int64_t> tileSizes{8, 16, 32, 64, 128, 256, 512};
    /** Candidate overlap thresholds (paper: 0.2, 0.4, 0.5). */
    std::vector<double> thresholds{0.2, 0.4, 0.5};
    /** Number of tiled dimensions receiving independent sizes. */
    int tiledDims = 2;

    /** Number of configurations (|tileSizes|^dims * |thresholds|). */
    std::int64_t size() const;
};

/** One point of the space. */
struct TuneConfig
{
    std::vector<std::int64_t> tiles;
    double threshold = 0.4;

    std::string toString() const;
};

/** Measurement of one configuration. */
struct TuneEntry
{
    TuneConfig config;
    /** Single-thread wall time from the task-entry profile (s). */
    double seconds1 = 0.0;
    /** Modelled wall time on `modelWorkers` workers. */
    double secondsP = 0.0;
    /** Number of groups the heuristic produced. */
    int groups = 0;
    /**
     * Per-group profile of this configuration, so sweep
     * consumers can see *which* group made a configuration slow
     * without re-running it.
     */
    rt::TaskProfile profile;
};

/** Full sweep outcome. */
struct TuneResult
{
    std::vector<TuneEntry> entries;
    /** Index of the best entry by secondsP (ties by seconds1). */
    int best = -1;
    /** JIT builds performed (== entries.size(); pruned candidates and
     * revisited neighbours cost nothing). */
    int builds = 0;
    /** "exhaustive" or "guided". */
    std::string mode = "exhaustive";

    const TuneEntry &bestEntry() const { return entries.at(best); }

    /** Dump as CSV (tiles..., threshold, t1, tp, groups). */
    std::string csv() const;

    /** Serialize to the polymage-tune-v1 JSON schema. */
    std::string toJson() const;
};

/** Options of a sweep. */
struct TuneOptions
{
    /** Base compile options; tile sizes/threshold are overridden. */
    CompileOptions base;
    /** Worker count for the modelled parallel time (paper: 16). */
    int modelWorkers = 16;
    /** Progress callback (config index, total). */
    std::function<void(int, int)> progress;
};

/** Enumerate every configuration of a space. */
std::vector<TuneConfig> enumerateSpace(const TuneSpace &space);

/**
 * Build and measure one configuration (a single JIT build): compile
 * with the config's tile sizes/threshold forced (the tile cost model
 * is bypassed), run the profile once, and model the
 * 1-core and modelWorkers-core times.  Both sweep modes and the
 * model-vs-sweep benches share this.
 */
TuneEntry measureConfig(const dsl::PipelineSpec &spec,
                        const std::vector<std::int64_t> &params,
                        const std::vector<const rt::Buffer *> &inputs,
                        const TuneConfig &cfg,
                        const TuneOptions &opts = {});

/**
 * Sweep the space for a pipeline on the given inputs: build, run,
 * measure, and model each configuration.
 */
TuneResult autotune(const dsl::PipelineSpec &spec,
                    const std::vector<std::int64_t> &params,
                    const std::vector<const rt::Buffer *> &inputs,
                    const TuneSpace &space, const TuneOptions &opts = {});

/**
 * Model-guided sweep over the same space: seeds from the tile cost
 * model's pick (snapped to the space's grid), prunes candidates whose
 * predicted scratch working set overflows the last-level cache, and
 * hill-climbs coordinate neighbours (tile-size and threshold steps of
 * one grid index) until no neighbour improves the modelled parallel
 * time.  Typically needs a small fraction of the exhaustive sweep's
 * JIT builds while landing on (or next to) the exhaustive best;
 * result.builds counts the configurations actually built.
 */
TuneResult autotuneGuided(const dsl::PipelineSpec &spec,
                          const std::vector<std::int64_t> &params,
                          const std::vector<const rt::Buffer *> &inputs,
                          const TuneSpace &space,
                          const TuneOptions &opts = {});

} // namespace polymage::tune

#endif // POLYMAGE_TUNE_AUTOTUNER_HPP
