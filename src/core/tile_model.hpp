/**
 * @file
 * Analytic tile cost model: picks tile sizes and the overlap threshold
 * per pipeline per machine instead of the historical fixed {32, 256} /
 * 0.4.  The model runs a cheap trial grouping at the base options to
 * learn each group's scratch working set as a function of tile size
 * (core::GroupFootprint), then sizes thin 8-row strips: the inner
 * dimension is the widest power of two whose working set fits half
 * the L2, with single-resolution pipelines further keeping one row
 * strip of scratch within a quarter L1d; the overlap threshold admits
 * merges whose predicted redundant-compute fraction is affordable and
 * rejects the rest.
 *
 * The guided autotuner reuses the same machinery (analyzePipeline +
 * predictedWorkingSet) to prune candidates that overflow the L3.
 */
#ifndef POLYMAGE_CORE_TILE_MODEL_HPP
#define POLYMAGE_CORE_TILE_MODEL_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/grouping.hpp"
#include "core/storage.hpp"
#include "machine/machine.hpp"

namespace polymage::core {

/**
 * Tile-size-relevant geometry of one (trial-grouped) tiled group: its
 * scratch footprint plus, per tiled dimension, the estimated extent in
 * group coordinates (-1 when unknown) and the cumulative dependence
 * overlap (left + right).
 */
struct GroupGeometry
{
    GroupFootprint footprint;
    std::vector<std::int64_t> extent;
    std::vector<std::int64_t> overlap;
};

/** Everything the model (and the guided tuner) needs per pipeline. */
struct TileModelInputs
{
    std::vector<GroupGeometry> groups;
    /** Max tiled dimension count over the groups (0: nothing tiled). */
    std::size_t dims = 0;
    /** Widest / narrowest known per-stage loop extent (resolution
     * proxy; 0 when no stage has constant bounds).  A wide spread
     * marks a multi-resolution pipeline whose coarse levels degenerate
     * under inner-dimension tiling. */
    std::int64_t maxStageExtent = 0;
    std::int64_t minStageExtent = 0;

    bool empty() const { return groups.empty(); }

    /** Stage resolutions spread >= 8x: a pyramid-style pipeline. */
    bool multiResolution() const
    {
        return minStageExtent > 0 &&
               maxStageExtent >= 8 * minStageExtent;
    }
};

/**
 * Trial-group the pipeline at @p base and extract the per-group
 * footprints and dependence geometry.  Grouping and storage planning
 * are microsecond-cheap; the trial runs under a muted trace registry
 * so its spans do not pollute the real compile trace.
 */
TileModelInputs analyzePipeline(const pg::PipelineGraph &g,
                                const GroupingOptions &base = {});

/**
 * Predicted per-tile scratch working set under tile sizes @p tau
 * (repeat-last semantics, matching tileSizeFor): the max over groups
 * of the group footprint, i.e. the bytes one in-flight tile keeps hot.
 */
std::int64_t predictedWorkingSet(const TileModelInputs &in,
                                 const std::vector<std::int64_t> &tau);

/**
 * Predicted redundant-compute fraction under @p tau: the max over
 * groups and tiled dimensions of overlap_d / tau_d -- the same
 * quantity Algorithm 1 bounds with the overlap threshold.
 */
double predictedOverlapFrac(const TileModelInputs &in,
                            const std::vector<std::int64_t> &tau);

/** The model's decision, reported in profile/tune JSON. */
struct TileModelResult
{
    /** False when the model had nothing to size (no tiled groups) or
     * was disabled; tileSizes/threshold then echo the base options. */
    bool applied = false;
    /** Why applied is false, or "model" when it is true. */
    std::string reason = "model";
    std::vector<std::int64_t> tileSizes;
    double overlapThreshold = 0.4;
    /** Working set of the chosen sizes (max over groups), bytes. */
    std::int64_t workingSetBytes = 0;
    /** Scratch bytes per tile point at the chosen sizes (max). */
    double perTilePointBytes = 0.0;
    /** Predicted redundant-compute fraction at the chosen sizes. */
    double predictedOverlap = 0.0;
    machine::MachineInfo machine;

    /** Serialized as the `tile_model` object of profile/tune JSON. */
    std::string toJson() const;
};

/**
 * Choose tile sizes and overlap threshold for @p g on machine @p m.
 *
 * Search: the outer (parallel) dimension is fixed to thin 8-row
 * strips — measured sweeps (BENCH_autotune.json) put the fast region
 * there for every paper app: the strip's halo rows are re-read while
 * still cache-hot and extent/8 tasks keep the parallel dimension
 * saturated.  The inner dimension is the widest power of two in
 * [8, 512] whose predicted working set fits half the L2;
 * single-resolution pipelines additionally keep one row strip of
 * scratch (outer taus collapsed to 1) within a quarter of the L1d
 * and within the half-extent cap so the inner dimension stays tiled,
 * while multi-resolution pipelines (stage extents spreading >= 8x)
 * skip both row bounds and let tiles span full rows — inner tiling
 * degenerates on their coarse levels.  If nothing is feasible the
 * smallest-working-set candidate is chosen.  The threshold admits
 * merges whose predicted redundancy f at the chosen sizes is
 * affordable (f <= 0.5 -> 0.5, else 0.2) but never rises above the
 * base threshold, since admitting merges the trial grouping did not
 * see would invalidate the footprints the choice was based on.
 * Because wider tiles shrink overlap/tau, Algorithm 1 still merges
 * more under the chosen sizes than under the trial sizes; the choice
 * is therefore verified by re-grouping at the chosen config and
 * shrinking the larger dimension until the merged groups' working
 * sets actually fit the L2 budget.  Pipelines with no overlapped
 * scratch at all (nothing to model) fall back to thinning the base
 * outer strip to 16 rows.
 */
TileModelResult
chooseTileConfig(const pg::PipelineGraph &g,
                 const GroupingOptions &base = {},
                 const machine::MachineInfo &m = machine::machineInfo());

} // namespace polymage::core

#endif // POLYMAGE_CORE_TILE_MODEL_HPP
