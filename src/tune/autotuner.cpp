#include "tune/autotuner.hpp"

#include <cmath>
#include <map>
#include <sstream>

#include "core/tile_model.hpp"
#include "machine/machine.hpp"
#include "pipeline/inline.hpp"
#include "runtime/scaling.hpp"
#include "support/diagnostics.hpp"
#include "support/trace.hpp"

namespace polymage::tune {

std::int64_t
TuneSpace::size() const
{
    std::int64_t n = std::int64_t(thresholds.size());
    for (int d = 0; d < tiledDims; ++d)
        n *= std::int64_t(tileSizes.size());
    return n;
}

std::string
TuneConfig::toString() const
{
    std::ostringstream os;
    os << "tiles=";
    for (std::size_t i = 0; i < tiles.size(); ++i)
        os << (i ? "x" : "") << tiles[i];
    os << " othresh=" << threshold;
    return os.str();
}

std::vector<TuneConfig>
enumerateSpace(const TuneSpace &space)
{
    PM_ASSERT(space.tiledDims >= 1, "need at least one tiled dim");
    std::vector<TuneConfig> configs;
    std::vector<std::size_t> idx(std::size_t(space.tiledDims), 0);
    while (true) {
        for (double th : space.thresholds) {
            TuneConfig cfg;
            for (auto i : idx)
                cfg.tiles.push_back(space.tileSizes[i]);
            cfg.threshold = th;
            configs.push_back(std::move(cfg));
        }
        // Odometer increment.
        int d = space.tiledDims - 1;
        while (d >= 0 && ++idx[std::size_t(d)] ==
                             space.tileSizes.size()) {
            idx[std::size_t(d)] = 0;
            --d;
        }
        if (d < 0)
            break;
    }
    return configs;
}

TuneEntry
measureConfig(const dsl::PipelineSpec &spec,
              const std::vector<std::int64_t> &params,
              const std::vector<const rt::Buffer *> &inputs,
              const TuneConfig &cfg, const TuneOptions &opts)
{
    CompileOptions copts = opts.base;
    copts.grouping.tileSizes = cfg.tiles;
    copts.grouping.overlapThreshold = cfg.threshold;
    // The sweep's explicit configuration must win even when the base
    // options would let the tile cost model override it.
    copts.grouping.autoTile = false;

    rt::Executable exe = rt::Executable::build(spec, copts);

    TuneEntry entry;
    entry.config = cfg;
    entry.groups = int(exe.info().grouping.groups.size());

    // One profiled run yields both times: profile() already
    // repeats the deterministic serial run internally and keeps
    // per-task minima, so re-timing whole runs here would only
    // duplicate work (it used to double the sweep cost).
    rt::TaskProfile prof = exe.profile(params, inputs);
    entry.seconds1 = rt::predictTime(prof, 1);
    entry.secondsP = rt::predictTime(prof, opts.modelWorkers);
    entry.profile = std::move(prof);
    return entry;
}

namespace {

/** Best entry by secondsP, ties by seconds1. */
void
pickBest(TuneResult &result)
{
    for (std::size_t i = 0; i < result.entries.size(); ++i) {
        if (result.best < 0)
            result.best = int(i);
        const auto &cur = result.entries[i];
        const auto &b = result.entries[std::size_t(result.best)];
        if (cur.secondsP < b.secondsP ||
            (cur.secondsP == b.secondsP && cur.seconds1 < b.seconds1)) {
            result.best = int(i);
        }
    }
}

} // namespace

std::string
TuneResult::csv() const
{
    std::ostringstream os;
    os << "tiles,othresh,t1_seconds,tp_seconds,groups\n";
    for (const auto &e : entries) {
        for (std::size_t i = 0; i < e.config.tiles.size(); ++i)
            os << (i ? "x" : "") << e.config.tiles[i];
        os << "," << e.config.threshold << "," << e.seconds1 << ","
           << e.secondsP << "," << e.groups << "\n";
    }
    return os.str();
}

std::string
TuneResult::toJson() const
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("schema").value("polymage-tune-v1");
    w.key("mode").value(mode);
    w.key("builds").value(builds);
    w.key("best_index").value(best);
    w.key("entries").beginArray();
    for (const auto &e : entries) {
        w.beginObject();
        w.key("tiles").beginArray();
        for (std::int64_t t : e.config.tiles)
            w.value(t);
        w.endArray();
        w.key("overlap_threshold").value(e.config.threshold);
        w.key("t1_seconds").value(e.seconds1);
        w.key("tp_seconds").value(e.secondsP);
        w.key("groups").value(e.groups);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

TuneResult
autotune(const dsl::PipelineSpec &spec,
         const std::vector<std::int64_t> &params,
         const std::vector<const rt::Buffer *> &inputs,
         const TuneSpace &space, const TuneOptions &opts)
{
    const auto configs = enumerateSpace(space);
    TuneResult result;

    int index = 0;
    for (const auto &cfg : configs) {
        if (opts.progress)
            opts.progress(index, int(configs.size()));
        ++index;
        result.entries.push_back(
            measureConfig(spec, params, inputs, cfg, opts));
    }

    result.builds = int(result.entries.size());
    pickBest(result);
    return result;
}

TuneResult
autotuneGuided(const dsl::PipelineSpec &spec,
               const std::vector<std::int64_t> &params,
               const std::vector<const rt::Buffer *> &inputs,
               const TuneSpace &space, const TuneOptions &opts)
{
    PM_ASSERT(space.tiledDims >= 1, "need at least one tiled dim");
    PM_ASSERT(!space.tileSizes.empty() && !space.thresholds.empty(),
              "empty tune space");
    TuneResult result;
    result.mode = "guided";

    // Model the post-inline pipeline (mirrors the driver) so footprint
    // predictions match what compilation will actually see.
    auto inlined = pg::inlinePointwise(spec);
    const auto graph = pg::PipelineGraph::build(inlined.spec);
    const machine::MachineInfo &m = machine::machineInfo();
    const core::TileModelInputs mi =
        core::analyzePipeline(graph, opts.base.grouping);
    const core::TileModelResult seed =
        core::chooseTileConfig(graph, opts.base.grouping, m);

    const std::size_t nd = std::size_t(space.tiledDims);
    auto snap = [](const std::vector<std::int64_t> &grid,
                   double v) -> std::size_t {
        std::size_t best = 0;
        for (std::size_t i = 1; i < grid.size(); ++i) {
            if (std::abs(double(grid[i]) - v) <
                std::abs(double(grid[best]) - v))
                best = i;
        }
        return best;
    };
    auto snapTh = [&](double v) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < space.thresholds.size(); ++i) {
            if (std::abs(space.thresholds[i] - v) <
                std::abs(space.thresholds[best] - v))
                best = i;
        }
        return best;
    };

    // A position is (tile index per dim, threshold index); -1 in seen
    // marks a pruned candidate so it is never reconsidered.
    using Pos = std::vector<std::size_t>;
    std::map<std::string, int> seen;
    auto configAt = [&](const Pos &p) {
        TuneConfig cfg;
        for (std::size_t d = 0; d < nd; ++d)
            cfg.tiles.push_back(space.tileSizes[p[d]]);
        cfg.threshold = space.thresholds[p[nd]];
        return cfg;
    };
    auto evaluate = [&](const Pos &p) -> int {
        const TuneConfig cfg = configAt(p);
        const std::string key = cfg.toString();
        if (auto it = seen.find(key); it != seen.end())
            return it->second;
        // Prune: a candidate whose predicted per-tile working set
        // overflows the last-level cache cannot win; skip its build.
        if (!mi.empty() &&
            core::predictedWorkingSet(mi, cfg.tiles) > m.l3Bytes) {
            seen[key] = -1;
            return -1;
        }
        if (opts.progress)
            opts.progress(int(result.entries.size()),
                          int(space.size()));
        const int idx = int(result.entries.size());
        result.entries.push_back(
            measureConfig(spec, params, inputs, cfg, opts));
        seen[key] = idx;
        return idx;
    };
    auto better = [&](int a, int b) {
        if (a < 0)
            return false;
        if (b < 0)
            return true;
        const auto &ea = result.entries[std::size_t(a)];
        const auto &eb = result.entries[std::size_t(b)];
        return ea.secondsP < eb.secondsP ||
               (ea.secondsP == eb.secondsP &&
                ea.seconds1 < eb.seconds1);
    };

    // Seed at the model's pick snapped to the grid (the base options'
    // fixed sizes when the model had nothing to size).
    Pos cur(nd + 1, 0);
    for (std::size_t d = 0; d < nd; ++d) {
        const auto &ts = seed.tileSizes;
        const std::int64_t v =
            ts.empty() ? 32 : ts[std::min(d, ts.size() - 1)];
        cur[d] = snap(space.tileSizes, double(v));
    }
    cur[nd] = snapTh(seed.overlapThreshold);
    int curIdx = evaluate(cur);
    if (curIdx < 0) {
        // The seed itself was pruned (tiny LLC override): start from
        // the smallest tiles instead.
        for (std::size_t d = 0; d <= nd; ++d)
            cur[d] = 0;
        curIdx = evaluate(cur);
    }

    // Coordinate hill climb: step one grid index at a time until no
    // neighbour improves the modelled parallel time.
    bool improved = curIdx >= 0;
    while (improved) {
        improved = false;
        Pos bestPos = cur;
        int bestIdx = curIdx;
        for (std::size_t d = 0; d <= nd; ++d) {
            const std::size_t limit =
                d < nd ? space.tileSizes.size()
                       : space.thresholds.size();
            for (int step : {-1, +1}) {
                if ((step < 0 && cur[d] == 0) ||
                    (step > 0 && cur[d] + 1 >= limit))
                    continue;
                Pos p = cur;
                p[d] = std::size_t(std::int64_t(p[d]) + step);
                const int idx = evaluate(p);
                if (better(idx, bestIdx)) {
                    bestIdx = idx;
                    bestPos = p;
                }
            }
        }
        if (bestIdx != curIdx) {
            cur = bestPos;
            curIdx = bestIdx;
            improved = true;
        }
    }

    result.builds = int(result.entries.size());
    pickBest(result);
    return result;
}

} // namespace polymage::tune
