#include "core/tile_model.hpp"

#include <algorithm>

#include "poly/range.hpp"
#include "support/trace.hpp"

namespace polymage::core {

TileModelInputs
analyzePipeline(const pg::PipelineGraph &g, const GroupingOptions &base)
{
    TileModelInputs in;
    // The trial grouping is microsecond-cheap but would emit
    // align_scale/schedule spans into the real compile trace; mute the
    // thread-local registry for its duration.
    obs::ScopedCurrent mute(nullptr);
    const GroupingResult grouping = groupStages(g, base);
    const StoragePlan plan = planStorage(g, grouping, base);
    // Per-stage resolution proxy (widest known loop extent): the
    // min/max spread over stages tells multi-resolution pipelines
    // (pyramids) apart from single-resolution ones.
    for (std::size_t s = 0; s < g.stages().size(); ++s) {
        const auto &dom = g.stage(int(s)).loopDom();
        std::int64_t widest = 0;
        for (const auto &d : dom) {
            const auto lo = poly::evalConstant(d.lower(),
                                               g.estimateEnv());
            const auto hi = poly::evalConstant(d.upper(),
                                               g.estimateEnv());
            if (lo && hi)
                widest = std::max(widest, *hi - *lo + 1);
        }
        if (widest <= 0)
            continue;
        in.maxStageExtent = std::max(in.maxStageExtent, widest);
        in.minStageExtent = in.minStageExtent == 0
                                ? widest
                                : std::min(in.minStageExtent, widest);
    }
    for (const auto &[gi, fp] : plan.groupFootprint) {
        const GroupSchedule &grp = grouping.groups[std::size_t(gi)];
        const auto tdims = tiledDimsFor(grp, g, base);
        GroupGeometry geo;
        geo.footprint = fp;
        for (int gd : tdims) {
            geo.extent.push_back(estimatedGroupExtent(grp, g, gd));
            geo.overlap.push_back(grp.dims[std::size_t(gd)].overlap());
        }
        in.dims = std::max(in.dims, tdims.size());
        in.groups.push_back(std::move(geo));
    }
    return in;
}

std::int64_t
predictedWorkingSet(const TileModelInputs &in,
                    const std::vector<std::int64_t> &tau)
{
    std::int64_t worst = 0;
    for (const GroupGeometry &geo : in.groups)
        worst = std::max(worst, geo.footprint.bytesAt(tau));
    return worst;
}

double
predictedOverlapFrac(const TileModelInputs &in,
                     const std::vector<std::int64_t> &tau)
{
    if (tau.empty())
        return 0.0;
    double worst = 0.0;
    for (const GroupGeometry &geo : in.groups) {
        for (std::size_t d = 0; d < geo.overlap.size(); ++d) {
            const std::int64_t t =
                tau[std::min(d, tau.size() - 1)];
            if (t > 0)
                worst = std::max(worst,
                                 double(geo.overlap[d]) / double(t));
        }
    }
    return worst;
}

namespace {

/** Worst per-tile-point scratch density over the groups. */
double
worstBytesPerTilePoint(const TileModelInputs &in,
                       const std::vector<std::int64_t> &tau)
{
    double worst = 0.0;
    for (const GroupGeometry &geo : in.groups)
        worst = std::max(worst, geo.footprint.bytesPerTilePoint(tau));
    return worst;
}

/** Bytes of the innermost rows of one tile: outer taus collapse to a
 * single row so only the inner dimension streams. */
std::int64_t
rowBytes(const TileModelInputs &in, std::vector<std::int64_t> tau)
{
    for (std::size_t i = 0; i + 1 < tau.size(); ++i)
        tau[i] = 1;
    return predictedWorkingSet(in, tau);
}

/** f -> o_thresh: admit merges whose predicted redundant-compute
 * fraction is affordable (the paper's 0.2-0.5 band) and reject the
 * rest.  A threshold *below* f splits the trial grouping's merged
 * groups -- measured sweeps (BENCH_autotune.json: Harris 8x128\@0.2
 * splits 1 group into 3 and loses 1.49x) show that is only worth it
 * when the redundancy exceeds ~half the tile. */
double
thresholdFor(double f)
{
    return f <= 0.5 ? 0.5 : 0.2;
}

} // namespace

TileModelResult
chooseTileConfig(const pg::PipelineGraph &g, const GroupingOptions &base,
                 const machine::MachineInfo &m)
{
    TileModelResult r;
    r.machine = m;
    r.tileSizes = base.tileSizes;
    r.overlapThreshold = base.overlapThreshold;

    const TileModelInputs in = analyzePipeline(g, base);
    if (in.empty()) {
        // No overlapped-tiled scratch to size, so the cache model has
        // nothing to fit -- but the sweep data still shows a reliable
        // preference: runtimes are insensitive to the inner size and
        // favour a thin outer strip (Bilateral Grid's 16-row strips
        // run within ~4% of its sweep best at every inner size, while
        // the 32-row base loses ~25%).  Keep the base inner sizes and
        // thin the outer strip -- when the pipeline is big enough to
        // span several strips at all; tiny pipelines decline instead
        // of emitting tiles wider than their domains.
        if (in.maxStageExtent >= 64 && r.tileSizes.size() >= 2 &&
            r.tileSizes[0] > 16) {
            r.tileSizes[0] = 16;
            r.applied = true;
            r.reason = "no tiled scratch: thin-strip fallback";
        } else {
            r.reason = "no tiled multi-stage groups";
        }
        return r;
    }

    // Model at most two positions (outer ty, inner tx); repeat-last
    // semantics cover deeper loop nests, matching tileSizeFor.
    const std::size_t nd = std::min<std::size_t>(in.dims, 2);

    // Keep every dimension the base options tile actually tiled: a tau
    // beyond half the extent would drop the dimension from tiling (see
    // tiledDimsFor) and serialise it.
    std::vector<std::int64_t> cap(nd, 512);
    for (const GroupGeometry &geo : in.groups) {
        for (std::size_t d = 0; d < geo.extent.size(); ++d) {
            if (geo.extent[d] < 0)
                continue; // unknown under the estimates: no cap
            const std::size_t mi = std::min(d, nd - 1);
            cap[mi] = std::min(cap[mi], geo.extent[d] / 2);
        }
    }
    for (std::int64_t c : cap) {
        if (c < 8) {
            r.reason = "estimated extents too small to size tiles";
            return r;
        }
    }

    static const std::int64_t vals[] = {8, 16, 32, 64, 128, 256, 512};
    // Measured sweeps (BENCH_autotune.json) show the fast region is
    // thin 8-row strips: ty*row stays within ~2 L1d, the strip's halo
    // rows are re-read while still cache-hot, and on the outer
    // (parallel) dimension 8-row strips leave extent/8 tasks -- far
    // more than tiles sized for capacity would.
    const std::int64_t ty = std::min<std::int64_t>(8, cap[0]);
    // Inner size: the widest tile whose working set fits half the L2.
    // Single-resolution pipelines additionally keep one row strip of
    // scratch within a quarter of the L1d -- row reuse between the
    // strip's 8 rows is the dominant locality -- which lands Unsharp
    // at 128 and Harris at 128 exactly where their sweeps peak.
    // Multi-resolution pipelines (pyramids) skip the row bound and
    // take the widest inner tile outright: their coarse levels are
    // narrower than any useful inner tile, so inner tiling degenerates
    // there (tileSizeFor drops dimensions whose extent is under two
    // tiles) and full-width strips stream every level.
    const std::int64_t ws_budget = m.l2Bytes / 2;
    const std::int64_t row_budget = m.l1dBytes / 4;
    const bool multi_res = in.multiResolution();
    std::vector<std::int64_t> best, fallback;
    std::int64_t fallback_ws = -1;
    auto consider = [&](const std::vector<std::int64_t> &tau) {
        if (nd > 1 && tau.back() > std::max(cap.back(), std::int64_t(8)) &&
            !multi_res)
            return; // keep single-res inner dims tiled (two+ tiles)
        const std::int64_t ws = predictedWorkingSet(in, tau);
        if (fallback_ws < 0 || ws < fallback_ws) {
            fallback_ws = ws;
            fallback = tau;
        }
        if (ws > ws_budget)
            return;
        if (!multi_res && rowBytes(in, tau) > row_budget)
            return;
        if (best.empty() || tau.back() > best.back())
            best = tau;
    };
    if (nd == 1) {
        for (std::int64_t t : vals) {
            if (t <= cap[0])
                consider({t});
        }
    } else {
        for (std::int64_t tx : vals)
            consider({ty, tx});
    }

    std::vector<std::int64_t> chosen = best.empty() ? fallback : best;
    if (chosen.empty()) {
        r.reason = "no candidate tile sizes";
        return r;
    }

    // The threshold follows the predicted redundancy but never rises
    // above the caller's base: a larger threshold admits merges the
    // trial grouping did not see, so the footprints above would no
    // longer describe the groups actually built.
    auto threshAt = [&](const std::vector<std::int64_t> &tau) {
        return std::min(thresholdFor(predictedOverlapFrac(in, tau)),
                        base.overlapThreshold);
    };

    // Verification: larger tiles shrink overlap/tau, so Algorithm 1
    // merges more under the chosen sizes than under the trial sizes.
    // Re-group at the choice and require the *merged* groups' working
    // sets to fit the budget, shrinking the larger dimension until
    // they do.
    double thresh = threshAt(chosen);
    bool verified = false;
    while (true) {
        GroupingOptions vopts = base;
        vopts.tileSizes = chosen;
        vopts.overlapThreshold = thresh;
        const TileModelInputs vin = analyzePipeline(g, vopts);
        if (vin.empty())
            break; // grouping degenerated: nothing left to size
        const std::int64_t ws = predictedWorkingSet(vin, chosen);
        if (ws <= ws_budget) {
            // Report the verified geometry's numbers, not the trial's.
            r.workingSetBytes = ws;
            r.perTilePointBytes = worstBytesPerTilePoint(vin, chosen);
            r.predictedOverlap = predictedOverlapFrac(vin, chosen);
            verified = true;
            break;
        }
        std::size_t big = 0;
        for (std::size_t i = 1; i < chosen.size(); ++i) {
            if (chosen[i] > chosen[big])
                big = i;
        }
        if (chosen[big] <= 8)
            break; // cannot shrink further: accept the overflow
        chosen[big] /= 2;
        thresh = threshAt(chosen);
    }
    if (!verified) {
        r.workingSetBytes = predictedWorkingSet(in, chosen);
        r.perTilePointBytes = worstBytesPerTilePoint(in, chosen);
        r.predictedOverlap = predictedOverlapFrac(in, chosen);
    }
    r.applied = true;
    r.reason = best.empty()
                   ? "smallest working set (nothing fits the budget)"
                   : "model";
    r.tileSizes = std::move(chosen);
    r.overlapThreshold = thresh;
    return r;
}

std::string
TileModelResult::toJson() const
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("applied").value(applied);
    w.key("reason").value(reason);
    w.key("tile_sizes").beginArray();
    for (std::int64_t t : tileSizes)
        w.value(t);
    w.endArray();
    w.key("overlap_threshold").value(overlapThreshold);
    w.key("working_set_bytes").value(workingSetBytes);
    w.key("bytes_per_tile_point").value(perTilePointBytes);
    w.key("predicted_overlap").value(predictedOverlap);
    w.key("machine").raw(machine.toJson());
    w.endObject();
    return w.str();
}

} // namespace polymage::core
