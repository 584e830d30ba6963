#include "core/storage.hpp"

#include <algorithm>

#include "poly/range.hpp"
#include "support/intmath.hpp"

namespace polymage::core {

namespace {

/**
 * Estimated allocation bytes of a full buffer for a stage: product of
 * (upper + 1) per domain dimension under the parameter estimates
 * (allocations cover [0, upper]), times the element size; -1 when a
 * bound is not constant under the estimates.
 */
std::int64_t
estimatedBufferBytes(const pg::PipelineGraph &g, int s, dsl::DType elem)
{
    const pg::Stage &stage = g.stage(s);
    const auto &dom = stage.isFunction() ? stage.func().dom()
                                         : stage.accum().varDom();
    std::int64_t n = 1;
    for (const auto &iv : dom) {
        auto hi = poly::evalConstant(iv.upper(), g.estimateEnv());
        if (!hi)
            return -1;
        n *= std::max<std::int64_t>(1, *hi + 1);
    }
    return n * std::int64_t(dsl::dtypeSize(elem));
}

/** Group-granularity live range of a full-buffer intermediate. */
struct LiveRange
{
    int stage = -1;
    int birth = 0; ///< producing group (emission order)
    int death = 0; ///< last consuming group
    std::int64_t estBytes = -1;
};

/**
 * Greedy slot assignment: walk intermediates in birth order and place
 * each into the best-fitting free slot (every member's live range
 * fully precedes this one, byte sizes within a factor of 16), else
 * open a new slot.  Slot sharing is always *correct* whenever live
 * ranges are disjoint -- the size check only avoids pairing buffers so
 * different that the pairing saves almost nothing.
 */
void
assignSlots(StoragePlan &plan, std::vector<LiveRange> ranges)
{
    std::stable_sort(ranges.begin(), ranges.end(),
                     [](const LiveRange &a, const LiveRange &b) {
                         return a.birth < b.birth;
                     });
    std::vector<int> slot_death; // per slot: last member's death
    for (const LiveRange &r : ranges) {
        plan.estBytesNoReuse += std::max<std::int64_t>(0, r.estBytes);
        int best = -1;
        for (std::size_t k = 0; k < plan.slots.size(); ++k) {
            if (slot_death[k] >= r.birth)
                continue; // still (or again) live: overlap
            const std::int64_t a = r.estBytes;
            const std::int64_t b = plan.slots[k].estBytes;
            if (a >= 0 && b >= 0 && std::max(a, b) > 16 * std::min(a, b))
                continue; // incompatible sizes: poor fit
            // Best fit: smallest adequate slot, to keep big slots free
            // for big buffers.
            if (best < 0 || plan.slots[std::size_t(best)].estBytes > b)
                best = int(k);
        }
        if (best < 0) {
            best = int(plan.slots.size());
            plan.slots.push_back({});
            slot_death.push_back(r.death);
        }
        AllocSlot &sl = plan.slots[std::size_t(best)];
        sl.stages.push_back(r.stage);
        sl.estBytes = std::max(sl.estBytes, r.estBytes);
        slot_death[std::size_t(best)] =
            std::max(slot_death[std::size_t(best)], r.death);
        plan.slot[r.stage] = best;
    }
    for (const AllocSlot &sl : plan.slots)
        plan.estBytesWithReuse += std::max<std::int64_t>(0, sl.estBytes);
}

} // namespace

std::int64_t
FootprintTerm::bytesAt(const std::vector<std::int64_t> &tau) const
{
    std::int64_t bytes = fixedElems * dtypeBytes;
    for (std::size_t i = 0; i < halo.size(); ++i) {
        if (scale[i] == 0)
            continue; // no extent along this tiled dimension
        const std::size_t ti = std::min(i, tau.size() - 1);
        // Mirrors the planner's scratch extent: region width at this
        // stage's level plus slack for origin rounding.
        const std::int64_t span = tau[ti] - 1 + halo[i];
        bytes *= floorDiv(span, scale[i]) + 2;
    }
    return bytes;
}

std::int64_t
GroupFootprint::bytesAt(const std::vector<std::int64_t> &tau) const
{
    std::int64_t total = 0;
    for (const FootprintTerm &t : terms)
        total += t.bytesAt(tau);
    return total;
}

double
GroupFootprint::bytesPerTilePoint(
    const std::vector<std::int64_t> &tau) const
{
    if (terms.empty() || tau.empty())
        return 0.0;
    double area = 1.0;
    std::size_t dims = 0;
    for (const FootprintTerm &t : terms)
        dims = std::max(dims, t.halo.size());
    for (std::size_t i = 0; i < dims; ++i)
        area *= double(tau[std::min(i, tau.size() - 1)]);
    return area > 0 ? double(bytesAt(tau)) / area : 0.0;
}

StoragePlan
planStorage(const pg::PipelineGraph &g, const GroupingResult &grouping,
            const GroupingOptions &opts, bool tiling_enabled,
            const RangeAnalysis *ranges)
{
    StoragePlan plan;
    // Element type per stage: the range analysis' narrowed storage
    // type when available, else the declared dtype.
    auto elemType = [&](int s) {
        return ranges != nullptr
                   ? ranges->storageType(s, g)
                   : g.stage(s).callable->dtype();
    };
    for (std::size_t gi = 0; gi < grouping.groups.size(); ++gi) {
        const GroupSchedule &grp = grouping.groups[gi];
        const auto tiled_dims = tiledDimsFor(grp, g, opts);
        const bool group_tiled = tiling_enabled &&
                                 grp.stages.size() > 1 &&
                                 !tiled_dims.empty();

        for (int s : grp.stages) {
            const pg::Stage &stage = g.stage(s);
            StageStorage st;
            st.kind = StorageKind::FullBuffer;
            st.dtype = elemType(s);

            bool eligible = group_tiled && stage.isFunction() &&
                            !stage.liveOut && !stage.selfRecurrent;
            for (int c : stage.consumers) {
                eligible &= std::find(grp.stages.begin(),
                                      grp.stages.end(),
                                      c) != grp.stages.end();
            }

            if (eligible) {
                // Extent per stage dimension; the footprint term keeps
                // the same geometry parameterised by tile size for the
                // tile cost model.
                const StageMapping &m = grp.mapping.at(s);
                const int level = grp.localLevel.at(s);
                std::vector<std::int64_t> extents;
                FootprintTerm term;
                term.stage = s;
                term.halo.assign(tiled_dims.size(), 0);
                term.scale.assign(tiled_dims.size(), 0);
                term.dtypeBytes =
                    std::int64_t(dsl::dtypeSize(st.dtype));
                for (std::size_t d = 0;
                     d < stage.loopVars().size() && eligible; ++d) {
                    const int gd = m.groupDim[d];
                    auto pos = std::find(tiled_dims.begin(),
                                         tiled_dims.end(), gd);
                    if (pos != tiled_dims.end()) {
                        const int ti = int(pos - tiled_dims.begin());
                        const std::int64_t tau = tileSizeFor(opts, ti);
                        const auto &info = grp.dims[gd];
                        // Region width at this stage's level, in stage
                        // coordinates, plus slack for origin rounding.
                        const std::int64_t span =
                            tau - 1 + info.extLeft[level] +
                            info.extRight[level];
                        extents.push_back(
                            floorDiv(span, m.scale[d]) + 2);
                        term.halo[std::size_t(ti)] =
                            info.extLeft[level] + info.extRight[level];
                        term.scale[std::size_t(ti)] = m.scale[d];
                    } else {
                        // Untiled dimension: needs a parameter-free
                        // constant extent to stay on a scratchpad.
                        poly::RangeEnv empty;
                        auto lo = poly::evalConstant(
                            stage.loopDom()[d].lower(), empty);
                        auto hi = poly::evalConstant(
                            stage.loopDom()[d].upper(), empty);
                        if (!lo || !hi || *lo < 0 || *hi < *lo) {
                            eligible = false;
                        } else {
                            extents.push_back(*hi + 1);
                            term.fixedElems *= *hi + 1;
                        }
                    }
                }
                if (eligible) {
                    st.kind = StorageKind::Scratchpad;
                    st.scratchExtent = std::move(extents);
                    st.scratchBytes =
                        std::int64_t(dsl::dtypeSize(st.dtype));
                    for (auto e : st.scratchExtent)
                        st.scratchBytes *= e;
                    plan.groupFootprint[int(gi)].terms.push_back(
                        std::move(term));
                }
            }
            plan.stages[s] = std::move(st);
        }
    }

    // Liveness-driven reuse over the full-buffer intermediates: a
    // buffer is born in the group that writes it and dies after the
    // last group that reads it.  Live-outs belong to the caller and a
    // self-recurrent stage reads its own buffer within its group, so
    // both constraints fall out of the same range computation.
    std::vector<LiveRange> live;
    for (std::size_t s = 0; s < g.stages().size(); ++s) {
        const pg::Stage &stage = g.stage(int(s));
        if (stage.liveOut || plan.isScratch(int(s)))
            continue;
        LiveRange r;
        r.stage = int(s);
        r.birth = grouping.groupOf(int(s));
        r.death = r.birth;
        for (int c : stage.consumers)
            r.death = std::max(r.death, grouping.groupOf(c));
        r.estBytes = estimatedBufferBytes(g, int(s), elemType(int(s)));
        live.push_back(r);
    }
    assignSlots(plan, std::move(live));
    return plan;
}

} // namespace polymage::core
