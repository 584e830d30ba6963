#include "core/grouping.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "poly/range.hpp"
#include "support/diagnostics.hpp"
#include "support/trace.hpp"

namespace polymage::core {

namespace {

/**
 * Groups whose estimated point count is below this are never
 * considered for merging (paper: "avoid considering functions of very
 * small size", e.g. 256-entry lookup tables).
 */
constexpr std::int64_t kMinGroupSize = 4096;

/**
 * Tileable dimensions whose estimated extent (in group coordinates) is
 * below this are looped plainly instead of tiled (e.g. 3-wide channel
 * axes), so tile sizes and parallelism go to the spatial dimensions.
 */
constexpr std::int64_t kMinTiledExtent = 16;

} // namespace

std::int64_t
tileSizeFor(const GroupingOptions &opts, int i)
{
    PM_ASSERT(!opts.tileSizes.empty(), "no tile sizes configured");
    const std::size_t idx =
        std::min<std::size_t>(std::size_t(i), opts.tileSizes.size() - 1);
    return opts.tileSizes[idx];
}

std::int64_t
estimatedGroupExtent(const GroupSchedule &sched,
                     const pg::PipelineGraph &g, int gd)
{
    // Widest member-stage extent scaled into group space.
    std::int64_t extent = 0;
    for (int s : sched.stages) {
        const StageMapping &m = sched.mapping.at(s);
        const auto &dom = g.stage(s).loopDom();
        for (std::size_t d = 0; d < m.groupDim.size(); ++d) {
            if (m.groupDim[d] != gd)
                continue;
            auto lo = poly::evalConstant(dom[d].lower(),
                                         g.estimateEnv());
            auto hi = poly::evalConstant(dom[d].upper(),
                                         g.estimateEnv());
            if (!lo || !hi)
                return -1;
            extent = std::max(extent, (*hi - *lo + 1) * m.scale[d]);
        }
    }
    return extent;
}

std::vector<int>
tiledDimsFor(const GroupSchedule &sched, const pg::PipelineGraph &g,
             const GroupingOptions &opts)
{
    std::vector<int> out;
    for (int gd : sched.tileableDims()) {
        const std::int64_t extent = estimatedGroupExtent(sched, g, gd);
        // Tile only when the dimension is long enough to matter and
        // spans at least two tiles of the size it would receive (a
        // one-tile loop serialises the parallel dimension).
        const std::int64_t tau = tileSizeFor(opts, int(out.size()));
        if (extent < 0 ||
            (extent >= kMinTiledExtent && extent >= 2 * tau)) {
            out.push_back(gd);
        }
    }
    return out;
}

double
relativeOverlap(const GroupSchedule &sched, const pg::PipelineGraph &g,
                const GroupingOptions &opts)
{
    double worst = 0.0;
    int i = 0;
    for (int gd : tiledDimsFor(sched, g, opts)) {
        const double tau = double(tileSizeFor(opts, i++));
        worst = std::max(worst, double(sched.dims[gd].overlap()) / tau);
    }
    return worst;
}

int
GroupingResult::groupOf(int stage_idx) const
{
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
        const auto &st = groups[gi].stages;
        if (std::find(st.begin(), st.end(), stage_idx) != st.end())
            return int(gi);
    }
    return -1;
}

std::string
GroupingResult::toString(const pg::PipelineGraph &g) const
{
    std::ostringstream os;
    os << "grouping of '" << g.name() << "' (" << groups.size()
       << " groups, " << mergeCount << " merges):\n";
    for (const auto &grp : groups)
        os << "  " << grp.toString(g) << "\n";
    return os.str();
}

namespace {

/** Mutable grouping state: a partition of stage indices. */
struct Partition
{
    std::vector<std::vector<int>> groups;

    /**
     * Child groups of a group: indices of groups containing consumers
     * of its members.
     */
    std::set<int>
    childrenOf(const pg::PipelineGraph &g, int gi,
               const std::vector<int> &owner) const
    {
        std::set<int> children;
        for (int s : groups[gi]) {
            for (int c : g.stage(s).consumers) {
                if (owner[c] != gi)
                    children.insert(owner[c]);
            }
        }
        return children;
    }
};

std::int64_t
groupSize(const pg::PipelineGraph &g, const std::vector<int> &stages)
{
    std::int64_t total = 0;
    for (int s : stages) {
        const std::int64_t sz = g.estimatedSize(s);
        if (sz < 0)
            return -1; // unknown size: treated as very small
        total += sz;
    }
    return total;
}

} // namespace

GroupingResult
groupStages(const pg::PipelineGraph &g, const GroupingOptions &opts)
{
    Partition part;
    const int n = int(g.stages().size());
    std::vector<int> owner(n);
    for (int i = 0; i < n; ++i) {
        part.groups.push_back({i});
        owner[i] = i;
    }

    int merges = 0;
    if (opts.enable) {
        bool converged = false;
        while (!converged) {
            converged = true;

            // Candidate groups: exactly one child group and not too
            // small under the parameter estimates (Algorithm 1 lines
            // 6-7).
            std::vector<int> cand;
            for (std::size_t gi = 0; gi < part.groups.size(); ++gi) {
                if (part.groups[gi].empty())
                    continue;
                if (part.childrenOf(g, int(gi), owner).size() != 1)
                    continue;
                if (groupSize(g, part.groups[gi]) < kMinGroupSize)
                    continue;
                cand.push_back(int(gi));
            }
            std::stable_sort(cand.begin(), cand.end(), [&](int a, int b) {
                return groupSize(g, part.groups[a]) >
                       groupSize(g, part.groups[b]);
            });

            for (int gi : cand) {
                const int child =
                    *part.childrenOf(g, gi, owner).begin();
                std::vector<int> merged = part.groups[gi];
                merged.insert(merged.end(), part.groups[child].begin(),
                              part.groups[child].end());

                // Criterion 1: constant dependence vectors via
                // alignment and scaling (line 10).
                auto sched = buildGroupSchedule(g, merged);
                if (!sched || tiledDimsFor(*sched, g, opts).empty())
                    continue;

                // Criterion 2: bounded redundant computation (lines
                // 11-12).
                if (relativeOverlap(*sched, g, opts) >=
                    opts.overlapThreshold) {
                    continue;
                }

                // Merge (lines 13-17).
                for (int s : part.groups[gi])
                    owner[s] = child;
                part.groups[child] = std::move(merged);
                part.groups[gi].clear();
                ++merges;
                converged = false;
                break;
            }
        }
    }

    // Emit final schedules in a topological order of the group DAG
    // (producer groups first), deterministically by smallest member.
    GroupingResult result;
    result.mergeCount = merges;
    std::vector<std::vector<int>> final_groups;
    for (auto &grp : part.groups) {
        if (!grp.empty()) {
            std::sort(grp.begin(), grp.end());
            final_groups.push_back(std::move(grp));
        }
    }
    std::sort(final_groups.begin(), final_groups.end());
    // Kahn's algorithm over group dependencies.
    const int ng = int(final_groups.size());
    std::vector<int> which(n, -1);
    for (int gi = 0; gi < ng; ++gi) {
        for (int s : final_groups[gi])
            which[s] = gi;
    }
    std::vector<std::set<int>> preds(ng);
    for (int gi = 0; gi < ng; ++gi) {
        for (int s : final_groups[gi]) {
            for (int p : g.stage(s).producers) {
                if (which[p] != gi)
                    preds[gi].insert(which[p]);
            }
        }
    }
    std::vector<std::vector<int>> ordered;
    std::vector<bool> emitted(ng, false);
    for (int done = 0; done < ng;) {
        bool progressed = false;
        for (int gi = 0; gi < ng; ++gi) {
            if (emitted[gi])
                continue;
            bool ready = true;
            for (int p : preds[gi])
                ready &= emitted[p];
            if (ready) {
                emitted[gi] = true;
                ordered.push_back(std::move(final_groups[gi]));
                ++done;
                progressed = true;
            }
        }
        PM_ASSERT(progressed, "cycle in group DAG");
    }
    {
        obs::ScopedTrace span("schedule");
        for (auto &grp : ordered) {
            auto sched = buildGroupSchedule(g, grp);
            PM_ASSERT(sched.has_value(),
                      "final group fails alignment/scaling");
            result.groups.push_back(std::move(*sched));
        }
    }
    return result;
}

} // namespace polymage::core
