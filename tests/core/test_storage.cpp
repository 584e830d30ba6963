#include <gtest/gtest.h>

#include <map>

#include "apps/apps.hpp"
#include "common/test_pipelines.hpp"
#include "core/storage.hpp"
#include "driver/compiler.hpp"
#include "pipeline/inline.hpp"

namespace polymage::core {
namespace {

using namespace dsl;

/**
 * Paper Fig. 7: with 32x256 tiles on Harris (after inlining), the five
 * intermediate stencil stages get scratchpads sized tile + overlap and
 * the live-out stays a full buffer.  The paper's uniform-slope shapes
 * are 36x260; our per-level ("tight", Fig. 6) shapes are one/three
 * cells smaller per dim: 35x259 at the bottom level, 33x257 mid-level.
 */
TEST(Storage, HarrisScratchpadsMatchFigure7)
{
    auto inlined = pg::inlinePointwise(apps::buildHarris(2048, 2048));
    auto g = pg::PipelineGraph::build(inlined.spec);
    GroupingOptions opts;
    opts.tileSizes = {32, 256};
    auto grouping = groupStages(g, opts);
    ASSERT_EQ(grouping.groups.size(), 1u);
    auto plan = planStorage(g, grouping, opts);

    int scratch = 0, full = 0;
    std::int64_t scratch_bytes = 0;
    for (std::size_t i = 0; i < g.stages().size(); ++i) {
        const auto &st = plan.stages.at(int(i));
        if (st.kind == StorageKind::Scratchpad) {
            ++scratch;
            scratch_bytes += st.scratchBytes;
            const bool bottom = grouping.groups[0].localLevel.at(
                                    int(i)) == 0;
            const auto want = bottom
                                  ? std::vector<std::int64_t>{35, 259}
                                  : std::vector<std::int64_t>{33, 257};
            EXPECT_EQ(st.scratchExtent, want)
                << g.stage(int(i)).name();
            EXPECT_EQ(st.scratchBytes,
                      want[0] * want[1] * 4);
        } else {
            ++full;
            EXPECT_TRUE(g.stage(int(i)).liveOut);
        }
    }
    EXPECT_EQ(scratch, 5); // Ix, Iy, Sxx, Syy, Sxy
    EXPECT_EQ(full, 1);    // harris
    EXPECT_EQ(scratch_bytes, (2 * 35 * 259 + 3 * 33 * 257) * 4);
}

TEST(Storage, ScaledStagesGetScaledScratchpads)
{
    auto t = testing::makeUpsample(1 << 16);
    auto g = pg::PipelineGraph::build(t.spec);
    GroupingOptions opts;
    opts.tileSizes = {64};
    auto grouping = groupStages(g, opts);
    ASSERT_EQ(grouping.groups.size(), 1u);
    auto plan = planStorage(g, grouping, opts);
    // base has scale 2 in group coords: its scratchpad covers
    // (64 - 1 + 1) / 2 + 2 = 34 points.
    for (std::size_t i = 0; i < g.stages().size(); ++i) {
        if (g.stage(int(i)).name() == "base") {
            EXPECT_EQ(plan.stages.at(int(i)).kind,
                      StorageKind::Scratchpad);
            EXPECT_EQ(plan.stages.at(int(i)).scratchExtent[0], 34);
        }
    }
}

TEST(Storage, EverythingFullWhenTilingDisabled)
{
    auto inlined = pg::inlinePointwise(apps::buildHarris(512, 512));
    auto g = pg::PipelineGraph::build(inlined.spec);
    GroupingOptions opts;
    auto grouping = groupStages(g, opts);
    auto plan = planStorage(g, grouping, opts, /*tiling_enabled=*/false);
    for (std::size_t i = 0; i < g.stages().size(); ++i)
        EXPECT_EQ(plan.stages.at(int(i)).kind, StorageKind::FullBuffer);
}

TEST(Storage, LiveOutAndExternallyConsumedAreFull)
{
    // Two outputs: blur1 is consumed by blur2 *and* is a live-out.
    auto t = testing::makeBlurChain(512);
    // Rebuild with both outputs.
    auto g0 = pg::PipelineGraph::build(t.spec);
    ASSERT_EQ(g0.stages().size(), 2u);

    // Mark blur1 live-out through a new spec.
    PipelineSpec spec2("blur_both");
    spec2.addOutput(g0.stage(0).callable);
    spec2.addOutput(g0.stage(1).callable);
    for (const auto &p : t.spec.params())
        spec2.addParam(p);
    for (const auto &[id, v] : t.spec.estimates())
        spec2.estimateById(id, v);
    auto g = pg::PipelineGraph::build(spec2);
    GroupingOptions opts;
    auto grouping = groupStages(g, opts);
    auto plan = planStorage(g, grouping, opts);
    for (std::size_t i = 0; i < g.stages().size(); ++i)
        EXPECT_EQ(plan.stages.at(int(i)).kind, StorageKind::FullBuffer);
}

/** s0 -> s1 -> s2 -> out, each non-pointwise enough to stay separate. */
polymage::testing::TinyPipeline
makeDeepChain(std::int64_t est)
{
    polymage::testing::TinyPipeline t;
    Image I("I", DType::Float, {Expr(t.R)});
    Variable x("x");
    Interval dom(Expr(0), Expr(t.R) - 1);
    auto shifted = [&](Function &f, const auto &src) {
        Condition interior =
            (Expr(x) >= 1) & (Expr(x) <= Expr(t.R) - 2);
        f.define({Case(interior, src(x - 1) + src(x + 1))});
    };
    Function s0("s0", {x}, {dom}, DType::Float);
    shifted(s0, I);
    Function s1("s1", {x}, {dom}, DType::Float);
    shifted(s1, s0);
    Function s2("s2", {x}, {dom}, DType::Float);
    shifted(s2, s1);
    Function out("out", {x}, {dom}, DType::Float);
    shifted(out, s2);
    t.spec = PipelineSpec("deep_chain");
    t.spec.addParam(t.R);
    t.spec.addInput(I);
    t.spec.addOutput(out);
    t.spec.estimate(t.R, est);
    return t;
}

TEST(Storage, ChainIntermediatesShareSlots)
{
    // With grouping disabled every stage is its own group, so the
    // chain s0 -> s1 -> s2 -> out has live ranges [0,1], [1,2], [2,3]:
    // s0 is dead before s2 is born and they share a slot; s1 overlaps
    // both and cannot.
    auto t = makeDeepChain(1 << 12);
    auto g = pg::PipelineGraph::build(t.spec);
    GroupingOptions opts;
    opts.enable = false;
    auto grouping = groupStages(g, opts);
    auto plan = planStorage(g, grouping, opts);

    int s0 = -1, s1 = -1, s2 = -1;
    for (std::size_t i = 0; i < g.stages().size(); ++i) {
        const auto &name = g.stage(int(i)).name();
        if (name == "s0") s0 = int(i);
        if (name == "s1") s1 = int(i);
        if (name == "s2") s2 = int(i);
    }
    ASSERT_EQ(plan.slot.size(), 3u);
    EXPECT_EQ(plan.slot.at(s0), plan.slot.at(s2));
    EXPECT_NE(plan.slot.at(s0), plan.slot.at(s1));
    EXPECT_EQ(plan.slots.size(), 2u);
    EXPECT_LT(plan.estBytesWithReuse, plan.estBytesNoReuse);
}

TEST(Storage, OverlappingLiveRangesNeverShareASlot)
{
    // Safety invariant on real pipelines: recompute every
    // full-buffer intermediate's group live range and check that slot
    // members are pairwise disjoint in time.
    const dsl::PipelineSpec specs[] = {
        apps::buildPyramidBlend(512, 512, 3),
        apps::buildMultiscaleInterp(512, 512, 5),
        apps::buildHarris(512, 512),
    };
    for (const auto &spec : specs) {
        auto c = polymage::compilePipeline(spec);
        const auto &g = c.graph;
        struct Range { int birth, death; };
        std::map<int, Range> range;
        for (const auto &[s, slot_idx] : c.storage.slot) {
            (void)slot_idx;
            Range r;
            r.birth = c.grouping.groupOf(s);
            r.death = r.birth;
            for (int cs : g.stage(s).consumers)
                r.death = std::max(r.death, c.grouping.groupOf(cs));
            range[s] = r;
        }
        for (const auto &slot : c.storage.slots) {
            for (std::size_t i = 0; i < slot.stages.size(); ++i) {
                for (std::size_t j = i + 1; j < slot.stages.size();
                     ++j) {
                    const Range &a = range.at(slot.stages[i]);
                    const Range &b = range.at(slot.stages[j]);
                    EXPECT_TRUE(a.death < b.birth || b.death < a.birth)
                        << spec.name() << ": "
                        << g.stage(slot.stages[i]).name() << " and "
                        << g.stage(slot.stages[j]).name()
                        << " overlap in a shared slot";
                }
            }
        }
    }
}

TEST(Storage, PyramidAppsActuallyReuse)
{
    // The multi-level pyramid pipelines are the motivating case: the
    // per-level intermediates die level by level, so slot sharing must
    // shrink the estimated footprint.  Fixed tile sizes keep the
    // multi-group structure this exercises (the tile cost model can
    // legitimately fuse the whole small pyramid into one L2-resident
    // group, leaving nothing to reuse).
    auto c = polymage::compilePipeline(
        apps::buildPyramidBlend(512, 512, 3),
        polymage::CompileOptions{});
    EXPECT_LT(c.storage.estBytesWithReuse, c.storage.estBytesNoReuse);
    EXPECT_LT(c.storage.slots.size(), c.storage.slot.size());
}

TEST(Storage, AccumulatorAlwaysFull)
{
    auto t = testing::makeHistogram(512);
    auto g = pg::PipelineGraph::build(t.spec);
    GroupingOptions opts;
    auto grouping = groupStages(g, opts);
    auto plan = planStorage(g, grouping, opts);
    EXPECT_EQ(plan.stages.at(0).kind, StorageKind::FullBuffer);
}

} // namespace
} // namespace polymage::core
