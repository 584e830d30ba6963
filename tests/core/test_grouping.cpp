#include <gtest/gtest.h>

#include <set>

#include "apps/apps.hpp"
#include "common/test_pipelines.hpp"
#include "core/grouping.hpp"
#include "pipeline/inline.hpp"

namespace polymage::core {
namespace {

using namespace dsl;

int
groupCount(const GroupingResult &r)
{
    return int(r.groups.size());
}

/** The partition invariant: every stage in exactly one group. */
void
expectPartition(const pg::PipelineGraph &g, const GroupingResult &r)
{
    std::set<int> seen;
    for (const auto &grp : r.groups) {
        for (int s : grp.stages) {
            EXPECT_TRUE(seen.insert(s).second) << "stage in two groups";
        }
    }
    EXPECT_EQ(seen.size(), g.stages().size());
}

TEST(Grouping, BlurChainFusesIntoOneGroup)
{
    auto t = testing::makeBlurChain(512);
    auto g = pg::PipelineGraph::build(t.spec);
    auto r = groupStages(g);
    expectPartition(g, r);
    EXPECT_EQ(groupCount(r), 1);
    EXPECT_EQ(r.mergeCount, 1);
}

TEST(Grouping, HarrisGroupsAllStencilStagesAfterInlining)
{
    // Paper §4: after inlining the point-wise stages, all stencil
    // stages fuse into a single group.
    auto inlined = pg::inlinePointwise(apps::buildHarris(2048, 2048));
    auto g = pg::PipelineGraph::build(inlined.spec);
    auto r = groupStages(g);
    expectPartition(g, r);
    EXPECT_EQ(groupCount(r), 1);
    const auto &grp = r.groups[0];
    EXPECT_EQ(grp.stages.size(), 6u);
    EXPECT_EQ(grp.numLevels, 3); // Ix/Iy; Sxx/Syy/Sxy; harris
    EXPECT_EQ(grp.tileableDims().size(), 2u);
}

TEST(Grouping, OverlapThresholdLimitsGroupDepth)
{
    // A deep chain of wide stencils: with a small tile size and low
    // threshold, merging must stop early; with a generous threshold it
    // fuses completely.
    Parameter N("N");
    Variable x("x");
    Image I("I", DType::Float, {Expr(N)});
    std::vector<Function> fs;
    const int depth = 8;
    for (int k = 0; k < depth; ++k) {
        Interval dom(Expr(8 * (k + 1)), Expr(N) - 1 - 8 * (k + 1));
        Function f("s" + std::to_string(k), {x}, {dom}, DType::Float);
        Expr idx_lo = Expr(x) - 4, idx_hi = Expr(x) + 4;
        if (k == 0) {
            f.define(I(idx_lo) + I(idx_hi));
        } else {
            f.define(fs.back()(idx_lo) + fs.back()(idx_hi));
        }
        fs.push_back(f);
    }
    PipelineSpec spec("deep");
    spec.addParam(N);
    spec.addInput(I);
    spec.addOutput(fs.back());
    spec.estimate(N, 1 << 20);
    auto g = pg::PipelineGraph::build(spec);

    GroupingOptions tight;
    tight.tileSizes = {64};
    tight.overlapThreshold = 0.5;
    auto rt = groupStages(g, tight);
    expectPartition(g, rt);
    // Each merge adds 8 overlap on both sides; 64*0.5 = 32 allows at
    // most 3 transitions (3*8=24 < 32 but 4*8=32 is rejected).
    EXPECT_GT(groupCount(rt), 1);

    GroupingOptions loose;
    loose.tileSizes = {512};
    loose.overlapThreshold = 0.5;
    auto rl = groupStages(g, loose);
    expectPartition(g, rl);
    EXPECT_EQ(groupCount(rl), 1);
}

TEST(Grouping, AccumulatorStaysAlone)
{
    // Histogram equalisation-like graph: histogram reduction feeding a
    // point-wise remap never fuses with it.
    Parameter R("R"), C("C");
    Variable x("x"), y("y"), b("b");
    Image I("I", DType::UChar, {Expr(R), Expr(C)});
    Accumulator hist("hist", {b}, {Interval(Expr(0), Expr(255))},
                     {x, y},
                     {Interval(Expr(0), Expr(R) - 1),
                      Interval(Expr(0), Expr(C) - 1)},
                     DType::Int);
    hist.accumulate({I(Expr(x), Expr(y))}, Expr(1));
    Function remap("remap", {x, y},
                   {Interval(Expr(0), Expr(R) - 1),
                    Interval(Expr(0), Expr(C) - 1)},
                   DType::Int);
    remap.define(hist(I(Expr(x), Expr(y))));
    PipelineSpec spec("histremap");
    spec.addOutput(remap);
    spec.estimate(R, 512);
    spec.estimate(C, 512);
    auto g = pg::PipelineGraph::build(spec);
    auto r = groupStages(g);
    expectPartition(g, r);
    EXPECT_EQ(groupCount(r), 2);
}

TEST(Grouping, SmallStagesNotMerged)
{
    // A producer of fewer than 4096 estimated points (a LUT) is not
    // considered for merging; at 4096 points it fuses.
    auto groupsAt = [](std::int64_t n) {
        Parameter R("R");
        Variable x("x");
        Image I("I", DType::Float, {Expr(n)});
        Function lut("lut", {x}, {Interval(Expr(0), Expr(n - 1))},
                     DType::Float);
        lut.define(I(Expr(x)) * Expr(2.0));
        Function big("big", {x}, {Interval(Expr(0), Expr(n - 1))},
                     DType::Float);
        big.define(lut(Expr(x)) + Expr(1.0));
        PipelineSpec spec("lut");
        spec.addParam(R);
        spec.addOutput(big);
        spec.estimate(R, 1 << 20);
        auto g = pg::PipelineGraph::build(spec);
        return groupCount(groupStages(g, GroupingOptions{}));
    };
    EXPECT_EQ(groupsAt(256), 2);
    EXPECT_EQ(groupsAt(4095), 2);
    EXPECT_EQ(groupsAt(4096), 1);
}

TEST(Grouping, DisabledLeavesSingletons)
{
    auto spec = apps::buildHarris(256, 256);
    auto g = pg::PipelineGraph::build(spec);
    GroupingOptions opts;
    opts.enable = false;
    auto r = groupStages(g, opts);
    expectPartition(g, r);
    EXPECT_EQ(groupCount(r), 11);
    EXPECT_EQ(r.mergeCount, 0);
}

TEST(Grouping, GroupsComeOutTopologicallyOrdered)
{
    auto inlined = pg::inlinePointwise(apps::buildHarris(512, 512));
    auto g = pg::PipelineGraph::build(inlined.spec);
    GroupingOptions opts;
    opts.overlapThreshold = 0.05; // forces several groups
    opts.tileSizes = {32, 32};
    auto r = groupStages(g, opts);
    expectPartition(g, r);
    std::map<int, int> group_of;
    for (std::size_t gi = 0; gi < r.groups.size(); ++gi) {
        for (int s : r.groups[gi].stages)
            group_of[s] = int(gi);
    }
    for (const auto &grp : r.groups) {
        for (int s : grp.stages) {
            for (int p : g.stage(s).producers)
                EXPECT_LE(group_of[p], group_of[s]);
        }
    }
}

TEST(Grouping, UpDownSamplingChainsFuse)
{
    auto up = testing::makeUpsample(4096);
    auto gu = pg::PipelineGraph::build(up.spec);
    EXPECT_EQ(groupCount(groupStages(gu)), 1);

    auto down = testing::makeDownsample(4096);
    auto gd = pg::PipelineGraph::build(down.spec);
    EXPECT_EQ(groupCount(groupStages(gd)), 1);
}

TEST(Grouping, TerminationBoundHolds)
{
    // Algorithm 1 terminates in at most |S| - 1 merges.
    auto spec = apps::buildHarris(1024, 1024);
    auto g = pg::PipelineGraph::build(spec);
    auto r = groupStages(g);
    EXPECT_LE(r.mergeCount, int(g.stages().size()) - 1);
}

} // namespace
} // namespace polymage::core

namespace polymage::core {
namespace {

using namespace dsl;

TEST(Grouping, DegenerateDimsAreNotTiled)
{
    // Unsharp-style group: a 3-wide channel axis is tileable but must
    // not consume a tile size or the parallel loop.
    auto spec = apps::buildUnsharpMask(2048, 2048);
    auto inlined = pg::inlinePointwise(spec);
    auto g = pg::PipelineGraph::build(inlined.spec);
    GroupingOptions opts;
    auto r = groupStages(g, opts);
    ASSERT_EQ(r.groups.size(), 1u);
    const auto &grp = r.groups[0];
    // Three tileable dims (c, x, y)...
    EXPECT_EQ(grp.tileableDims().size(), 3u);
    // ...but only the spatial two get tiled.
    auto tiled = tiledDimsFor(grp, g, opts);
    EXPECT_EQ(tiled.size(), 2u);
    EXPECT_EQ(tiled, (std::vector<int>{1, 2}));

    // A 3-wide axis stays untiled even under a 1-point tile size.
    GroupingOptions tiny;
    tiny.tileSizes = {1, 32, 256};
    EXPECT_EQ(tiledDimsFor(grp, g, tiny), (std::vector<int>{1, 2}));

    // A dimension at least 16 wide but spanning fewer than two tiles of
    // its assigned size stays untiled (a one-tile loop would serialise
    // the parallel dimension); halving the tile size tiles it.
    auto short_inlined = pg::inlinePointwise(apps::buildUnsharpMask(24, 2048));
    auto sg = pg::PipelineGraph::build(short_inlined.spec);
    auto sr = groupStages(sg, opts);
    ASSERT_EQ(sr.groups.size(), 1u);
    const auto &sgrp = sr.groups[0];
    const std::int64_t rows = estimatedGroupExtent(sgrp, sg, 1);
    ASSERT_GE(rows, 16);
    ASSERT_LT(rows, 2 * opts.tileSizes[0]);
    EXPECT_EQ(tiledDimsFor(sgrp, sg, opts), (std::vector<int>{2}));
    GroupingOptions half;
    half.tileSizes = {rows / 2, 256};
    EXPECT_EQ(tiledDimsFor(sgrp, sg, half), (std::vector<int>{1, 2}));
}

} // namespace
} // namespace polymage::core
