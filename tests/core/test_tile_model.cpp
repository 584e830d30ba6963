/**
 * @file
 * The analytic tile cost model: footprint extraction, the predicted
 * working-set/overlap functions it shares with the guided tuner, and
 * the sizing decision's cache-budget and monotonicity properties
 * (checked across pinned machine models, not the host's caches).
 */
#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "core/tile_model.hpp"
#include "pipeline/inline.hpp"

namespace polymage::core {
namespace {

pg::PipelineGraph
postInlineGraph(const dsl::PipelineSpec &spec)
{
    // Mirror the driver: the model runs after pointwise inlining.
    auto inlined = pg::inlinePointwise(spec);
    return pg::PipelineGraph::build(inlined.spec);
}

machine::MachineInfo
machineOf(std::int64_t l1, std::int64_t l2, std::int64_t l3)
{
    machine::MachineInfo m;
    m.l1dBytes = l1;
    m.l2Bytes = l2;
    m.l3Bytes = l3;
    m.source = "test";
    return m;
}

TEST(TileModel, AnalyzeFindsTiledGroups)
{
    const auto g = postInlineGraph(apps::buildHarris(2048, 2048));
    const TileModelInputs in = analyzePipeline(g);
    ASSERT_FALSE(in.empty());
    EXPECT_EQ(in.dims, 2u);
    for (const auto &grp : in.groups) {
        EXPECT_FALSE(grp.footprint.terms.empty());
        EXPECT_EQ(grp.extent.size(), in.dims);
        EXPECT_EQ(grp.overlap.size(), in.dims);
    }
}

TEST(TileModel, PredictionsAreMonotoneInTileSize)
{
    const auto g = postInlineGraph(apps::buildHarris(2048, 2048));
    const TileModelInputs in = analyzePipeline(g);
    ASSERT_FALSE(in.empty());

    std::int64_t prev_ws = 0;
    double prev_ov = 1e9;
    for (std::int64_t t : {8, 16, 32, 64, 128, 256}) {
        const std::int64_t ws = predictedWorkingSet(in, {t, t});
        const double ov = predictedOverlapFrac(in, {t, t});
        // Bigger tiles keep more scratch hot and waste less recompute.
        EXPECT_GE(ws, prev_ws) << t;
        EXPECT_LE(ov, prev_ov + 1e-12) << t;
        prev_ws = ws;
        prev_ov = ov;
    }
}

TEST(TileModel, ChoiceFitsHalfTheL2)
{
    const auto g = postInlineGraph(apps::buildHarris(2048, 2048));
    for (const auto &m :
         {machineOf(32 << 10, 256 << 10, 2 << 20),
          machineOf(48 << 10, 2 << 20, 32 << 20),
          machineOf(1 << 20, 64 << 20, 512 << 20)}) {
        const TileModelResult r = chooseTileConfig(g, {}, m);
        ASSERT_TRUE(r.applied) << m.toString();
        ASSERT_EQ(r.tileSizes.size(), 2u);
        EXPECT_LE(r.workingSetBytes, m.l2Bytes / 2) << m.toString();
        EXPECT_GT(r.workingSetBytes, 0);
        for (std::int64_t t : r.tileSizes) {
            EXPECT_GE(t, 8) << m.toString();
            EXPECT_LE(t, 512) << m.toString();
        }
    }
}

TEST(TileModel, BiggerCachesNeverShrinkTiles)
{
    const auto g = postInlineGraph(apps::buildHarris(2048, 2048));
    std::int64_t prev_area = 0;
    for (const auto &m :
         {machineOf(16 << 10, 128 << 10, 1 << 20),
          machineOf(32 << 10, 256 << 10, 8 << 20),
          machineOf(48 << 10, 2 << 20, 32 << 20),
          machineOf(1 << 20, 64 << 20, 512 << 20)}) {
        const TileModelResult r = chooseTileConfig(g, {}, m);
        ASSERT_TRUE(r.applied) << m.toString();
        std::int64_t area = 1;
        for (std::int64_t t : r.tileSizes)
            area *= t;
        EXPECT_GE(area, prev_area) << m.toString();
        prev_area = area;
    }
}

TEST(TileModel, ThresholdNeverRisesAboveBase)
{
    // Raising the threshold past the base would admit merges the trial
    // grouping never modelled, invalidating the chosen footprints.
    const auto g =
        postInlineGraph(apps::buildPyramidBlend(2048, 2048, 4));
    GroupingOptions base;
    for (double bt : {0.2, 0.4, 0.5}) {
        base.overlapThreshold = bt;
        const TileModelResult r = chooseTileConfig(
            g, base, machineOf(48 << 10, 2 << 20, 32 << 20));
        EXPECT_LE(r.overlapThreshold, bt + 1e-12);
    }
}

TEST(TileModel, TinyPipelineDeclinesGracefully)
{
    // Estimated extents too small to tile: the model must decline and
    // echo the base configuration rather than emit degenerate tiles.
    const auto g = postInlineGraph(apps::buildHarris(16, 16));
    GroupingOptions base;
    base.tileSizes = {32, 256};
    const TileModelResult r = chooseTileConfig(
        g, base, machineOf(48 << 10, 2 << 20, 32 << 20));
    EXPECT_FALSE(r.applied);
    EXPECT_EQ(r.tileSizes, base.tileSizes);
    EXPECT_NE(r.reason, "model");
}

TEST(TileModel, JsonCarriesTheDecision)
{
    const auto g = postInlineGraph(apps::buildHarris(2048, 2048));
    const TileModelResult r = chooseTileConfig(
        g, {}, machineOf(48 << 10, 2 << 20, 32 << 20));
    const std::string j = r.toJson();
    for (const char *key :
         {"\"applied\"", "\"reason\"", "\"tile_sizes\"",
          "\"overlap_threshold\"", "\"working_set_bytes\"",
          "\"bytes_per_tile_point\"", "\"predicted_overlap\"",
          "\"machine\""}) {
        EXPECT_NE(j.find(key), std::string::npos) << key;
    }
}

} // namespace
} // namespace polymage::core
