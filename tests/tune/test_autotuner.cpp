#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "runtime/synth.hpp"
#include "tune/autotuner.hpp"

namespace polymage::tune {
namespace {

TEST(TuneSpace, PaperSpaceSize)
{
    // §3.8: 7 tile sizes per dim, 3 thresholds; 2 tiled dims give
    // 7^2 * 3 = 147 configurations, 4 dims give 7^4 * 3.
    TuneSpace two;
    EXPECT_EQ(two.size(), 147);
    TuneSpace four;
    four.tiledDims = 4;
    EXPECT_EQ(four.size(), 7 * 7 * 7 * 7 * 3);
}

TEST(TuneSpace, EnumerationCoversSpaceExactly)
{
    TuneSpace space;
    space.tileSizes = {8, 32};
    space.thresholds = {0.2, 0.5};
    space.tiledDims = 2;
    auto configs = enumerateSpace(space);
    EXPECT_EQ(std::int64_t(configs.size()), space.size());
    // All distinct.
    std::set<std::string> seen;
    for (const auto &c : configs)
        EXPECT_TRUE(seen.insert(c.toString()).second);
}

TEST(Autotuner, FindsAWorkingConfigOnHarris)
{
    const std::int64_t n = 96;
    auto spec = apps::buildHarris(n, n);
    rt::Buffer in = rt::synth::photo(n + 2, n + 2);

    TuneSpace space;
    space.tileSizes = {16, 64};
    space.thresholds = {0.4};
    space.tiledDims = 2;

    TuneOptions opts;
    int calls = 0;
    opts.progress = [&](int, int) { ++calls; };

    auto result = autotune(spec, {n, n}, {&in}, space, opts);
    ASSERT_EQ(result.entries.size(), 4u);
    EXPECT_EQ(calls, 4);
    ASSERT_GE(result.best, 0);
    for (const auto &e : result.entries) {
        EXPECT_GT(e.seconds1, 0.0);
        EXPECT_GT(e.secondsP, 0.0);
        EXPECT_GE(e.groups, 1);
        // Parallel model must not exceed the single-thread time.
        EXPECT_LE(e.secondsP, e.seconds1 * 1.05);
    }
    // CSV has a header plus one row per entry.
    const std::string csv = result.csv();
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
}

TEST(Autotuner, GuidedAgreesWithExhaustiveOnHarris)
{
    const std::int64_t n = 160;
    auto spec = apps::buildHarris(n, n);
    rt::Buffer in = rt::synth::photo(n + 2, n + 2);

    TuneSpace space;
    space.tileSizes = {8, 16, 32, 64};
    space.thresholds = {0.2, 0.4, 0.5};
    space.tiledDims = 2;

    auto exh = autotune(spec, {n, n}, {&in}, space, {});
    auto gui = autotuneGuided(spec, {n, n}, {&in}, space, {});

    EXPECT_EQ(exh.mode, "exhaustive");
    EXPECT_EQ(gui.mode, "guided");
    EXPECT_EQ(exh.builds, int(space.size()));
    // Guiding must actually guide: strictly fewer builds than the
    // grid, and every build accounted for in the entries.
    EXPECT_LT(gui.builds, exh.builds);
    EXPECT_EQ(gui.builds, int(gui.entries.size()));
    ASSERT_GE(gui.best, 0);

    // The guided best must land close to the exhaustive best.  Both
    // use the same deterministic min-of-repeats profile measurement,
    // so a generous 2x bound is stable even on noisy CI machines.
    EXPECT_LE(gui.bestEntry().secondsP,
              exh.bestEntry().secondsP * 2.0);
}

TEST(Autotuner, GuidedAgreesWithExhaustiveOnUnsharp)
{
    const std::int64_t n = 160;
    auto spec = apps::buildUnsharpMask(n, n);
    rt::Buffer in = rt::synth::photoRgb(n + 4, n + 4);

    TuneSpace space;
    space.tileSizes = {16, 32, 64};
    space.thresholds = {0.2, 0.5};
    space.tiledDims = 2;

    auto exh = autotune(spec, {n, n}, {&in}, space, {});
    auto gui = autotuneGuided(spec, {n, n}, {&in}, space, {});

    EXPECT_LT(gui.builds, exh.builds);
    ASSERT_GE(gui.best, 0);
    EXPECT_LE(gui.bestEntry().secondsP,
              exh.bestEntry().secondsP * 2.0);
}

TEST(Autotuner, GuidedHandlesDegenerateSpaces)
{
    // A single-threshold space leaves the climb only tile moves; the
    // sweep must stay within the space and produce valid entries.
    const std::int64_t n = 96;
    auto spec = apps::buildHarris(n, n);
    rt::Buffer in = rt::synth::photo(n + 2, n + 2);

    TuneSpace space;
    space.tileSizes = {8, 16, 32};
    space.thresholds = {0.4};
    space.tiledDims = 2;

    auto gui = autotuneGuided(spec, {n, n}, {&in}, space, {});
    ASSERT_GE(gui.best, 0);
    EXPECT_LE(gui.builds, int(space.size()));
    for (const auto &e : gui.entries) {
        EXPECT_GT(e.seconds1, 0.0);
        EXPECT_GT(e.secondsP, 0.0);
    }
}

TEST(Autotuner, TuneResultJsonShape)
{
    const std::int64_t n = 96;
    auto spec = apps::buildHarris(n, n);
    rt::Buffer in = rt::synth::photo(n + 2, n + 2);

    TuneSpace space;
    space.tileSizes = {16, 64};
    space.thresholds = {0.4};
    space.tiledDims = 2;
    auto result = autotune(spec, {n, n}, {&in}, space, {});

    const std::string j = result.toJson();
    for (const char *key :
         {"\"schema\":\"polymage-tune-v1\"", "\"mode\":\"exhaustive\"",
          "\"builds\"", "\"best_index\"", "\"entries\"", "\"tiles\"",
          "\"overlap_threshold\"", "\"t1_seconds\"", "\"tp_seconds\"",
          "\"groups\""}) {
        EXPECT_NE(j.find(key), std::string::npos) << key;
    }
}

} // namespace
} // namespace polymage::tune
