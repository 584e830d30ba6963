/**
 * @file
 * Integration tests for the seven paper benchmarks (plus histogram
 * equalisation): each application is compiled through the full
 * optimising stack and compared against the reference interpreter on
 * synthetic inputs, and its grouping structure is checked against the
 * paper's description (§4, Fig. 8).
 */
#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "core/stream_plan.hpp"
#include "interp/interpreter.hpp"
#include "runtime/executor.hpp"
#include "runtime/synth.hpp"

namespace polymage::apps {
namespace {

using rt::Buffer;

/**
 * Compile (optimised), run, and compare against the interpreter.
 * Every app is checked twice: with the default storage mapping, and
 * with every scratchpad forced onto heap arenas
 * (maxStackScratchBytes = 0) so the hoisted-arena code path gets the
 * same bit-exactness guarantee as the stack path.
 */
void
checkApp(const dsl::PipelineSpec &spec,
         const std::vector<std::int64_t> &params,
         const std::vector<const Buffer *> &inputs, double tol)
{
    auto g = pg::PipelineGraph::build(spec);
    auto ref = interp::evaluate(g, params, inputs);

    CompileOptions heap;
    heap.codegen.maxStackScratchBytes = 0;
    const CompileOptions variants[] = {CompileOptions::optimized(),
                                       heap};
    for (const CompileOptions &opts : variants) {
        rt::Executable exe = rt::Executable::build(spec, opts);
        auto outs = exe.run(params, inputs);
        ASSERT_EQ(outs.size(), ref.outputs.size());
        for (std::size_t i = 0; i < outs.size(); ++i) {
            ASSERT_EQ(outs[i].dims(), ref.outputs[i].dims());
            EXPECT_LE(outs[i].maxAbsDiff(ref.outputs[i]), tol)
                << "output " << i
                << (opts.codegen.maxStackScratchBytes == 0
                        ? " (forced heap scratch)"
                        : "");
        }
    }
}

TEST(Apps, UnsharpMask)
{
    const std::int64_t n = 40;
    auto spec = buildUnsharpMask(n, n);
    Buffer in = rt::synth::photoRgb(n + 4, n + 4);
    checkApp(spec, {n, n}, {&in}, 1e-4);

    // Structure: blur stages fuse; sharpen/masked inline.
    auto c = compilePipeline(buildUnsharpMask(2048, 2048));
    EXPECT_EQ(c.graph.stages().size(), 3u); // blury, blurx, masked
    EXPECT_EQ(c.grouping.groups.size(), 1u);
}

TEST(Apps, BilateralGrid)
{
    const std::int64_t n = 64;
    auto spec = buildBilateralGrid(n, n);
    Buffer in = rt::synth::photo(n, n);
    checkApp(spec, {n, n}, {&in}, 1e-4);

    // Structure (paper §4): the two reduction stages stay separate;
    // the stencil and slicing stages fuse into one group.  The fusion
    // needs a wide-enough x tile (the slice-to-grid dependence spans
    // 8 cells per side in pixel coordinates); the autotuner finds such
    // configurations, here we pass one directly.
    CompileOptions opts;
    opts.grouping.tileSizes = {128, 256};
    auto c = compilePipeline(buildBilateralGrid(2560, 1536), opts);
    EXPECT_EQ(c.grouping.groups.size(), 3u);
    std::size_t biggest = 0;
    for (const auto &grp : c.grouping.groups)
        biggest = std::max(biggest, grp.stages.size());
    EXPECT_EQ(biggest, 4u); // blurz, blurx, blury, slice

    // Correctness under the fused configuration too.
    rt::Executable exe =
        rt::Executable::build(buildBilateralGrid(n, n), opts);
    auto g2 = pg::PipelineGraph::build(spec);
    auto ref2 = interp::evaluate(g2, {n, n}, {&in});
    auto outs2 = exe.run({n, n}, {&in});
    EXPECT_LE(outs2[0].maxAbsDiff(ref2.outputs[0]), 1e-4);
}

TEST(Apps, CameraPipeline)
{
    const std::int64_t rows = 48, cols = 64;
    auto spec = buildCameraPipeline(rows, cols);
    Buffer raw = rt::synth::bayerRaw(rows + 4, cols + 4);
    checkApp(spec, {rows, cols}, {&raw}, 1.0); // UChar: 1 step slack

    // Structure (paper §4): everything except the LUT in one group.
    // Pinned to the fixed configuration -- under optimized() the tile
    // cost model picks a machine-dependent threshold that may split
    // the pipeline further for speed.
    auto c = compilePipeline(buildCameraPipeline(2528, 1920),
                             CompileOptions{});
    ASSERT_EQ(c.grouping.groups.size(), 2u);
    std::size_t lut_group = 0, big_group = 0;
    for (const auto &grp : c.grouping.groups) {
        if (grp.stages.size() == 1)
            ++lut_group;
        else
            big_group = grp.stages.size();
    }
    EXPECT_EQ(lut_group, 1u);
    EXPECT_GE(big_group, 15u);
}

TEST(Apps, PyramidBlend)
{
    const std::int64_t n = 64;
    const int levels = 4;
    auto spec = buildPyramidBlend(n, n, levels);
    Buffer a = rt::synth::photo(n, n, 1);
    Buffer b = rt::synth::photo(n, n, 2);
    Buffer m = rt::synth::blendMask(n, n);
    checkApp(spec, pyramidParams(n, n, levels), {&a, &b, &m}, 1e-3);

    // Structure (Fig. 8): several multi-stage groups, not one giant
    // group and not all singletons.
    auto c = compilePipeline(buildPyramidBlend(2048, 2048, levels));
    EXPECT_GT(c.grouping.mergeCount, 3);
    EXPECT_GT(c.grouping.groups.size(), 1u);
    EXPECT_LT(c.grouping.groups.size(), c.graph.stages().size());
}

TEST(Apps, MultiscaleInterp)
{
    const std::int64_t n = 64;
    const int levels = 4;
    auto spec = buildMultiscaleInterp(n, n, levels);
    Buffer in = rt::synth::sparseAlpha(n, n, 0.1);
    checkApp(spec, pyramidParams(n, n, levels), {&in}, 1e-3);
}

TEST(Apps, LocalLaplacian)
{
    const std::int64_t n = 64;
    const int levels = 3, k = 4;
    auto spec = buildLocalLaplacian(n, n, levels, k);
    Buffer in = rt::synth::photo(n, n);
    checkApp(spec, pyramidParams(n, n, levels), {&in}, 1e-3);
}

TEST(Apps, HistogramEq)
{
    const std::int64_t n = 48;
    auto spec = buildHistogramEq(n, n);
    Buffer in = rt::synth::photoU8(n, n);
    checkApp(spec, {n, n}, {&in}, 0);
}

TEST(Apps, TemporalDenoise)
{
    // Streaming app: the equality sweep runs on the lowered
    // single-frame form (taps become ordinary inputs, the blury
    // feedback becomes a synthetic second output); the frame-by-frame
    // session semantics are covered in tests/runtime/test_stream.cpp.
    const std::int64_t n = 40;
    auto sl = core::lowerStream(buildTemporalDenoise(n, n));
    Buffer cur = rt::synth::photo(n + 2, n + 2);
    Buffer t1 = rt::synth::photo(n + 2, n + 2, 7);
    Buffer t2 = rt::synth::photo(n + 2, n + 2, 13);
    Buffer blur1 = rt::synth::photo(n + 2, n + 2, 21);
    Buffer den1 = rt::synth::photo(n + 2, n + 2, 34);
    checkApp(sl.spec, {n, n}, {&cur, &t1, &t2, &blur1, &den1}, 1e-4);

    // Structure: blurx/blury fuse; denoised stays a live-out.
    auto c = compilePipeline(buildTemporalDenoise(720, 1280));
    EXPECT_EQ(c.graph.stages().size(), 3u);
}

TEST(Apps, HarrisBaselineVariantsAgree)
{
    // The paper's four PolyMage variants must agree bit-tolerantly.
    const std::int64_t n = 40;
    auto spec = buildHarris(n, n);
    Buffer in = rt::synth::photo(n + 2, n + 2);
    auto ref = rt::Executable::build(spec, CompileOptions::baseline(
                                               false))
                   .run({n, n}, {&in});
    for (auto opts : {CompileOptions::baseline(true),
                      CompileOptions::optNoVec(),
                      CompileOptions::optimized()}) {
        auto outs = rt::Executable::build(spec, opts).run({n, n}, {&in});
        EXPECT_LE(outs[0].maxAbsDiff(ref[0]), 1e-3);
    }
}

TEST(Apps, CodegenVariantsMatchInterpreter)
{
    // The partitioning and vectorisation ablations must be bit-tolerant
    // against the interpreter for real apps, not just the synthetic
    // boundary pipelines.  The default build is covered by the per-app
    // tests above.
    struct Variant
    {
        const char *name;
        CompileOptions opts;
    };
    Variant variants[] = {{"no-partition", CompileOptions::optimized()},
                          {"vec-off", CompileOptions::optimized()}};
    variants[0].opts.codegen.partition = false;
    // Scalar code must agree with the interpreter on every app -- exact
    // for the integer apps (camera's tolerance covers its gamma LUT
    // quantisation, not vector drift), epsilon for the float pyramids.
    variants[1].opts.codegen.vectorize = cg::VectorizeMode::Off;

    const std::int64_t n = 40;
    struct App
    {
        const char *name;
        dsl::PipelineSpec spec;
        std::vector<std::int64_t> params;
        std::vector<Buffer> ins;
        double tol;
    };
    App apps[] = {
        {"harris", buildHarris(n, n), {n, n},
         {rt::synth::photo(n + 2, n + 2)}, 1e-3},
        {"unsharp", buildUnsharpMask(n, n), {n, n},
         {rt::synth::photoRgb(n + 4, n + 4)}, 1e-4},
        {"bilateral", buildBilateralGrid(64, 64), {64, 64},
         {rt::synth::photo(64, 64)}, 1e-4},
        {"camera", buildCameraPipeline(48, 64), {48, 64},
         {rt::synth::bayerRaw(52, 68)}, 1.0},
        {"pyramid", buildPyramidBlend(64, 64, 3),
         pyramidParams(64, 64, 3),
         {rt::synth::photo(64, 64, 1), rt::synth::photo(64, 64, 2),
          rt::synth::blendMask(64, 64)}, 1e-3},
        {"multiscale", buildMultiscaleInterp(64, 64, 3),
         pyramidParams(64, 64, 3),
         {rt::synth::sparseAlpha(64, 64, 0.1)}, 1e-3},
        {"laplacian", buildLocalLaplacian(64, 64, 3, 4),
         pyramidParams(64, 64, 3),
         {rt::synth::photo(64, 64)}, 1e-3},
    };
    for (App &a : apps) {
        SCOPED_TRACE(a.name);
        std::vector<const Buffer *> ins;
        for (const Buffer &b : a.ins)
            ins.push_back(&b);
        auto g = pg::PipelineGraph::build(a.spec);
        auto ref = interp::evaluate(g, a.params, ins);
        for (const Variant &v : variants) {
            SCOPED_TRACE(v.name);
            auto outs =
                rt::Executable::build(a.spec, v.opts).run(a.params, ins);
            ASSERT_EQ(outs.size(), ref.outputs.size());
            for (std::size_t i = 0; i < outs.size(); ++i)
                EXPECT_LE(outs[i].maxAbsDiff(ref.outputs[i]), a.tol);
        }
    }
}

TEST(Apps, ModelChosenConfigMatchesInterpreter)
{
    // The tile cost model only engages for realistically sized
    // estimates, so build every app at its paper-scale estimates (the
    // model sizes tiles from those) and run at small sizes against the
    // interpreter -- generated code is valid for all runtime sizes.
    const std::int64_t n = 64;
    struct App
    {
        const char *name;
        dsl::PipelineSpec spec;
        std::vector<std::int64_t> params;
        std::vector<Buffer> ins;
        double tol;
    };
    App apps[] = {
        {"harris", buildHarris(2048, 2048), {n, n},
         {rt::synth::photo(n + 2, n + 2)}, 1e-3},
        {"unsharp", buildUnsharpMask(2048, 2048), {n, n},
         {rt::synth::photoRgb(n + 4, n + 4)}, 1e-4},
        {"bilateral", buildBilateralGrid(2560, 1536), {n, n},
         {rt::synth::photo(n, n)}, 1e-4},
        {"camera", buildCameraPipeline(2528, 1920), {n, n},
         {rt::synth::bayerRaw(n + 4, n + 4)}, 1.0},
        {"pyramid", buildPyramidBlend(2048, 2048, 3),
         pyramidParams(n, n, 3),
         {rt::synth::photo(n, n, 1), rt::synth::photo(n, n, 2),
          rt::synth::blendMask(n, n)}, 1e-3},
        {"multiscale", buildMultiscaleInterp(2560, 1536, 3),
         pyramidParams(n, n, 3),
         {rt::synth::sparseAlpha(n, n, 0.1)}, 1e-3},
        {"laplacian", buildLocalLaplacian(2560, 1536, 3, 4),
         pyramidParams(n, n, 3),
         {rt::synth::photo(n, n)}, 1e-3},
    };
    bool any_applied = false;
    for (App &a : apps) {
        SCOPED_TRACE(a.name);
        std::vector<const Buffer *> ins;
        for (const Buffer &b : a.ins)
            ins.push_back(&b);
        rt::Executable exe =
            rt::Executable::build(a.spec, CompileOptions::optimized());
        any_applied |= exe.info().tileModel.applied;
        auto g = pg::PipelineGraph::build(a.spec);
        auto ref = interp::evaluate(g, a.params, ins);
        auto outs = exe.run(a.params, ins);
        ASSERT_EQ(outs.size(), ref.outputs.size());
        for (std::size_t i = 0; i < outs.size(); ++i)
            EXPECT_LE(outs[i].maxAbsDiff(ref.outputs[i]), a.tol);
    }
    // The model must have actually engaged somewhere (it may
    // legitimately decline individual apps, e.g. untiled reductions).
    EXPECT_TRUE(any_applied);
}

TEST(Apps, StageCountsMatchDesign)
{
    // Rough pipeline sizes (stage counts before inlining) tracked so
    // structural regressions are caught.
    EXPECT_EQ(pg::PipelineGraph::build(buildHarris(64, 64)).stages()
                  .size(),
              11u);
    EXPECT_EQ(pg::PipelineGraph::build(buildUnsharpMask(64, 64))
                  .stages()
                  .size(),
              4u);
    EXPECT_EQ(pg::PipelineGraph::build(buildBilateralGrid(64, 64))
                  .stages()
                  .size(),
              7u);
    EXPECT_GE(pg::PipelineGraph::build(buildCameraPipeline(64, 64))
                  .stages()
                  .size(),
              18u);
    EXPECT_GE(pg::PipelineGraph::build(buildPyramidBlend(256, 256, 4))
                  .stages()
                  .size(),
              30u);
    EXPECT_GE(
        pg::PipelineGraph::build(buildMultiscaleInterp(2560, 1536, 10))
            .stages()
            .size(),
        40u);
    EXPECT_GE(
        pg::PipelineGraph::build(buildLocalLaplacian(256, 256, 4, 8))
            .stages()
            .size(),
        25u);
}

} // namespace
} // namespace polymage::apps
