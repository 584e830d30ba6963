/**
 * @file
 * Serving across shapes (docs/SHAPES.md): one compiled variant
 * built with CompileOptions::optimized() answers many input shapes
 * interpreter-equal, the registry keys variants by interface (not
 * estimates) so a second shape is a cache *hit*, and the tiered
 * engine answers cold requests from the reference interpreter while
 * the variant JIT-compiles, promoting later requests to tier 2.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "apps/apps.hpp"
#include "common/test_pipelines.hpp"
#include "core/grouping.hpp"
#include "interp/interpreter.hpp"
#include "pipeline/graph.hpp"
#include "runtime/synth.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"

namespace polymage::serve {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<const rt::Buffer>
own(const rt::Buffer &b)
{
    return std::make_shared<rt::Buffer>(b);
}

/** Assert the compiled outputs match an interpreter run. */
void
expectMatchesInterp(const dsl::PipelineSpec &spec,
                    const std::vector<std::int64_t> &params,
                    const std::vector<const rt::Buffer *> &ins,
                    const std::vector<rt::Buffer> &outs, double tol,
                    const std::string &what)
{
    auto g = pg::PipelineGraph::build(spec);
    auto ref = interp::evaluate(g, params, ins);
    ASSERT_EQ(outs.size(), ref.outputs.size()) << what;
    for (std::size_t i = 0; i < outs.size(); ++i)
        EXPECT_LE(outs[i].maxAbsDiff(ref.outputs[i]), tol)
            << what << " output " << i;
}

TEST(Shapes, OneVariantMatchesInterpreterAcrossShapes)
{
    // One optimized() build per tiny pipeline; estimates stay at 32
    // while the shapes range both below and above them.
    const std::vector<std::pair<std::int64_t, std::int64_t>> shapes = {
        {16, 16}, {32, 32}, {48, 40}};

    auto pw = testing::makePointwise(32);
    rt::Executable pwExe =
        rt::Executable::build(pw.spec, CompileOptions::optimized());
    auto blur = testing::makeBlurChain(32);
    rt::Executable blurExe =
        rt::Executable::build(blur.spec, CompileOptions::optimized());

    for (const auto &[r, c] : shapes) {
        rt::Buffer in = rt::synth::photo(r, c);
        auto pwOuts = pwExe.run({r, c}, {&in});
        expectMatchesInterp(pw.spec, {r, c}, {&in}, pwOuts, 1e-6,
                            "pointwise");
        auto blurOuts = blurExe.run({r, c}, {&in});
        expectMatchesInterp(blur.spec, {r, c}, {&in}, blurOuts, 1e-5,
                            "blur_chain");
    }
}

TEST(Shapes, PaperAppsServeThreeShapesFromOneVariant)
{
    const double tol = 1e-4;

    // Unsharp mask: 3-channel input of 3 x (R+4) x (C+4).
    {
        dsl::PipelineSpec spec = apps::buildUnsharpMask(40, 40);
        rt::Executable exe =
            rt::Executable::build(spec, CompileOptions::optimized());
        for (const auto &[r, c] :
             std::vector<std::pair<std::int64_t, std::int64_t>>{
                 {24, 24}, {40, 40}, {56, 48}}) {
            rt::Buffer in = rt::synth::photoRgb(r + 4, c + 4);
            auto outs = exe.run({r, c}, {&in});
            expectMatchesInterp(spec, {r, c}, {&in}, outs, tol,
                                "unsharp");
        }
    }

    // Harris corners: input of (R+2) x (C+2).  At the 64 x 64
    // estimate the stages fuse and fixed 16 x 16 tiles tile both
    // spatial dims, so the shapes run from below one tile in both
    // tiled dims (domain-clamped tiles) to more than 4x the estimate
    // (more tiles of the same size).
    {
        dsl::PipelineSpec spec = apps::buildHarris(64, 64);
        CompileOptions o = CompileOptions::optimized();
        o.grouping.autoTile = false;
        o.grouping.tileSizes = {16, 16};
        rt::Executable exe = rt::Executable::build(spec, o);
        const CompiledPipeline &info = exe.info();
        std::size_t tiled = 0;
        for (const auto &grp : info.grouping.groups) {
            if (grp.stages.size() > 1) {
                tiled = std::max(tiled, core::tiledDimsFor(
                                            grp, info.graph,
                                            info.effectiveGrouping)
                                            .size());
            }
        }
        ASSERT_EQ(tiled, 2u) << "harris must tile both spatial dims";
        for (const auto &[r, c] :
             std::vector<std::pair<std::int64_t, std::int64_t>>{
                 {8, 12}, {16, 24}, {32, 32}, {48, 40}, {264, 272}}) {
            rt::Buffer in = rt::synth::photo(r + 2, c + 2);
            auto outs = exe.run({r, c}, {&in});
            expectMatchesInterp(spec, {r, c}, {&in}, outs, tol,
                                "harris");
        }
    }

    // Bilateral grid: input of R x C.
    {
        dsl::PipelineSpec spec = apps::buildBilateralGrid(64, 64);
        rt::Executable exe =
            rt::Executable::build(spec, CompileOptions::optimized());
        for (const auto &[r, c] :
             std::vector<std::pair<std::int64_t, std::int64_t>>{
                 {32, 32}, {48, 48}, {64, 64}}) {
            rt::Buffer in = rt::synth::photo(r, c);
            auto outs = exe.run({r, c}, {&in});
            expectMatchesInterp(spec, {r, c}, {&in}, outs, tol,
                                "bilateral");
        }
    }
}

TEST(Shapes, InterfaceFingerprintIgnoresEstimatesAndAddresses)
{
    // Two independently-built specs of the same source differ in
    // every entity address and in their estimates; the interface
    // fingerprint must not see either.
    const std::uint64_t a =
        specInterfaceFingerprint(testing::makePointwise(16).spec);
    const std::uint64_t b =
        specInterfaceFingerprint(testing::makePointwise(64).spec);
    EXPECT_EQ(a, b);

    const std::uint64_t blur =
        specInterfaceFingerprint(testing::makeBlurChain(16).spec);
    EXPECT_NE(a, blur);
}

TEST(Shapes, RegistrySecondShapeIsACacheHit)
{
    auto t = testing::makeBlurChain(32);
    PipelineRegistry reg;
    reg.add("blur", t.spec, CompileOptions::optimized());

    rt::Buffer small = rt::synth::photo(16, 16);
    auto exe = reg.get("blur");
    auto outsSmall = exe->run({16, 16}, {&small});
    expectMatchesInterp(t.spec, {16, 16}, {&small}, outsSmall, 1e-5,
                        "blur 16x16");

    // A different (larger-than-estimate) shape reuses the same
    // variant entry: no second compile, a pure cache hit.
    rt::Buffer large = rt::synth::photo(48, 40);
    auto again = reg.get("blur");
    EXPECT_EQ(again.get(), exe.get());
    auto outsLarge = again->run({48, 40}, {&large});
    expectMatchesInterp(t.spec, {48, 40}, {&large}, outsLarge, 1e-5,
                        "blur 48x40");

    EXPECT_EQ(reg.variantCount(), 1u);
    const RegistryStats s = reg.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
}

TEST(Tiered, RegistryGetTieredAnswersWithGraphThenVariant)
{
    RegistryOptions ropts;
    ropts.jit.cache = false; // force a macroscopic compile
    PipelineRegistry reg(ropts);
    const std::int64_t n = 24;
    auto t = testing::makePointwise(n);
    reg.add("pw", t.spec, CompileOptions::optimized());

    // Cold: no variant yet -- tier 1 with the cached graph, and this
    // lookup starts the background compile.
    auto first = reg.getTiered("pw");
    EXPECT_EQ(first.exe, nullptr);
    ASSERT_NE(first.graph, nullptr);
    EXPECT_TRUE(first.compileStarted);

    rt::Buffer in = rt::synth::photo(n, n);
    auto ev = interp::evaluate(*first.graph, {n, n}, {&in});
    ASSERT_EQ(ev.outputs.size(), 1u);

    // Poll until the background compile promotes the entry.
    const auto deadline = std::chrono::steady_clock::now() + 120s;
    PipelineRegistry::TieredResult ready;
    for (;;) {
        ready = reg.getTiered("pw");
        EXPECT_FALSE(ready.compileStarted); // only the first starts it
        if (ready.exe != nullptr)
            break;
        ASSERT_NE(ready.graph, nullptr);
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "variant did not become ready within 120s";
        std::this_thread::sleep_for(5ms);
    }
    auto outs = ready.exe->run({n, n}, {&in});
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_LE(outs[0].maxAbsDiff(ev.outputs[0]), 1e-6);
    EXPECT_EQ(reg.variantCount(), 1u);
}

TEST(Tiered, EngineServesFirstRequestFromInterpreterThenPromotes)
{
    RegistryOptions ropts;
    ropts.jit.cache = false; // the compile must outlive request one
    auto registry = std::make_shared<PipelineRegistry>(ropts);
    const std::int64_t n = 24;
    auto t = testing::makePointwise(n);
    registry->add("pw", t.spec, CompileOptions::optimized());

    EngineOptions eopts;
    eopts.workers = 1;
    ASSERT_TRUE(eopts.tiered); // tiered is the default
    Engine engine(registry, eopts);

    rt::Buffer in = rt::synth::photo(n, n);
    auto g = pg::PipelineGraph::build(t.spec);
    auto ref = interp::evaluate(g, {n, n}, {&in});

    Request req;
    req.pipeline = "pw";
    req.params = {n, n};
    req.inputs = {own(in)};

    // The first response comes from the interpreter: the JIT g++ run
    // is still in flight when the worker answers.
    Response first = engine.submit(req).get();
    ASSERT_TRUE(first.ok()) << first.error;
    EXPECT_EQ(first.tier, 1);
    ASSERT_EQ(first.outputs.size(), 1u);
    EXPECT_LE(first.outputs[0].maxAbsDiff(ref.outputs[0]), 1e-6);

    // Keep submitting; once the background compile lands, responses
    // flip to the compiled tier.
    const auto deadline = std::chrono::steady_clock::now() + 120s;
    Response r;
    do {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "no promotion to tier 2 within 120s";
        r = engine.submit(req).get();
        ASSERT_TRUE(r.ok()) << r.error;
    } while (r.tier != 2);
    ASSERT_EQ(r.outputs.size(), 1u);
    EXPECT_LE(r.outputs[0].maxAbsDiff(ref.outputs[0]), 1e-6);

    const ServeSnapshot s = engine.metrics();
    EXPECT_TRUE(s.tiered);
    EXPECT_GE(s.interpServed, 1u);
    EXPECT_GE(s.compiledServed, 1u);
    EXPECT_EQ(s.promotions, 1u);
    EXPECT_EQ(s.promotion.count, 1u);
    EXPECT_GT(s.promotion.maxSeconds, 0.0);
}

TEST(Tiered, InterpreterTierMatchesSerialEvaluateBitwise)
{
    // The interpreter tier splits each stage into bands on the engine's
    // scheduler; its answer is the serial evaluation's, bit for bit.
    const std::int64_t n = 64;
    const dsl::PipelineSpec spec = apps::buildUnsharpMask(n, n);
    const rt::Buffer in = rt::synth::photoRgb(n + 4, n + 4);
    const auto ref =
        interp::evaluate(pg::PipelineGraph::build(spec), {n, n}, {&in});
    RegistryOptions ropts;
    ropts.jit.cache = false; // the compile must outlive the request
    auto registry = std::make_shared<PipelineRegistry>(ropts);
    registry->add("unsharp", spec);
    Engine engine(registry);

    Request req;
    req.pipeline = "unsharp";
    req.params = {n, n};
    req.inputs = {own(in)};
    Response r = engine.submit(req).get();
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_EQ(r.tier, 1);
    ASSERT_EQ(r.outputs.size(), ref.outputs.size());
    for (std::size_t i = 0; i < r.outputs.size(); ++i) {
        const rt::Buffer &got = r.outputs[i], &want = ref.outputs[i];
        ASSERT_EQ(got.dtype(), want.dtype());
        ASSERT_EQ(got.dims(), want.dims());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              std::size_t(want.bytes())),
                  0)
            << "output " << i;
    }
    EXPECT_GT(engine.metrics().scheduler.tasksExecuted, 0u);
}

} // namespace
} // namespace polymage::serve
