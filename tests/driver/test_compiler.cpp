#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <set>

#include "apps/apps.hpp"
#include "common/test_pipelines.hpp"
#include "driver/compiler.hpp"
#include "runtime/executor.hpp"
#include "runtime/synth.hpp"

namespace polymage {
namespace {

using namespace dsl;

TEST(Driver, OptionFactoriesMatchPaperVariants)
{
    auto opt = CompileOptions::optimized();
    EXPECT_TRUE(opt.grouping.enable);
    EXPECT_TRUE(opt.grouping.autoTile);
    EXPECT_TRUE(opt.codegen.storageOpt);
    EXPECT_EQ(opt.codegen.vectorize, cg::VectorizeMode::Explicit);

    auto novec = CompileOptions::optNoVec();
    EXPECT_TRUE(novec.grouping.enable);
    EXPECT_EQ(novec.codegen.vectorize, cg::VectorizeMode::Off);

    // base turns off only the opt axis; inlining always runs (§4).
    auto base = CompileOptions::baseline(true);
    EXPECT_FALSE(base.grouping.enable);
    EXPECT_TRUE(base.codegen.storageOpt);
    EXPECT_EQ(base.codegen.vectorize, cg::VectorizeMode::Explicit);
    EXPECT_EQ(CompileOptions::baseline(false).codegen.vectorize,
              cg::VectorizeMode::Off);
}

TEST(Driver, BadTileOptionsThrowSpecError)
{
    // Each would otherwise reach the generated code: a zero tile size
    // divides by zero there, a negative one tiles backwards, and an
    // empty list has no size for the first tiled dimension.
    const dsl::PipelineSpec spec = apps::buildUnsharpMask(64, 64);
    using Bad = void (*)(core::GroupingOptions &);
    const std::pair<const char *, Bad> cases[] = {
        {"empty", [](core::GroupingOptions &g) { g.tileSizes = {}; }},
        {"zero", [](core::GroupingOptions &g) { g.tileSizes = {0, 0}; }},
        {"negative",
         [](core::GroupingOptions &g) { g.tileSizes = {-8, -8}; }},
        {"one of two", [](core::GroupingOptions &g) { g.tileSizes = {32, 0}; }},
        {"negative threshold",
         [](core::GroupingOptions &g) { g.overlapThreshold = -0.1; }},
        {"NaN threshold",
         [](core::GroupingOptions &g) {
             g.overlapThreshold = std::numeric_limits<double>::quiet_NaN();
         }},
        {"infinite threshold",
         [](core::GroupingOptions &g) {
             g.overlapThreshold = std::numeric_limits<double>::infinity();
         }},
    };
    for (bool auto_tile : {false, true}) {
        for (const auto &[what, bad] : cases) {
            SCOPED_TRACE(std::string(what) +
                         (auto_tile ? " (autoTile)" : ""));
            CompileOptions o = CompileOptions::optimized();
            o.grouping.autoTile = auto_tile;
            bad(o.grouping);
            EXPECT_THROW(compilePipeline(spec, o), SpecError);
            EXPECT_THROW(rt::Executable::build(spec, o), SpecError);
        }
    }
    // The smallest valid values still compile.
    CompileOptions ok = CompileOptions::optimized();
    ok.grouping.autoTile = false;
    ok.grouping.tileSizes = {1};
    ok.grouping.overlapThreshold = 0;
    EXPECT_NO_THROW(compilePipeline(spec, ok));
}

TEST(Driver, InvalidSpecFailsBeforeCodegen)
{
    // Out-of-bounds access caught by the static checker.
    Parameter R("R");
    Variable x("x");
    Image I("I", DType::Float, {Expr(R)});
    Function f("f", {x}, {Interval(Expr(0), Expr(R) - 1)}, DType::Float);
    f.define(I(Expr(x) + 5));
    PipelineSpec spec("oob");
    spec.addOutput(f);
    spec.estimate(R, 64);
    EXPECT_THROW(compilePipeline(spec), SpecError);
}

TEST(Driver, BoundsErrorsReportUserStageNames)
{
    // The pre-inlining check reports against the user's own stages.
    Parameter R("R");
    Variable x("x");
    Image I("I", DType::Float, {Expr(R)});
    Function pw("pointwise_helper", {x},
                {Interval(Expr(0), Expr(R) - 1)}, DType::Float);
    pw.define(I(Expr(x)) * Expr(2.0));
    Function bad("bad_consumer", {x},
                 {Interval(Expr(0), Expr(R) - 1)}, DType::Float);
    bad.define(pw(Expr(x) + 3));
    PipelineSpec spec("named");
    spec.addOutput(bad);
    spec.estimate(R, 64);
    try {
        compilePipeline(spec);
        FAIL() << "expected SpecError";
    } catch (const SpecError &e) {
        EXPECT_NE(std::string(e.what()).find("bad_consumer"),
                  std::string::npos);
    }
}

TEST(Driver, ReportListsAllPhases)
{
    auto c = compilePipeline(apps::buildHarris(512, 512));
    const std::string rep = c.report();
    for (const char *needle :
         {"pipeline harris", "inlined", "grouping", "scratchpad",
          "full"}) {
        EXPECT_NE(rep.find(needle), std::string::npos) << needle;
    }
}

TEST(Driver, CompileTraceCoversEveryPhase)
{
    auto c = compilePipeline(apps::buildHarris(512, 512));
    std::set<std::string> names;
    for (const auto &s : c.trace) {
        names.insert(s.name);
        EXPECT_GE(s.durationNs, 0) << s.name << " left open";
    }
    for (const char *phase :
         {"graph_build", "inline", "bounds_check", "tile_model",
          "grouping", "schedule", "align_scale", "storage",
          "codegen"}) {
        EXPECT_TRUE(names.count(phase)) << "missing span " << phase;
    }
    // The trace round-trips through the v1 JSON schema.
    const auto parsed = obs::spansFromJson(c.traceJson());
    ASSERT_EQ(parsed.size(), c.trace.size());
    for (std::size_t i = 0; i < parsed.size(); ++i) {
        EXPECT_EQ(parsed[i].name, c.trace[i].name);
        EXPECT_EQ(parsed[i].durationNs, c.trace[i].durationNs);
    }
}

TEST(Driver, CompilationIsFast)
{
    // §3.8 relies on cheap recompilation: the compiler itself (without
    // the system C++ compiler) must run in milliseconds even for the
    // largest pipeline.
    const auto t0 = std::chrono::steady_clock::now();
    auto c = compilePipeline(apps::buildLocalLaplacian(2560, 1536, 4, 8));
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    EXPECT_FALSE(c.code.source.empty());
    EXPECT_LT(dt, 5.0);
}

TEST(Driver, TileModelRunsOnlyWhenRequested)
{
    // optimized() opts in to the model; the decision and the grouping
    // options actually used are recorded on the compiled pipeline.
    auto c = compilePipeline(apps::buildHarris(2048, 2048),
                             CompileOptions::optimized());
    EXPECT_TRUE(c.tileModel.applied) << c.tileModel.reason;
    EXPECT_EQ(c.effectiveGrouping.tileSizes, c.tileModel.tileSizes);
    EXPECT_DOUBLE_EQ(c.effectiveGrouping.overlapThreshold,
                     c.tileModel.overlapThreshold);
    EXPECT_GT(c.tileModel.workingSetBytes, 0);

    // Explicit (default-constructed) options keep the historical
    // fixed configuration -- autoTile is an optimized()-only opt-in.
    auto fixed = compilePipeline(apps::buildHarris(2048, 2048),
                                 CompileOptions{});
    EXPECT_FALSE(fixed.tileModel.applied);
    EXPECT_EQ(fixed.tileModel.reason, "auto tiling not requested");
    EXPECT_EQ(fixed.effectiveGrouping.tileSizes,
              (std::vector<std::int64_t>{32, 256}));
    EXPECT_DOUBLE_EQ(fixed.effectiveGrouping.overlapThreshold, 0.4);
}

TEST(Driver, ExecutorValidatesArguments)
{
    auto t = testing::makePointwise(32);
    rt::Executable exe = rt::Executable::build(t.spec);
    rt::Buffer good(DType::Float, {32, 32});
    rt::Buffer wrong_shape(DType::Float, {16, 16});
    rt::Buffer wrong_type(DType::Double, {32, 32});

    EXPECT_NO_THROW(exe.run({32, 32}, {&good}));
    EXPECT_THROW(exe.run({32}, {&good}), SpecError);
    EXPECT_THROW(exe.run({32, 32}, {}), SpecError);
    EXPECT_THROW(exe.run({32, 32}, {&wrong_shape}), SpecError);
    EXPECT_THROW(exe.run({32, 32}, {&wrong_type}), SpecError);
}

TEST(Driver, ProfileValidatesArguments)
{
    // Every build profiles through its task entry, and checks the call
    // as run() does.
    auto t = testing::makePointwise(32);
    rt::Executable exe = rt::Executable::build(t.spec);
    rt::Buffer in(DType::Float, {32, 32});
    EXPECT_FALSE(exe.profile({32, 32}, {&in}).costs.empty());
    rt::Buffer wrong(DType::Float, {16, 32});
    EXPECT_THROW(exe.profile({32, 32}, {&wrong}), SpecError);
    EXPECT_THROW(exe.profile({32}, {&in}), SpecError);
}

TEST(Driver, OutputShapesMatchDomains)
{
    auto spec = apps::buildHarris(128, 96);
    rt::Executable exe = rt::Executable::build(spec);
    auto shapes = exe.outputShapes({128, 96});
    ASSERT_EQ(shapes.size(), 1u);
    EXPECT_EQ(shapes[0], (std::vector<std::int64_t>{130, 98}));
}

} // namespace
} // namespace polymage
