/**
 * @file
 * End-to-end correctness of generated code: every pipeline is
 * compiled through the full stack (inline, group, tile, storage-map,
 * generate, JIT) under several option sets and compared against the
 * reference interpreter.
 */
#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "common/test_pipelines.hpp"
#include "driver/compiler.hpp"
#include "interp/interpreter.hpp"
#include "runtime/executor.hpp"
#include "support/rng.hpp"

namespace polymage::rt {
namespace {

using namespace dsl;

Buffer
randomBuffer(DType t, const std::vector<std::int64_t> &dims,
             std::uint64_t seed)
{
    Buffer b(t, dims);
    Rng rng(seed);
    for (std::int64_t i = 0; i < b.numel(); ++i) {
        if (dtypeIsFloat(t))
            b.storeFromDouble(i, rng.uniformReal(0.0, 1.0));
        else
            b.storeFromDouble(i, double(rng.uniformInt(0, 255)));
    }
    return b;
}

/** Compile+run under opts and compare all outputs to the interpreter. */
void
checkAgainstInterpreter(const PipelineSpec &spec,
                        const std::vector<std::int64_t> &params,
                        const std::vector<const Buffer *> &inputs,
                        const CompileOptions &opts, double tol,
                        const char *label)
{
    SCOPED_TRACE(label);
    auto g = pg::PipelineGraph::build(spec);
    auto ref = interp::evaluate(g, params, inputs);

    Executable exe = Executable::build(spec, opts);
    auto outs = exe.run(params, inputs);
    ASSERT_EQ(outs.size(), ref.outputs.size());
    for (std::size_t i = 0; i < outs.size(); ++i) {
        ASSERT_EQ(outs[i].dims(), ref.outputs[i].dims());
        EXPECT_LE(outs[i].maxAbsDiff(ref.outputs[i]), tol)
            << "output " << i;
    }
}

struct OptCase
{
    const char *name;
    CompileOptions opts;
};

std::vector<OptCase>
standardVariants()
{
    return {
        {"base", CompileOptions::baseline(false)},
        {"base+vec", CompileOptions::baseline(true)},
        {"opt", CompileOptions::optNoVec()},
        {"opt+vec", CompileOptions::optimized()},
    };
}

class ExecVariants : public ::testing::TestWithParam<int>
{
  protected:
    OptCase variant() const { return standardVariants()[GetParam()]; }
};

TEST_P(ExecVariants, Pointwise)
{
    auto t = testing::makePointwise(48);
    Buffer in = randomBuffer(DType::Float, {48, 40}, 1);
    checkAgainstInterpreter(t.spec, {48, 40}, {&in}, variant().opts,
                            1e-5, variant().name);
}

TEST_P(ExecVariants, BlurChain)
{
    auto t = testing::makeBlurChain(64);
    Buffer in = randomBuffer(DType::Float, {64, 56}, 2);
    checkAgainstInterpreter(t.spec, {64, 56}, {&in}, variant().opts,
                            1e-4, variant().name);
}

TEST_P(ExecVariants, Harris)
{
    auto spec = apps::buildHarris(56, 72);
    Buffer in = randomBuffer(DType::Float, {58, 74}, 3);
    checkAgainstInterpreter(spec, {56, 72}, {&in}, variant().opts, 1e-3,
                            variant().name);
}

TEST_P(ExecVariants, Upsample)
{
    auto t = testing::makeUpsample(70);
    Buffer in = randomBuffer(DType::Float, {70}, 4);
    checkAgainstInterpreter(t.spec, {70}, {&in}, variant().opts, 1e-5,
                            variant().name);
}

TEST_P(ExecVariants, Downsample)
{
    auto t = testing::makeDownsample(70);
    Buffer in = randomBuffer(DType::Float, {70}, 5);
    checkAgainstInterpreter(t.spec, {70}, {&in}, variant().opts, 1e-5,
                            variant().name);
}

TEST_P(ExecVariants, Histogram)
{
    auto t = testing::makeHistogram(40);
    Buffer in = randomBuffer(DType::UChar, {40, 40}, 6);
    checkAgainstInterpreter(t.spec, {40, 40}, {&in}, variant().opts, 0,
                            variant().name);
}

TEST_P(ExecVariants, TimeIterated)
{
    auto t = testing::makeTimeIterated(48, 4);
    Buffer in = randomBuffer(DType::Float, {48}, 7);
    checkAgainstInterpreter(t.spec, {48}, {&in}, variant().opts, 1e-4,
                            variant().name);
}

std::string
variantName(const ::testing::TestParamInfo<int> &info)
{
    return std::string(standardVariants()[info.param].name) == "base"
               ? "base"
           : info.param == 1 ? "base_vec"
           : info.param == 2 ? "opt"
                             : "opt_vec";
}

INSTANTIATE_TEST_SUITE_P(AllVariants, ExecVariants,
                         ::testing::Range(0, 4), variantName);

/** Parameter independence: one build runs at many sizes correctly. */
TEST(Exec, GeneratedCodeValidForAllSizes)
{
    auto spec = apps::buildHarris(512, 512); // estimates != run sizes
    Executable exe = Executable::build(spec);
    for (std::int64_t n : {17, 33, 64, 100}) {
        Buffer in = randomBuffer(DType::Float, {n + 2, n + 2},
                                 std::uint64_t(n));
        auto g = pg::PipelineGraph::build(spec);
        auto ref = interp::evaluate(g, {n, n}, {&in});
        auto outs = exe.run({n, n}, {&in});
        EXPECT_LE(outs[0].maxAbsDiff(ref.outputs[0]), 1e-3) << n;
    }
}

/** Tile-size sweep: odd sizes, tiny tiles, giant tiles. */
TEST(Exec, TileSizeSweepStaysCorrect)
{
    auto spec = apps::buildHarris(48, 48);
    Buffer in = randomBuffer(DType::Float, {50, 50}, 11);
    auto g = pg::PipelineGraph::build(spec);
    auto ref = interp::evaluate(g, {48, 48}, {&in});
    for (std::int64_t tile : {8, 13, 32, 128}) {
        CompileOptions opts;
        opts.grouping.tileSizes = {tile, tile};
        Executable exe = Executable::build(spec, opts);
        auto outs = exe.run({48, 48}, {&in});
        EXPECT_LE(outs[0].maxAbsDiff(ref.outputs[0]), 1e-3)
            << "tile " << tile;
    }
}

/** The instrumented entry produces a usable profile. */
TEST(Exec, InstrumentedProfile)
{
    auto spec = apps::buildHarris(64, 64);
    CompileOptions opts;
    opts.codegen.instrument = true;
    Executable exe = Executable::build(spec, opts);
    Buffer in = randomBuffer(DType::Float, {66, 66}, 12);
    TaskProfile prof = exe.profile({64, 64}, {&in});
    EXPECT_FALSE(prof.costs.empty());
    EXPECT_GT(prof.totalSeconds(), 0.0);
    // Instrumented and normal entries compute the same result.
    auto outs = exe.run({64, 64}, {&in});
    auto g = pg::PipelineGraph::build(spec);
    auto ref = interp::evaluate(g, {64, 64}, {&in});
    EXPECT_LE(outs[0].maxAbsDiff(ref.outputs[0]), 1e-3);
}

/** Heap-scratchpad fallback (huge tiles exceed the stack budget). */
TEST(Exec, HeapScratchpads)
{
    auto spec = apps::buildHarris(64, 64);
    CompileOptions opts;
    opts.grouping.tileSizes = {64, 64};
    opts.codegen.maxStackScratchBytes = 1024; // force heap path
    Executable exe = Executable::build(spec, opts);
    Buffer in = randomBuffer(DType::Float, {66, 66}, 13);
    auto g = pg::PipelineGraph::build(spec);
    auto ref = interp::evaluate(g, {64, 64}, {&in});
    auto outs = exe.run({64, 64}, {&in});
    EXPECT_LE(outs[0].maxAbsDiff(ref.outputs[0]), 1e-3);
}

} // namespace
} // namespace polymage::rt

namespace polymage::rt {
namespace {

using namespace dsl;

/**
 * Summed-area table (paper §2: "patterns like ... summed area
 * tables"): a 2-D self-recurrence evaluated sequentially, checked
 * against the closed-form prefix sums through the full JIT path.
 */
TEST(Exec, SummedAreaTable)
{
    Parameter R("R"), C("C");
    Variable x("x"), y("y");
    Image I("I", DType::Float, {Expr(R), Expr(C)});
    Function sat("sat", {x, y},
                 {Interval(Expr(0), Expr(R) - 1),
                  Interval(Expr(0), Expr(C) - 1)},
                 DType::Float);
    Condition corner = (Expr(x) == 0) & (Expr(y) == 0);
    Condition top = (Expr(x) == 0) & (Expr(y) >= 1);
    Condition left = (Expr(x) >= 1) & (Expr(y) == 0);
    Condition inner = (Expr(x) >= 1) & (Expr(y) >= 1);
    sat.define({
        Case(corner, I(x, y)),
        Case(top, I(x, y) + sat(x, Expr(y) - 1)),
        Case(left, I(x, y) + sat(Expr(x) - 1, y)),
        Case(inner, I(x, y) + sat(x, Expr(y) - 1) +
                        sat(Expr(x) - 1, y) -
                        sat(Expr(x) - 1, Expr(y) - 1)),
    });
    PipelineSpec spec("sat");
    spec.addParam(R);
    spec.addParam(C);
    spec.addInput(I);
    spec.addOutput(sat);
    spec.estimate(R, 32);
    spec.estimate(C, 32);

    const std::int64_t n = 24;
    Buffer in = randomBuffer(DType::Float, {n, n}, 42);
    Executable exe = Executable::build(spec);
    auto outs = exe.run({n, n}, {&in});

    // Identity: sat(i, j) = rowsum(i, 0..j) + sat(i-1, j).
    const float *ip = in.dataAs<const float>();
    const float *op = outs[0].dataAs<const float>();
    for (std::int64_t i = 0; i < n; ++i) {
        double row = 0;
        for (std::int64_t j = 0; j < n; ++j) {
            row += ip[i * n + j];
            double expect = row;
            if (i > 0)
                expect += op[(i - 1) * n + j];
            EXPECT_NEAR(op[i * n + j], expect, 1e-3) << i << "," << j;
        }
    }
}

/** Identical specs generate byte-identical source (determinism). */
TEST(Exec, CodegenIsDeterministic)
{
    auto a = compilePipeline(apps::buildHarris(777, 555));
    auto b = compilePipeline(apps::buildHarris(777, 555));
    // Names embed entity ids only when colliding; the structure and
    // schedule must match exactly.
    EXPECT_EQ(a.code.source, b.code.source);
    EXPECT_EQ(a.grouping.groups.size(), b.grouping.groups.size());
}

/** Occurrences of @p needle in @p hay, non-overlapping. */
int
countOf(const std::string &hay, const std::string &needle)
{
    int n = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

/**
 * Any split of the program places every group function and the entry
 * points in exactly one unit, each unit opening with the prelude.
 */
TEST(Exec, TranslationUnitsPartitionTheProgram)
{
    auto c = compilePipeline(apps::buildPyramidBlend(256, 256, 3),
                             CompileOptions::serving());
    const cg::GeneratedCode &code = c.code;
    ASSERT_GT(code.functions.size(), 4u);
    EXPECT_EQ(code.translationUnits(1),
              std::vector<std::string>{code.source});
    for (int n : {2, 4, 1000}) {
        SCOPED_TRACE(n);
        const std::vector<std::string> units = code.translationUnits(n);
        EXPECT_EQ(units.size(),
                  std::min<std::size_t>(std::size_t(n),
                                        code.functions.size() + 1));
        std::string rest;
        for (const std::string &u : units) {
            ASSERT_EQ(u.rfind(code.prelude, 0), 0u);
            rest += u.substr(code.prelude.size());
        }
        EXPECT_EQ(rest.size(), code.source.size() - code.prelude.size());
        for (const std::string &f : code.functions)
            EXPECT_EQ(countOf(rest, f), 1);
        EXPECT_EQ(countOf(rest, code.entryPoints), 1);
    }
}

/**
 * Units compiled apart link into one module whose entries reach every
 * group: the task entry's phase dispatch crosses units.
 */
TEST(Exec, SplitUnitsLinkIntoOneModule)
{
    auto c = compilePipeline(apps::buildHistogramEq(64, 64),
                             CompileOptions::serving());
    const cg::GeneratedCode &code = c.code;
    const std::vector<std::string> units = code.translationUnits(3);
    ASSERT_EQ(units.size(), 3u);
    JitModule mod = JitModule::compile(units);
    EXPECT_NO_THROW(mod.symbol(code.entry));
    auto task = reinterpret_cast<TaskFn>(mod.symbol(code.taskEntry));
    // Group functions stay internal to the module.
    EXPECT_THROW(mod.symbol(code.entry + "_g0"), InternalError);

    std::vector<long long> params = {64, 64};
    const long long phases =
        task(params.data(), nullptr, nullptr, nullptr, -1, 0, 0);
    EXPECT_EQ(phases, (long long)code.phaseGroup.size());
    for (long long p = 0; p < phases; ++p)
        EXPECT_GT(task(params.data(), nullptr, nullptr, nullptr, p, -1, 0),
                  0)
            << "phase " << p;
}

/**
 * However the serving program is split, the per-thread task arena is
 * defined once per module, in unit 0, and only declared elsewhere: a
 * thread running chunks from every unit still holds one arena.
 */
TEST(Exec, OneTaskArenaPerModule)
{
    auto c = compilePipeline(apps::buildPyramidBlend(256, 256, 3),
                             CompileOptions::serving());
    const std::string def = "pm_task_arena(long long bytes)\n";
    const std::string decl = "pm_task_arena(long long bytes);";
    for (int n : {1, 3, 8}) {
        SCOPED_TRACE(n);
        const std::vector<std::string> units = c.code.translationUnits(n);
        ASSERT_EQ(units.size(), std::size_t(n));
        int defs = 0;
        for (const std::string &u : units) {
            defs += countOf(u, def);
            EXPECT_EQ(countOf(u, decl), 1);
        }
        EXPECT_EQ(defs, 1);
        EXPECT_EQ(countOf(units[0], def), 1);
    }
    // The plain entry has no task arena at all.
    auto plain = compilePipeline(apps::buildPyramidBlend(256, 256, 3),
                                 CompileOptions::optimized());
    EXPECT_EQ(plain.code.source.find("pm_task_arena"), std::string::npos);
}

/**
 * Every libm function the emitter can call, in both float types, plus
 * the infinite identity of a min reduction: the generated code calls
 * GCC builtins and defines INFINITY itself instead of including <cmath>.
 */
TEST(Exec, EveryMathFunctionMatchesInterpreter)
{
    for (DType t : {DType::Float, DType::Double}) {
        auto k = [t](double c) {
            return t == DType::Float ? Expr(float(c)) : Expr(c);
        };
        Parameter R("R"), C("C");
        Image I("I", t, {Expr(R), Expr(C)});
        Variable x("x"), y("y"), b("b");
        const std::vector<Interval> dom = {Interval(Expr(0), Expr(R) - 1),
                                           Interval(Expr(0), Expr(C) - 1)};
        Function out("out", {x, y}, dom, t);
        const Expr v = I(x, y); // in [0, 1)
        out.define(exp(v) + log(v + k(1)) + sqrt(v) + sin(v) + cos(v) +
                   abs(v - k(0.5)) + pow(v + k(1), k(1.5)) +
                   floorE(v * k(4)) + ceilE(v * k(4)) +
                   (v * k(7)) % k(3));
        Accumulator lo("lo", {b}, {Interval(Expr(0), Expr(0))}, {x, y},
                       dom, t);
        lo.accumulate({Expr(0)}, v, ReduceOp::Min);
        PipelineSpec spec(t == DType::Float ? "math_f32" : "math_f64");
        spec.addParam(R);
        spec.addParam(C);
        spec.addInput(I);
        spec.addOutput(out);
        spec.addOutput(lo);
        spec.estimate(R, 48);
        spec.estimate(C, 40);
        Buffer in = randomBuffer(t, {48, 40}, 5);
        checkAgainstInterpreter(spec, {48, 40}, {&in},
                                CompileOptions::optimized(), 1e-4,
                                dtypeName(t));
    }
}

} // namespace
} // namespace polymage::rt
