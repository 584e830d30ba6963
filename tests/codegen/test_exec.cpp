/**
 * @file
 * End-to-end correctness of generated code: every pipeline is
 * compiled through the full stack (inline, group, tile, storage-map,
 * generate, JIT) under several option sets and compared against the
 * reference interpreter.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <regex>

#include "apps/apps.hpp"
#include "common/stage_functions.hpp"
#include "common/test_pipelines.hpp"
#include "driver/compiler.hpp"
#include "interp/interpreter.hpp"
#include "machine/machine.hpp"
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

/**
 * Any build profiles: profile() times the entry task by task, and its
 * outputs are bitwise those of run() on the default scheduler.
 */
TEST(Exec, InstrumentedProfile)
{
    auto spec = apps::buildHarris(64, 64);
    Executable exe = Executable::build(spec);
    Buffer in = randomBuffer(DType::Float, {66, 66}, 12);
    std::vector<Buffer> profiled;
    TaskProfile prof = exe.profile({64, 64}, {&in}, &profiled);
    EXPECT_FALSE(prof.costs.empty());
    EXPECT_GT(prof.totalSeconds(), 0.0);
    auto outs = exe.run({64, 64}, {&in});
    ASSERT_EQ(profiled.size(), outs.size());
    for (std::size_t i = 0; i < outs.size(); ++i) {
        ASSERT_EQ(profiled[i].dims(), outs[i].dims());
        EXPECT_EQ(std::memcmp(profiled[i].data(), outs[i].data(),
                              std::size_t(outs[i].bytes())),
                  0)
            << "output " << i;
    }
    auto g = pg::PipelineGraph::build(spec);
    auto ref = interp::evaluate(g, {64, 64}, {&in});
    EXPECT_LE(outs[0].maxAbsDiff(ref.outputs[0]), 1e-3);
}

/** Scratchpads of whole-image tiles come from the per-thread arena. */
TEST(Exec, HeapScratchpads)
{
    auto spec = apps::buildHarris(64, 64);
    CompileOptions opts;
    opts.grouping.tileSizes = {64, 64};
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
                             CompileOptions::optimized());
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
                             CompileOptions::optimized());
    const cg::GeneratedCode &code = c.code;
    const std::vector<std::string> units = code.translationUnits(3);
    ASSERT_EQ(units.size(), 3u);
    JitModule mod = JitModule::compile(units);
    auto task = reinterpret_cast<TaskFn>(mod.symbol(code.entry));
    // Group functions stay internal to the module.
    EXPECT_THROW(mod.symbol(code.entry + "_g0"), InternalError);

    // Counting reads the parameters only: the pointer tables may hold
    // null buffers.
    std::vector<long long> params = {64, 64};
    std::vector<void *> none(c.storage.slots.size() + 1, nullptr);
    const long long phases = task(params.data(), none.data(), none.data(),
                                  none.data(), -1, 0, 0);
    EXPECT_EQ(phases, (long long)code.phaseGroup.size());
    for (long long p = 0; p < phases; ++p)
        EXPECT_GT(task(params.data(), none.data(), none.data(), none.data(),
                       p, -1, 0),
                  0)
            << "phase " << p;
}

/**
 * However the program is split, the per-thread task arena is
 * defined once per module, in unit 0, and only declared elsewhere: a
 * thread running chunks from every unit still holds one arena.
 */
TEST(Exec, OneTaskArenaPerModule)
{
    auto c = compilePipeline(apps::buildPyramidBlend(256, 256, 3),
                             CompileOptions::optimized());
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
}

/**
 * Every libm function the emitter can call, in both float types, plus
 * the infinite identity of a min reduction: the generated code calls
 * GCC builtins and the transcendentals its prelude declares, and
 * defines INFINITY itself instead of including <cmath>.  Widths are odd
 * so that vectorised loops run both their vector body and their scalar
 * tail.  The transcendentals also run far outside [0, 1): exp into
 * overflow and underflow, log from 0 to 1e30, sin and cos up to 1e4,
 * pow over six decades of positive bases.  Those outputs match the
 * interpreter to a relative 1e-4, and exactly where it gives 0 or an
 * infinity.  Where libmvec exists (x86-64 glibc) the prelude declares
 * the SIMD variants these loops vectorise into, and the module loads.
 */
TEST(Exec, EveryMathFunctionMatchesInterpreter)
{
    for (DType t : {DType::Float, DType::Double}) {
        auto k = [t](double c) {
            return t == DType::Float ? Expr(float(c)) : Expr(c);
        };
        Parameter R("R"), C("C");
        const std::vector<Expr> extent = {Expr(R), Expr(C)};
        Image I("I", t, extent), E("E", t, extent), L("L", t, extent),
            S("S", t, extent), P("P", t, extent);
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
        for (const Image &im : {I, E, L, S, P})
            spec.addInput(im);
        spec.addOutput(out);
        spec.addOutput(lo);
        auto wide = [&](const char *name, const Expr &value) {
            Function f(name, {x, y}, dom, t);
            f.define(value);
            spec.addOutput(f);
        };
        wide("w_exp", exp(E(x, y)));
        wide("w_log", log(L(x, y)));
        wide("w_sin", sin(S(x, y)));
        wide("w_cos", cos(S(x, y)));
        wide("w_pow", pow(P(x, y), k(1.5)));
        wide("w_powv", pow(P(x, y), E(x, y) * k(0.05)));
        spec.estimate(R, 48);
        spec.estimate(C, 40);

        Executable exe = Executable::build(spec, CompileOptions::optimized());
        const std::string &prelude = exe.info().code.prelude;
        const std::string simd = "__attribute__((__simd__(\"notinbranch\")))";
        for (const char *fn : {"expf(float)", "logf(float)", "sinf(float)",
                               "cosf(float)", "powf(float, float)",
                               "exp(double)", "pow(double, double)"}) {
            const std::size_t at = prelude.find(fn);
            ASSERT_NE(at, std::string::npos) << fn;
            const std::string decl =
                prelude.substr(at, prelude.find(';', at) - at);
            EXPECT_EQ(decl.find(simd) != std::string::npos,
                      machine::kSimdLibm)
                << decl;
        }

        const auto g = pg::PipelineGraph::build(spec);
        for (const std::vector<std::int64_t> params :
             {std::vector<std::int64_t>{48, 37}, {5, 53}}) {
            SCOPED_TRACE(std::string(dtypeName(t)) + " width " +
                         std::to_string(params[1]));
            const std::vector<std::int64_t> dims = params;
            Buffer in = randomBuffer(t, dims, 5);
            // Arguments drawn over each function's range, the first
            // points at its edges.
            auto fill = [&](std::vector<double> edges, auto draw) {
                Buffer buf(t, dims);
                Rng rng(std::uint64_t(edges.size()) + 17);
                for (std::int64_t i = 0; i < buf.numel(); ++i)
                    buf.storeFromDouble(
                        i, std::size_t(i) < edges.size()
                               ? edges[std::size_t(i)]
                               : draw(rng.uniformReal(0.0, 1.0)));
                return buf;
            };
            Buffer e = fill({100, -100, 110, -110, 800, -800},
                            [](double u) { return 220 * u - 110; });
            Buffer l = fill({0, 1e-30, 1e30, 1},
                            [](double u) { return std::pow(10.0, 60 * u - 30); });
            Buffer sc = fill({0, 1e4, -1e4},
                             [](double u) { return 2e4 * u - 1e4; });
            Buffer pb = fill({1e-3, 1e3, 1},
                             [](double u) { return std::pow(10.0, 6 * u - 3); });
            const std::vector<const Buffer *> inputs = {&in, &e, &l, &sc, &pb};
            const auto ref = interp::evaluate(g, params, inputs);
            const auto outs = exe.run(params, inputs);
            ASSERT_EQ(outs.size(), ref.outputs.size());
            for (std::size_t i = 0; i < 2; ++i)
                EXPECT_LE(outs[i].maxAbsDiff(ref.outputs[i]), 1e-4)
                    << "output " << i;
            for (std::size_t i = 2; i < outs.size(); ++i) {
                int bad = 0;
                for (std::int64_t j = 0; j < outs[i].numel(); ++j) {
                    const double want = ref.outputs[i].loadAsDouble(j);
                    const double got = outs[i].loadAsDouble(j);
                    const bool ok = std::isinf(want) || want == 0
                                        ? got == want
                                        : std::fabs(got - want) <=
                                              1e-4 * std::fabs(want);
                    if (!ok && bad++ < 3)
                        ADD_FAILURE() << "output " << i << " point " << j
                                      << ": " << got << " vs " << want;
                }
                EXPECT_EQ(bad, 0) << "output " << i;
            }
        }
    }
}

} // namespace
} // namespace polymage::rt

namespace polymage::rt {
namespace {

using namespace dsl;

/** How the second of two blur chains departs from the first. */
enum class Twin
{
    Same,        // the same stencils over its own image and extents
    Constant,    // blurx weighs the centre 0.25 instead of 0.5
    InputDType,  // the image is u8 instead of float
    ScratchSize, // tap reads blurx one row down: a taller scratchpad
};

/**
 * Two chains, blurx<k> (along rows) then blury<k> (along columns),
 * over images I<k> of extents (R<k>, C<k>), k = 1, 2; the second
 * departs from the first as @p twin says.  Outputs blury1, blury2 and,
 * for Twin::ScratchSize, sum2 = blury2 + tap2 with tap2(x, y) =
 * blurx2(x + 1, y): tap2 sits at blury2's level of the fused group, so
 * blury2 keeps blury1's loops while blurx2's scratchpad grows a row.
 */
PipelineSpec
twinChains(Twin twin)
{
    PipelineSpec spec("twins");
    Variable x("x"), y("y");
    for (int k = 1; k <= 2; ++k) {
        const std::string n = std::to_string(k);
        const bool second = k == 2;
        Parameter R("R" + n), C("C" + n);
        spec.addParam(R);
        spec.addParam(C);
        spec.estimate(R, 256);
        spec.estimate(C, 256);
        Image I("I" + n,
                second && twin == Twin::InputDType ? DType::UChar
                                                   : DType::Float,
                {Expr(R), Expr(C)});
        const Interval rows(Expr(1), Expr(R) - 2);
        Function bx("blurx" + n, {x, y}, {rows, Interval(Expr(0), Expr(C) - 1)},
                    DType::Float);
        const float centre = second && twin == Twin::Constant ? 0.25f : 0.5f;
        bx.define(Expr(0.25f) * I(Expr(x) - 1, y) + Expr(centre) * I(x, y) +
                  Expr(0.25f) * I(Expr(x) + 1, y));
        Function by("blury" + n, {x, y},
                    {rows, Interval(Expr(1), Expr(C) - 2)}, DType::Float);
        by.define(Expr(0.25f) * bx(x, Expr(y) - 1) + Expr(0.5f) * bx(x, y) +
                  Expr(0.25f) * bx(x, Expr(y) + 1));
        spec.addInput(I);
        spec.addOutput(by);
        if (second && twin == Twin::ScratchSize) {
            const std::vector<Interval> dom = {
                Interval(Expr(1), Expr(R) - 3),
                Interval(Expr(1), Expr(C) - 2)};
            Function tap("tap2", {x, y}, dom, DType::Float);
            tap.define(bx(Expr(x) + 1, y));
            Function sum("sum2", {x, y}, dom, DType::Float);
            sum.define(by(x, y) + tap(x, y));
            spec.addOutput(sum);
        }
    }
    return spec;
}

/** Tiles of @p rows x 64 (no tile model). */
CompileOptions
twinOptions(std::int64_t rows = 16)
{
    CompileOptions opts = CompileOptions::optimized();
    opts.grouping.autoTile = false;
    opts.grouping.tileSizes = {rows, 64};
    return opts;
}

/** The stage function the drivers call to compute @p stage. */
const testing::Definition &
functionOf(const CompiledPipeline &c,
           const std::map<std::string, testing::Definition> &defs,
           const std::string &stage)
{
    const std::regex driver(R"(_g(\d+)$)");
    for (const auto &[name, def] : defs) {
        std::smatch m;
        if (!std::regex_search(name, m, driver))
            continue;
        for (const testing::StageCall &call : testing::stageCalls(def.body)) {
            const testing::Definition &callee = defs.at(call.callee);
            for (std::size_t i = 0; i < callee.args.size(); ++i) {
                const int s = testing::stageOfArgument(c, std::stoi(m[1]),
                                                       call.args.at(i));
                if (s >= 0 && c.graph.stage(s).name() == stage &&
                    testing::storesTo(callee.body, callee.args[i]))
                    return callee;
            }
        }
    }
    ADD_FAILURE() << "no function computes " << stage;
    return defs.begin()->second;
}

/**
 * Stages whose loop nests differ only in the buffers and parameters
 * they touch call one stage function: two blur chains over images of
 * different extents emit one function per chain position, and both
 * outputs still match the interpreter.
 */
TEST(SharedStages, TwinChainsShareOneFunctionPerPosition)
{
    const PipelineSpec spec = twinChains(Twin::Same);
    const CompiledPipeline c = compilePipeline(spec, twinOptions());
    ASSERT_EQ(c.grouping.groups.size(), 2u);
    EXPECT_EQ(c.code.stageFunctions, 2);
    const auto defs = testing::definitions(c.code);
    EXPECT_EQ(functionOf(c, defs, "blury1").name,
              functionOf(c, defs, "blury2").name);
    std::size_t shared = 0;
    for (const auto &[fn, callers] : c.code.sharedCallers)
        shared += callers.size();
    EXPECT_EQ(shared, 2u);

    Buffer a = randomBuffer(DType::Float, {70, 90}, 21);
    Buffer b = randomBuffer(DType::Float, {45, 130}, 22);
    checkAgainstInterpreter(spec, {70, 90, 45, 130}, {&a, &b},
                            twinOptions(), 1e-5, "twins");
}

/**
 * Sharing is exact text: a chain that differs in one constant, in its
 * input's dtype or in a scratchpad's size keeps its own function for
 * the stage that differs, while a stage that matches still shares.
 */
TEST(SharedStages, StagesThatDifferDoNotShare)
{
    struct Case
    {
        Twin twin;
        const char *differs; // the stage of chain 2 that must not share
        const char *same;    // one that still does ("" when none)
    };
    for (const Case &k : {Case{Twin::Constant, "blurx", "blury"},
                          Case{Twin::InputDType, "blurx", "blury"},
                          Case{Twin::ScratchSize, "blury", ""}}) {
        SCOPED_TRACE(k.differs);
        const CompiledPipeline c =
            compilePipeline(twinChains(k.twin), twinOptions());
        const auto defs = testing::definitions(c.code);
        const std::string d = k.differs;
        const testing::Definition &one = functionOf(c, defs, d + "1");
        const testing::Definition &two = functionOf(c, defs, d + "2");
        EXPECT_NE(one.name, two.name);
        EXPECT_NE(testing::canonical(one), testing::canonical(two));
        if (*k.same) {
            const std::string s = k.same;
            EXPECT_EQ(functionOf(c, defs, s + "1").name,
                      functionOf(c, defs, s + "2").name);
        }
        if (k.twin == Twin::ScratchSize) {
            // The two blury functions differ in nothing but the size of
            // the blurx scratchpad they read.
            const std::regex size(R"(\)\[\d+\])");
            EXPECT_EQ(std::regex_replace(testing::canonical(one), size, ")[]"),
                      std::regex_replace(testing::canonical(two), size, ")[]"));
        }
    }
}

/**
 * A tile size is a literal of the stage text, so stage instances tiled
 * differently never share: the same chain tiled 16 and 32 rows high
 * renders different stage functions.
 */
TEST(SharedStages, TileSizeIsPartOfTheText)
{
    const PipelineSpec spec = twinChains(Twin::Same);
    const CompiledPipeline narrow = compilePipeline(spec, twinOptions(16));
    const CompiledPipeline wide = compilePipeline(spec, twinOptions(32));
    const auto n = testing::definitions(narrow.code);
    const auto w = testing::definitions(wide.code);
    for (const char *stage : {"blurx1", "blury1"}) {
        EXPECT_NE(testing::canonical(functionOf(narrow, n, stage)),
                  testing::canonical(functionOf(wide, w, stage)))
            << stage;
    }
}

/**
 * Pyramid construction loops define one stencil per image and level:
 * at 1/8 paper size the programs of Pyramid Blending, Multiscale
 * Interpolation and Local Laplacian emit these many distinct stage
 * functions for their stage instances (an untiled up-sampler's even
 * and odd columns are one interleaved nest, so one instance).
 */
TEST(SharedStages, PyramidAppsShareAcrossLevels)
{
    struct App
    {
        const char *name;
        PipelineSpec spec;
        int functions;
        int instances;
    };
    for (const App &a :
         {App{"pyramid", apps::buildPyramidBlend(256, 256, 4), 23, 52},
          App{"interp", apps::buildMultiscaleInterp(320, 192, 6), 22, 36},
          App{"laplacian", apps::buildLocalLaplacian(320, 192, 4, 8), 25,
              35}}) {
        SCOPED_TRACE(a.name);
        const CompiledPipeline c =
            compilePipeline(a.spec, CompileOptions::optimized());
        int instances = c.code.stageFunctions;
        for (const auto &[fn, callers] : c.code.sharedCallers)
            instances += int(callers.size());
        EXPECT_EQ(c.code.stageFunctions, a.functions);
        EXPECT_EQ(instances, a.instances);
    }
}

} // namespace
} // namespace polymage::rt
