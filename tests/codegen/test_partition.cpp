/**
 * @file
 * Boundary/interior loop partitioning: a disjunctive border case
 * (`x <= 0 || x >= R-1 || ...`) must become one guard-free nest per
 * box clause -- a dense vectorizable interior plus narrow boundary
 * strips -- instead of a full-domain sweep with a per-point `if`.
 * Also covers the invariant-hoisting (`pm_base*`) locals, the dynamic
 * worksharing schedule, the partition switch, and residue-class cases
 * (`y % c == p`) interleaved into one loop over the quotient.
 */
#include <algorithm>
#include <cstring>

#include <gtest/gtest.h>

#include "apps/pyramid_util.hpp"
#include "common/test_pipelines.hpp"
#include "driver/compiler.hpp"
#include "interp/interpreter.hpp"
#include "runtime/executor.hpp"
#include "support/rng.hpp"

namespace polymage::cg {
namespace {

using namespace dsl;

int
countOccurrences(const std::string &hay, const std::string &needle)
{
    int n = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size())) {
        ++n;
    }
    return n;
}

/** The generated functions (prelude helpers carry their own `if`s). */
std::string
entryBody(const CompiledPipeline &c)
{
    return c.code.source.substr(c.code.prelude.size());
}

/** `if`s in the generated functions other than the task entry's phase
 * dispatch and task-range checks. */
int
guardCount(const CompiledPipeline &c)
{
    const std::string body = entryBody(c);
    return countOccurrences(body, "if (") -
           countOccurrences(body, "if (pm_phase ") -
           countOccurrences(body, "if (pm_lo ") -
           countOccurrences(body, "if (a.cap < bytes)");
}

rt::Buffer
randomBuffer(DType t, const std::vector<std::int64_t> &dims,
             std::uint64_t seed)
{
    rt::Buffer b(t, dims);
    Rng rng(seed);
    for (std::int64_t i = 0; i < b.numel(); ++i)
        b.storeFromDouble(i, rng.uniformReal(0.0, 1.0));
    return b;
}

TEST(Partition, BorderCaseSplitsIntoGuardFreeStrips)
{
    auto t = testing::makeBoundaryStencil(256);
    auto c = compilePipeline(t.spec);
    // Four half-plane clauses plus the interior case: >= 5 nests, all
    // guard-free, so the entry holds no `if` at all.
    EXPECT_EQ(c.code.partitionedCases, 1);
    EXPECT_EQ(c.code.guardedNests, 0);
    EXPECT_GE(c.code.interiorNests, 5);
    EXPECT_DOUBLE_EQ(c.code.interiorFraction(), 1.0);
    EXPECT_EQ(guardCount(c), 0);
}

TEST(Partition, AblationKeepsThePerPointGuard)
{
    auto t = testing::makeBoundaryStencil(256);
    CompileOptions opts;
    opts.codegen.partition = false;
    auto c = compilePipeline(t.spec, opts);
    EXPECT_EQ(c.code.partitionedCases, 0);
    EXPECT_GE(c.code.guardedNests, 1);
    EXPECT_LT(c.code.interiorFraction(), 1.0);
    EXPECT_GE(guardCount(c), 1);
}

TEST(Partition, GuardedNestsDropTheSimdPragma)
{
    auto t = testing::makeBoundaryStencil(256);
    CompileOptions opts;
    opts.codegen.partition = false;
    auto guarded = compilePipeline(t.spec, opts);
    auto split = compilePipeline(t.spec);
    // The guarded sweep vectorises one nest (the interior case); the
    // partitioned code vectorises every strip as well, through the
    // explicit emitter or, where it declines, an simd pragma.
    auto vectorised = [](const CompiledPipeline &c) {
        return c.code.explicitNests +
               countOccurrences(entryBody(c), "#pragma omp simd") +
               countOccurrences(entryBody(c), "parallel for simd");
    };
    EXPECT_EQ(vectorised(split), split.code.interiorNests);
    EXPECT_GT(vectorised(split), vectorised(guarded));
}

TEST(Partition, WorksInsideOverlappedTileGroups)
{
    auto t = testing::makeBoundaryChain(256);
    auto c = compilePipeline(t.spec);
    ASSERT_NE(entryBody(c).find("const long long T0 = "),
              std::string::npos)
        << "expected the two stages to fuse into a tiled group";
    EXPECT_EQ(c.code.partitionedCases, 1);
    EXPECT_EQ(c.code.guardedNests, 0);
    EXPECT_EQ(guardCount(c), 0);
}

TEST(Partition, HoistsInvariantAddressBases)
{
    auto t = testing::makeBoundaryStencil(256);
    auto c = compilePipeline(t.spec);
    const std::string body = entryBody(c);
    EXPECT_NE(body.find("const long long pm_base"), std::string::npos);
    // Store statements index off the hoisted base, not a full-stride
    // multiplication re-done per point.
    std::size_t pos = 0;
    int stores = 0;
    while ((pos = body.find("] = (", pos)) != std::string::npos) {
        const std::size_t bol = body.rfind('\n', pos) + 1;
        const std::size_t eol = body.find('\n', pos);
        const std::string line = body.substr(bol, eol - bol);
        EXPECT_EQ(line.find("* st_"), std::string::npos) << line;
        ++stores;
        pos = eol;
    }
    EXPECT_GT(stores, 0);
}

TEST(Partition, EveryParallelLoopIsScheduledDynamically)
{
    // Clamped boundary rows do less work than interior ones, so no
    // parallel loop is chunked statically: each parallel phase is a
    // task range the scheduler's workers take and steal on demand.
    auto t = testing::makeBoundaryChain(256);
    auto c = compilePipeline(t.spec);
    const std::string body = entryBody(c);
    const auto parallel = std::count(c.code.serialPhases.begin(),
                                     c.code.serialPhases.end(), false);
    EXPECT_GE(parallel, 1);
    EXPECT_EQ(countOccurrences(body, "for (long long pm_t = pm_lo;"),
              parallel);
    EXPECT_EQ(countOccurrences(body, "#pragma omp"),
              countOccurrences(body, "#pragma omp simd"));
}

TEST(Partition, SwitchTurnsOffPartitioningOnly)
{
    auto t = testing::makeBoundaryStencil(256);
    CompileOptions opts = CompileOptions::optimized();
    opts.codegen.partition = false;
    auto c = compilePipeline(t.spec, opts);
    EXPECT_FALSE(c.code.partition);
    EXPECT_EQ(c.code.partitionedCases, 0);
    EXPECT_GE(c.code.guardedNests, 1);
    // The switch turns off partitioning only; hoisting stays on.
    EXPECT_NE(entryBody(c).find("pm_base"), std::string::npos);
}

/** Partitioned and guarded code must agree with the interpreter. */
TEST(Partition, MatchesInterpreterUnderEveryVariant)
{
    for (bool chain : {false, true}) {
        auto t = chain ? testing::makeBoundaryChain(96)
                       : testing::makeBoundaryStencil(96);
        const std::vector<std::int64_t> params = {96, 80};
        rt::Buffer in = randomBuffer(DType::Float, {96, 80}, 7);
        auto g = pg::PipelineGraph::build(t.spec);
        auto ref = interp::evaluate(g, params, {&in});

        for (bool partition : {true, false}) {
            SCOPED_TRACE(std::string(chain ? "chain/" : "single/") +
                         (partition ? "split" : "guarded"));
            CompileOptions opts;
            opts.codegen.partition = partition;
            rt::Executable exe = rt::Executable::build(t.spec, opts);
            auto outs = exe.run(params, {&in});
            ASSERT_EQ(outs.size(), ref.outputs.size());
            EXPECT_LE(outs[0].maxAbsDiff(ref.outputs[0]), 1e-5);
        }
    }
}

/**
 * Column up-samplers over an R x W image: `up` is Pyramid's
 * upsampleCols to 2W columns (even and odd classes bounded at 2W-2 and
 * 2W-3, a clamped tail), `tri` a 3-phase up-sampler to 3W columns
 * (phases bounded at 3W-3, 3W-1 and 3W-4, the last point a tail
 * case).  Each feeds a point-wise consumer, so that under overlapped
 * tiling they live in scratchpads.  At W = 1 the odd class and tri's
 * phase 2 are empty.
 */
PipelineSpec
residueStages()
{
    Parameter R("R"), W("W");
    Image I("I", DType::Float, {Expr(R), Expr(W)});
    apps::detail::PyrDims d;
    Function up = apps::detail::upsampleCols(
        "up", d, [&](Expr a, Expr b) { return I(a, b); }, Expr(W) * 2,
        Expr(W), Expr(R));

    Variable x("x"), y("y");
    const Expr top = Expr(W) * 3;
    Function tri("tri", {x, y},
                 {Interval(Expr(0), Expr(R) - 1),
                  Interval(Expr(0), top - 1)},
                 DType::Float);
    const Expr src = I(x, Expr(y) / 3);
    tri.define({
        // (3q - 4)/3 + 2 = q: a floor, not a truncation, of a negative
        // remainder.
        Case((Expr(y) % 3 == Expr(0)) & (Expr(y) <= top - 3),
             I(x, (Expr(y) - 4) / 3 + 2)),
        Case(Expr(y) % 3 == Expr(1), src * Expr(2.0f) + Expr(1.0f)),
        Case((Expr(y) % 3 == Expr(2)) & (Expr(y) <= top - 4),
             src - I(x, (Expr(y) + 1) / 3) * Expr(0.5f)),
        Case(Expr(y) >= top - 1, I(x, Expr(W) - 1) * Expr(3.0f)),
    });

    auto consumer = [&](const char *name, const Function &f, Expr cols) {
        Function out(name, {x, y},
                     {Interval(Expr(0), Expr(R) - 1),
                      Interval(Expr(0), cols - 1)},
                     DType::Float);
        out.define(f(x, y) * Expr(0.5f) + Expr(1.0f));
        return out;
    };
    PipelineSpec spec("residues");
    spec.addParam(R);
    spec.addParam(W);
    spec.addInput(I);
    spec.addOutput(consumer("o2", up, Expr(W) * 2));
    spec.addOutput(consumer("o3", tri, top));
    spec.estimate(R, 64);
    spec.estimate(W, 128);
    return spec;
}

/**
 * Residue classes of one stage run in one interleaved loop, tiled (tile
 * widths that start tiles at every phase) and untiled, and agree with
 * the interpreter at widths that leave 0, 1 and several points past the
 * classes' shared range -- and bitwise between run() on the default
 * scheduler and the profiled serial run.
 */
TEST(Partition, InterleavedResidueClassesMatchTheInterpreter)
{
    const PipelineSpec spec = residueStages();
    const auto g = pg::PipelineGraph::build(spec);
    CompileOptions tiled = CompileOptions::optimized();
    tiled.grouping.autoTile = false;
    tiled.grouping.tileSizes = {3, 5};
    const std::pair<const char *, CompileOptions> variants[] = {
        {"optimized", CompileOptions::optimized()},
        {"tiled 3x5", tiled},
        {"baseline+vec", CompileOptions::baseline(true)},
        {"baseline", CompileOptions::baseline(false)},
    };
    std::vector<std::int64_t> widths;
    for (std::int64_t w = 1; w <= 9; ++w)
        widths.push_back(w);
    for (std::int64_t w : {31, 32, 33, 255, 256, 257})
        widths.push_back(w);
    for (const auto &[name, opts] : variants) {
        SCOPED_TRACE(name);
        rt::Executable exe = rt::Executable::build(spec, opts);
        const GeneratedCode &code = exe.info().code;
        // up's even/odd classes and tri's three phases.
        EXPECT_GE(code.interleavedNests, 2);
        if (std::string(name) == "tiled 3x5") {
            // Tiled in both dimensions: the up-samplers are scratchpads,
            // whose column origin joins the hoisted row base.
            const std::string body = entryBody(exe.info());
            EXPECT_NE(body.find("for (long long T1 ="), std::string::npos);
            EXPECT_NE(body.find(" + (-ob_up_1);"), std::string::npos);
        }
        for (std::int64_t w : widths) {
            SCOPED_TRACE("W = " + std::to_string(w));
            const std::vector<std::int64_t> params = {7, w};
            rt::Buffer in = randomBuffer(DType::Float, {7, w}, 11);
            const auto ref = interp::evaluate(g, params, {&in});
            const auto outs = exe.run(params, {&in});
            ASSERT_EQ(outs.size(), ref.outputs.size());
            std::vector<rt::Buffer> tasks;
            exe.profile(params, {&in}, &tasks);
            ASSERT_EQ(tasks.size(), outs.size());
            for (std::size_t i = 0; i < outs.size(); ++i) {
                EXPECT_LE(outs[i].maxAbsDiff(ref.outputs[i]), 1e-6) << i;
                EXPECT_EQ(std::memcmp(outs[i].data(), tasks[i].data(),
                                      std::size_t(outs[i].bytes())),
                          0)
                    << "profiled run differs, output " << i;
            }
        }
    }
}

TEST(Partition, InterleavedLoopRunsOverTheQuotient)
{
    const CompiledPipeline c = compilePipeline(residueStages());
    const std::string body = entryBody(c);
    // Every loop over the quotient q (peel, shared and remainder loops)
    // indexes affinely in q: the up-samplers' y/2 and y/3 fold to q, so
    // no floor division is left inside.
    int loops = 0;
    for (std::size_t pos = body.find("for (int q = ");
         pos != std::string::npos; pos = body.find("for (int q = ", pos + 1)) {
        std::size_t end = body.find('{', pos);
        for (int depth = 0; end < body.size(); ++end) {
            depth += body[end] == '{' ? 1 : body[end] == '}' ? -1 : 0;
            if (depth == 0)
                break;
        }
        const std::string loop = body.substr(pos, end - pos);
        EXPECT_EQ(loop.find("pm_floordiv"), std::string::npos) << loop;
        ++loops;
    }
    // Each of up's two and tri's three classes has a peel and a
    // remainder loop, and each stage one shared loop.
    EXPECT_EQ(loops, 2 * (2 + 3) + 2);
    EXPECT_EQ(countOccurrences(body, "#pragma omp simd\n        for (int q"),
              2);
}

} // namespace
} // namespace polymage::cg
