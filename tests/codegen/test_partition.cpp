/**
 * @file
 * Boundary/interior loop partitioning: a disjunctive border case
 * (`x <= 0 || x >= R-1 || ...`) must become one guard-free nest per
 * box clause -- a dense vectorizable interior plus narrow boundary
 * strips -- instead of a full-domain sweep with a per-point `if`.
 * Also covers the invariant-hoisting (`pm_base*`) locals, the dynamic
 * worksharing schedule, and the POLYMAGE_NO_PARTITION driver override.
 */
#include <cstdlib>

#include <gtest/gtest.h>

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
    ASSERT_NE(entryBody(c).find("for (long long T0 ="),
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
    auto t = testing::makeBoundaryChain(256);
    auto c = compilePipeline(t.spec);
    const std::string body = entryBody(c);
    EXPECT_GE(countOccurrences(body, "schedule(dynamic)"), 1);
    EXPECT_EQ(countOccurrences(body, "#pragma omp parallel for"),
              countOccurrences(body, "schedule(dynamic)"));
}

TEST(Partition, EnvVarsOverrideTheDriver)
{
    auto t = testing::makeBoundaryStencil(256);
    ::setenv("POLYMAGE_NO_PARTITION", "1", 1);
    auto c = compilePipeline(t.spec);
    ::unsetenv("POLYMAGE_NO_PARTITION");
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

} // namespace
} // namespace polymage::cg
