/**
 * @file
 * PipelineRegistry unit tests: hit/miss accounting, variant keying,
 * LRU eviction of ready variants, background preparation, and
 * invalidation on re-registration.
 */
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "common/test_pipelines.hpp"
#include "interp/interpreter.hpp"
#include "pipeline/graph.hpp"
#include "runtime/synth.hpp"
#include "serve/registry.hpp"
#include "support/diagnostics.hpp"

namespace polymage::serve {
namespace {

/** A second options set whose fingerprint differs from optimized(). */
CompileOptions
untiledOptions()
{
    CompileOptions o;
    o.grouping.enable = false;
    return o;
}

TEST(Registry, UnknownNameThrows)
{
    PipelineRegistry reg;
    EXPECT_THROW(reg.get("nope"), SpecError);
    EXPECT_THROW(reg.prepare("nope", {}), SpecError);
    EXPECT_FALSE(reg.has("nope"));
}

TEST(Registry, NamesAndHas)
{
    PipelineRegistry reg;
    reg.add("pw", testing::makePointwise(16).spec);
    reg.add("blur", testing::makeBlurChain(16).spec);
    EXPECT_TRUE(reg.has("pw"));
    EXPECT_TRUE(reg.has("blur"));
    const auto names = reg.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "blur"); // sorted
    EXPECT_EQ(names[1], "pw");
}

TEST(Registry, HitReturnsSameExecutable)
{
    PipelineRegistry reg;
    reg.add("pw", testing::makePointwise(16).spec);
    auto a = reg.get("pw");
    auto b = reg.get("pw");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a.get(), b.get());
    const RegistryStats s = reg.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(reg.variantCount(), 1u);
}

TEST(Registry, DistinctOptionsCompileDistinctVariants)
{
    PipelineRegistry reg;
    reg.add("pw", testing::makePointwise(16).spec);
    auto a = reg.get("pw");
    auto b = reg.get("pw", untiledOptions());
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(reg.variantCount(), 2u);
    EXPECT_EQ(reg.stats().misses, 2u);
}

TEST(Registry, EveryOptionFieldSeparatesVariants)
{
    // Flipping any one field must change the variant key; a field the
    // fingerprint missed would alias two variants in one cache entry.
    using Flip = void (*)(CompileOptions &);
    const std::pair<const char *, Flip> flips[] = {
        {"grouping.enable",
         [](CompileOptions &o) { o.grouping.enable = !o.grouping.enable; }},
        {"grouping.tileSizes",
         [](CompileOptions &o) { o.grouping.tileSizes = {16, 128}; }},
        {"grouping.autoTile",
         [](CompileOptions &o) {
             o.grouping.autoTile = !o.grouping.autoTile;
         }},
        {"grouping.overlapThreshold",
         [](CompileOptions &o) { o.grouping.overlapThreshold = 0.25; }},
        // Equal to 0.4 in the first six printed digits.
        {"grouping.overlapThreshold (close)",
         [](CompileOptions &o) { o.grouping.overlapThreshold = 0.4000001; }},
        {"codegen.storageOpt",
         [](CompileOptions &o) {
             o.codegen.storageOpt = !o.codegen.storageOpt;
         }},
        {"codegen.vectorize",
         [](CompileOptions &o) {
             o.codegen.vectorize = cg::VectorizeMode::Off;
         }},
    };
    const CompileOptions base = CompileOptions::optimized();
    std::set<std::uint64_t> keys{optionsFingerprint(base)};
    for (const auto &[field, flip] : flips) {
        SCOPED_TRACE(field);
        CompileOptions o = base;
        flip(o);
        EXPECT_TRUE(keys.insert(optionsFingerprint(o)).second);
    }
    // serving() is optimized(): one variant, not two.
    EXPECT_EQ(optionsFingerprint(CompileOptions::serving()),
              optionsFingerprint(base));
    PipelineRegistry reg;
    reg.add("pw", testing::makePointwise(16).spec);
    EXPECT_EQ(reg.get("pw", CompileOptions::serving()),
              reg.get("pw", CompileOptions::optimized()));
    EXPECT_EQ(reg.variantCount(), 1u);
}

TEST(Registry, BadTileOptionsThrowFromGet)
{
    PipelineRegistry reg;
    reg.add("pw", testing::makePointwise(16).spec);
    CompileOptions bad = CompileOptions::optimized();
    bad.grouping.autoTile = false;
    bad.grouping.tileSizes = {0, 0};
    EXPECT_THROW(reg.get("pw", bad), SpecError);
    EXPECT_EQ(reg.stats().failures, 1u);
    EXPECT_EQ(reg.variantCount(), 0u);
    // The registry still serves valid options.
    EXPECT_NE(reg.get("pw"), nullptr);
}

TEST(Registry, CompiledVariantRunsCorrectly)
{
    const std::int64_t n = 24;
    auto t = testing::makePointwise(n);
    PipelineRegistry reg;
    reg.add("pw", t.spec);

    rt::Buffer in = rt::synth::photo(n, n);
    auto g = pg::PipelineGraph::build(t.spec);
    auto ref = interp::evaluate(g, {n, n}, {&in});

    auto exe = reg.get("pw");
    auto outs = exe->run({n, n}, {&in});
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_LE(outs[0].maxAbsDiff(ref.outputs[0]), 1e-6);
}

TEST(Registry, LruEvictsLeastRecentlyUsedReadyVariant)
{
    RegistryOptions opts;
    opts.variantCapacity = 2;
    PipelineRegistry reg(opts);
    reg.add("pw", testing::makePointwise(16).spec);
    reg.add("blur", testing::makeBlurChain(16).spec);

    reg.get("pw");                    // variant 1
    reg.get("blur");                  // variant 2
    reg.get("pw");                    // refresh 1 -> blur is LRU
    reg.get("pw", untiledOptions());  // variant 3 -> evicts blur
    EXPECT_EQ(reg.stats().evictions, 1u);
    EXPECT_EQ(reg.variantCount(), 2u);

    // The evicted variant misses (and recompiles) on the next access.
    const std::uint64_t misses = reg.stats().misses;
    reg.get("blur");
    EXPECT_EQ(reg.stats().misses, misses + 1);
}

TEST(Registry, PrepareCompilesInBackground)
{
    PipelineRegistry reg;
    reg.add("pw", testing::makePointwise(16).spec);
    auto fut = reg.prepare("pw", CompileOptions::optimized());
    auto exe = fut.get();
    ASSERT_NE(exe, nullptr);
    // A later get() of the same variant is a pure cache hit.
    auto again = reg.get("pw", CompileOptions::optimized());
    EXPECT_EQ(again.get(), exe.get());
    EXPECT_GE(reg.stats().hits, 1u);
}

TEST(Registry, ReRegisteringInvalidatesVariants)
{
    PipelineRegistry reg;
    reg.add("pw", testing::makePointwise(16).spec);
    auto old = reg.get("pw");
    EXPECT_EQ(reg.variantCount(), 1u);

    // Replace the spec (new estimate): cached variants must go.
    reg.add("pw", testing::makePointwise(32).spec);
    EXPECT_EQ(reg.variantCount(), 0u);
    auto fresh = reg.get("pw");
    EXPECT_NE(fresh.get(), old.get());
}

} // namespace
} // namespace polymage::serve
