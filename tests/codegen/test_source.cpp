/**
 * @file
 * Structural checks on the generated C++ for Harris corner detection
 * against the shape of the paper's Figure 7: parallel tile loops (one
 * task per outer tile), thread-private scratchpads, clamped per-level
 * bounds, vectorisation pragmas, and a single full allocation for the
 * live-out.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <regex>

#include "apps/apps.hpp"
#include "driver/compiler.hpp"

#include "common/test_pipelines.hpp"

namespace polymage::cg {
namespace {

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

class HarrisSource : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        compiled_ = new CompiledPipeline(
            compilePipeline(apps::buildHarris(2048, 2048)));
    }
    static void TearDownTestSuite()
    {
        delete compiled_;
        compiled_ = nullptr;
    }

    const std::string &src() const { return compiled_->code.source; }

    static CompiledPipeline *compiled_;
};

CompiledPipeline *HarrisSource::compiled_ = nullptr;

TEST_F(HarrisSource, EntrySymbolAndAbi)
{
    EXPECT_EQ(compiled_->code.entry, "polymage_harris");
    EXPECT_NE(src().find("extern \"C\" long long polymage_harris(const "
                         "long long *params, void *const *inputs, void "
                         "**outputs, void *const *pm_slots, long long "
                         "pm_phase, long long pm_lo, long long pm_hi)"),
              std::string::npos);
}

TEST_F(HarrisSource, ParallelTileLoop)
{
    // One fused group: exactly one parallel phase, whose tasks are the
    // outer tiles (Fig. 7's Ti).
    EXPECT_EQ(compiled_->code.phaseGroup.size(), 1u);
    EXPECT_EQ(countOccurrences(src(), "for (long long pm_t = pm_lo;"), 1);
    EXPECT_NE(src().find("const long long T0 = "), std::string::npos);
    EXPECT_NE(src().find("for (long long T1 ="), std::string::npos);
}

TEST_F(HarrisSource, ScratchpadsAreThreadPrivateArrays)
{
    // Five scratchpads: Ix, Iy, Sxx, Syy, Sxy (Fig. 7), carved once by
    // the group function from the calling thread's arena.
    EXPECT_EQ(countOccurrences(src(), "float (&scr_"), 5);
    EXPECT_NE(src().find("float (&scr_Ix)["), std::string::npos);
    EXPECT_NE(src().find("float (&scr_Sxx)["), std::string::npos);
    // Relative indexing against per-tile origins.
    EXPECT_NE(src().find("ob_Ix_0"), std::string::npos);
    // The live-out is written through the full buffer.
    EXPECT_NE(src().find("buf_harris["), std::string::npos);
    // No heap allocation for intermediates (all scratchpads).
    EXPECT_EQ(src().find("std::malloc"), std::string::npos);
}

TEST_F(HarrisSource, ClampedBoundsLikeFigure7)
{
    // Bounds combine domain clamps with tile regions via min/max.
    EXPECT_GT(countOccurrences(src(), "pm_max_i"), 5);
    EXPECT_GT(countOccurrences(src(), "pm_min_i"), 5);
}

TEST_F(HarrisSource, VectorisationModes)
{
    // Explicit (the default): typed vector bodies on interior nests.
    EXPECT_GT(countOccurrences(src(), "pm_v_"), 0);
    EXPECT_GT(compiled_->code.explicitNests, 0);
    EXPECT_EQ(compiled_->code.vectorizeMode, "explicit");

    // Off: scalar, neither pragmas nor vector types.
    CompileOptions novec = CompileOptions::optNoVec();
    auto c = compilePipeline(apps::buildHarris(256, 256), novec);
    EXPECT_EQ(countOccurrences(c.code.source, "#pragma omp simd"), 0);
    EXPECT_EQ(countOccurrences(c.code.source, "pm_v_"), 0);
}

TEST_F(HarrisSource, BaselineHasNoTilesOrScratchpads)
{
    auto c = compilePipeline(apps::buildHarris(256, 256),
                             CompileOptions::baseline(true));
    EXPECT_EQ(c.code.source.find("scr_"), std::string::npos);
    EXPECT_EQ(c.code.source.find("for (long long T0"),
              std::string::npos);
    // Six parallel phases: one per remaining stage case.
    EXPECT_GT(c.code.phaseGroup.size(), 5u);
}

TEST_F(HarrisSource, EmitsOneEntryOnly)
{
    // Exactly one extern "C" entry, in every build: the task-ABI
    // entry, and no OpenMP or timed flavour.  (The prelude declares
    // the libm functions the code calls, extern "C" too.)
    for (const CompileOptions &opts :
         {CompileOptions::optimized(), CompileOptions::baseline(false)}) {
        const CompiledPipeline c =
            compilePipeline(apps::buildHarris(256, 256), opts);
        const std::string source = c.code.source.substr(c.code.prelude.size());
        std::vector<std::string> entries;
        for (std::size_t pos = source.find("extern \"C\"");
             pos != std::string::npos;
             pos = source.find("extern \"C\"", pos + 1))
            entries.push_back(source.substr(pos, source.find('(', pos) - pos));
        EXPECT_EQ(entries, (std::vector<std::string>{
                               "extern \"C\" long long polymage_harris"}));
        for (const char *gone :
             {"_pm_instr", "pm_record", "pm_now", "_pm_task", "omp_"})
            EXPECT_EQ(source.find(gone), std::string::npos) << gone;
        // The only OpenMP pragma left is `omp simd`.
        EXPECT_EQ(countOccurrences(c.code.source, "#pragma omp"),
                  countOccurrences(c.code.source, "#pragma omp simd"));
    }
}

TEST_F(HarrisSource, ReportMentionsPhases)
{
    const std::string rep = compiled_->report();
    EXPECT_NE(rep.find("grouping"), std::string::npos);
    EXPECT_NE(rep.find("scratchpad"), std::string::npos);
    EXPECT_NE(rep.find("inlined"), std::string::npos);
}

} // namespace
} // namespace polymage::cg

namespace polymage::cg {
namespace {

TEST(CodegenFeatures, StorageOptOffSpillsToFullBuffers)
{
    CompileOptions opts;
    opts.codegen.storageOpt = false;
    auto c = compilePipeline(apps::buildHarris(256, 256), opts);
    // Tiling still happens, but no scratchpads: intermediates become
    // full buffers serviced by the executor's slot array.
    EXPECT_NE(c.code.source.find("const long long T0 = "),
              std::string::npos);
    EXPECT_EQ(c.code.source.find("scr_"), std::string::npos);
    EXPECT_NE(c.code.source.find("pm_slots["), std::string::npos);
    EXPECT_EQ(c.code.source.find("std::malloc"), std::string::npos);
}

TEST(CodegenFeatures, HeapScratchHoistedOutOfTileLoop)
{
    // Heap scratchpads must not mean per-tile allocation: the calling
    // thread's 64-byte-aligned arena (pm_task_arena) is carved before
    // the tile loop.
    auto c = compilePipeline(apps::buildHarris(2048, 2048),
                             CompileOptions{});
    const std::string &src = c.code.source;
    EXPECT_EQ(src.find("std::malloc"), std::string::npos);
    const std::size_t arena = src.find("pm_arena_g");
    const std::size_t tile = src.find("for (long long pm_t = pm_lo;");
    ASSERT_NE(arena, std::string::npos);
    ASSERT_NE(tile, std::string::npos);
    EXPECT_LT(arena, tile); // hoisted before the tile loop
    EXPECT_NE(src.find("pm_task_arena("), std::string::npos);
    EXPECT_NE(src.find("std::aligned_alloc(64,"), std::string::npos);
    EXPECT_GT(c.code.heapArenaBytes, 0);
}

TEST(CodegenFeatures, ScratchpadsAreCacheAligned)
{
    // The arena is 64-byte aligned and every scratchpad starts at a
    // 64-byte multiple inside it.
    auto c = compilePipeline(apps::buildHarris(2048, 2048));
    const std::string &src = c.code.source;
    EXPECT_NE(src.find("std::aligned_alloc(64,"), std::string::npos);
    const std::regex carve(R"(\(pm_arena_g\d+ \+ (\d+)\);)");
    int scratchpads = 0;
    for (std::sregex_iterator it(src.begin(), src.end(), carve), end;
         it != end; ++it) {
        EXPECT_EQ(std::stoll((*it)[1]) % 64, 0) << it->str();
        ++scratchpads;
    }
    EXPECT_EQ(scratchpads, 5);
}

/** Generated functions (the prelude helpers legitimately carry ifs). */
std::string
entryBodyOf(const CompiledPipeline &c)
{
    return c.code.source.substr(c.code.prelude.size());
}

TEST(GoldenInterior, AppsEmitGuardFreeInnermostLoops)
{
    // Every case condition of these apps folds into loop bounds or
    // strided residue loops: the generated entries must contain no
    // `if` besides the task entry's phase dispatch and task-range
    // checks -- the interior innermost loops are dense and branch-free.
    struct App
    {
        const char *name;
        dsl::PipelineSpec spec;
    };
    for (const App &a : {App{"harris", apps::buildHarris(1024, 1024)},
                   App{"unsharp", apps::buildUnsharpMask(512, 512)},
                   App{"pyramid", apps::buildPyramidBlend(512, 512, 3)}}) {
        SCOPED_TRACE(a.name);
        auto c = compilePipeline(a.spec);
        const std::string body = entryBodyOf(c);
        EXPECT_EQ(countOccurrences(body, "if ("),
                  countOccurrences(body, "if (pm_phase ") +
                      countOccurrences(body, "if (pm_lo ") +
                      countOccurrences(body, "if (a.cap < bytes)"));
        EXPECT_GT(c.code.explicitNests, 0);
        EXPECT_EQ(c.code.guardedNests, 0);
        EXPECT_DOUBLE_EQ(c.code.interiorFraction(), 1.0);
    }
}

TEST(GoldenInterior, StoresIndexOffHoistedBases)
{
    // With invariant hoisting on (the default), no store statement
    // re-multiplies a full row-major stride per point: the prefix
    // lives in a pm_base local declared before the innermost loop.
    struct App
    {
        const char *name;
        dsl::PipelineSpec spec;
    };
    for (const App &a : {App{"harris", apps::buildHarris(1024, 1024)},
                   App{"unsharp", apps::buildUnsharpMask(512, 512)},
                   App{"pyramid", apps::buildPyramidBlend(512, 512, 3)}}) {
        SCOPED_TRACE(a.name);
        auto c = compilePipeline(a.spec);
        const std::string body = entryBodyOf(c);
        EXPECT_NE(body.find("const long long pm_base"),
                  std::string::npos);
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
}

TEST(CodegenFeatures, ParityCasesBecomeStridedLoops)
{
    auto c = compilePipeline(apps::buildPyramidBlend(512, 512, 3));
    // Upsampling stages iterate even/odd residue classes with stride-2
    // loops instead of per-point guards.
    EXPECT_NE(c.code.source.find("+= 2)"), std::string::npos);
    EXPECT_EQ(c.code.source.find("pm_floormod((long long)y, (long "
                                 "long)2) == 0"),
              std::string::npos);
}

TEST(CodegenFeatures, ReductionsRunAsSlicedPhases)
{
    // Privatised over a constant number of slices (paper section 3.5):
    // cells, then slices, then the merge, each a parallel phase.
    auto t = polymage::testing::makeHistogram(512);
    auto c = compilePipeline(t.spec);
    EXPECT_EQ(c.code.slicedReductions.size(), 1u);
    EXPECT_EQ(c.code.serialPhases, std::vector<bool>(3, false));
    const std::string &src = c.code.source;
    EXPECT_NE(src.find("pm_min_i(" + std::to_string(kReductionSlices) +
                       ", pm_ext)"),
              std::string::npos);
    // The partials slot follows the storage plan's slots.
    EXPECT_NE(src.find("pm_part = (int *)pm_slots[" +
                       std::to_string(c.storage.slots.size()) + "]"),
              std::string::npos);
    EXPECT_NE(src.find("// merge hist"), std::string::npos);
}

TEST(CodegenFeatures, SelfRecurrentScanStaysSequentialAndDirect)
{
    auto spec = apps::buildHistogramEq(512, 512);
    auto c = compilePipeline(spec);
    // The cdf scan (self-recurrent) must not be parallelised; the
    // histogram before it is sliced.
    EXPECT_NE(c.code.source.find("pm_part"), std::string::npos);
    EXPECT_EQ(c.code.slicedReductions.size(), 1u);
    EXPECT_NE(std::find(c.code.serialPhases.begin(),
                        c.code.serialPhases.end(), true),
              c.code.serialPhases.end());
    const auto cdf_pos = c.code.source.find("// ---- group");
    EXPECT_NE(cdf_pos, std::string::npos);
}

} // namespace
} // namespace polymage::cg
