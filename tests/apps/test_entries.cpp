/**
 * @file
 * One emitted body, one way in.  Each stage's loop nest is emitted
 * once, as a shared function, and the group functions behind the one
 * entry only walk tasks around calls to it.  These tests hold the
 * seven paper apps to that: the entry computes bitwise the same
 * outputs on any scheduler width -- sliced reductions included -- and
 * under profile(), the generated program stores each stage from
 * exactly one function, and stage functions that differ only in the
 * names of their arguments are one function.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <regex>
#include <set>

#include "apps/apps.hpp"
#include "common/stage_functions.hpp"
#include "runtime/executor.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/synth.hpp"

namespace polymage::apps {
namespace {

using rt::Buffer;

/** A paper app at 1/8 of its paper size, with seeded inputs. */
struct AppCase
{
    std::string key;
    dsl::PipelineSpec spec{"unset"};
    std::vector<std::int64_t> params;
    std::vector<Buffer> inputs;

    std::vector<const Buffer *>
    inputPtrs() const
    {
        std::vector<const Buffer *> out;
        for (const Buffer &b : inputs)
            out.push_back(&b);
        return out;
    }
};

AppCase
makeCase(const std::string &key)
{
    AppCase a;
    a.key = key;
    const std::uint64_t seed = 7;
    auto photo = [&](std::int64_t r, std::int64_t c) {
        return rt::synth::photo(r, c, seed);
    };
    if (key == "unsharp") {
        a.spec = buildUnsharpMask(256, 256);
        a.params = {256, 256};
        a.inputs.push_back(rt::synth::photoRgb(260, 260, seed));
    } else if (key == "bilateral") {
        a.spec = buildBilateralGrid(320, 192);
        a.params = {320, 192};
        a.inputs.push_back(photo(320, 192));
    } else if (key == "harris") {
        a.spec = buildHarris(800, 800);
        a.params = {800, 800};
        a.inputs.push_back(photo(802, 802));
    } else if (key == "camera") {
        a.spec = buildCameraPipeline(304, 240);
        a.params = {304, 240};
        a.inputs.push_back(rt::synth::bayerRaw(308, 244, seed));
    } else if (key == "pyramid") {
        a.spec = buildPyramidBlend(256, 256, 4);
        a.params = pyramidParams(256, 256, 4);
        a.inputs.push_back(photo(256, 256));
        a.inputs.push_back(rt::synth::photo(256, 256, seed + 1));
        a.inputs.push_back(rt::synth::blendMask(256, 256));
    } else if (key == "interp") {
        a.spec = buildMultiscaleInterp(320, 192, 6);
        a.params = pyramidParams(320, 192, 6);
        a.inputs.push_back(
            rt::synth::sparseAlpha(320, 192, 1.0 / 16, seed));
    } else {
        a.spec = buildLocalLaplacian(320, 192, 4, 8);
        a.params = pyramidParams(320, 192, 4);
        a.inputs.push_back(photo(320, 192));
    }
    return a;
}

const char *const kApps[] = {"unsharp", "bilateral", "harris", "camera",
                             "pyramid", "interp",    "laplacian"};

void
expectBitwiseEqual(const std::vector<Buffer> &got,
                   const std::vector<Buffer> &want, const char *entry)
{
    ASSERT_EQ(got.size(), want.size()) << entry;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].dims(), want[i].dims()) << entry;
        EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                              std::size_t(got[i].bytes())),
                  0)
            << entry << ": output " << i << " differs";
    }
}

/** Executable::run on a scheduler of @p workers threads (negative:
 * thread-less, the calling thread runs every task). */
std::vector<Buffer>
runOn(const rt::Executable &exe, const AppCase &a, int workers)
{
    rt::SchedulerOptions opts;
    opts.workers = workers;
    rt::TileScheduler sched(opts);
    return exe.run(a.params, a.inputPtrs(), &sched);
}

/**
 * The default run(), runs on thread-less, 1-, 2- and 3-worker
 * schedulers, and the profiled serial run agree bit for bit.
 */
void
checkEntries(const AppCase &a, const CompileOptions &opts)
{
    rt::Executable exe = rt::Executable::build(a.spec, opts);
    const std::vector<Buffer> want = exe.run(a.params, a.inputPtrs());

    expectBitwiseEqual(runOn(exe, a, -1), want, "thread-less");
    for (int workers : {1, 2, 3}) {
        const std::string label = std::to_string(workers) + " workers";
        expectBitwiseEqual(runOn(exe, a, workers), want, label.c_str());
    }
    std::vector<Buffer> profiled;
    const rt::TaskProfile prof =
        exe.profile(a.params, a.inputPtrs(), &profiled);
    expectBitwiseEqual(profiled, want, "profiled");
    EXPECT_EQ(prof.groups.size(), exe.info().grouping.groups.size());
}

TEST(Entries, AgreeBitwiseOnPaperApps)
{
    for (const char *key : kApps) {
        SCOPED_TRACE(key);
        checkEntries(makeCase(key), CompileOptions::optimized());
    }
}

TEST(Entries, AgreeBitwiseWithHeapScratch)
{
    // Every scratchpad comes from the per-thread heap arena and reaches
    // the shared stage functions as a reference; the fixed {32, 256}
    // tiles of default CompileOptions give a second scratch layout
    // besides the tile model's.
    for (const char *key : kApps) {
        SCOPED_TRACE(key);
        checkEntries(makeCase(key), CompileOptions{});
    }
}

/**
 * Each stage's loops are emitted once, and stage functions that would
 * be the same text up to argument names are emitted once between them:
 * - every group function computes each stage of its group with
 *   exactly one stage-function call per tile (tiled groups) or per
 *   phase (untiled groups, one call per case nest), and stores nothing
 *   itself;
 * - every stage function stores exactly one of its arguments, so no
 *   stage's nests sit in two defined functions, and reads no ABI array
 *   (its buffers and parameters are arguments);
 * - no two defined stage functions agree once their arguments and
 *   locals are renamed by position (sharing is complete);
 * - no function is defined twice, there is one group function per
 *   group, and every stage function is called by some group function;
 * - the program defines one extern "C" entry and carries no OpenMP
 *   pragma but `omp simd`.
 */
TEST(Entries, EachStageIsEmittedOnce)
{
    const std::regex group_fn(R"(_g(\d+)$)");
    for (const char *key : kApps) {
        for (const CompileOptions &opts :
             {CompileOptions::optimized(), CompileOptions::baseline(true)}) {
            SCOPED_TRACE(std::string(key) +
                         (opts.grouping.enable ? " optimized" : " baseline"));
            const AppCase a = makeCase(key);
            const CompiledPipeline c = compilePipeline(a.spec, opts);
            const auto defs = testing::definitions(c.code);

            // Stage functions: no ABI arrays, the one argument each
            // stores, and no two alike.
            std::map<std::string, std::size_t> stored;
            std::map<std::string, std::string> seen;
            int stage_functions = 0;
            for (const auto &[name, def] : defs) {
                if (!testing::isStageFunction(name))
                    continue;
                ++stage_functions;
                for (const char *abi :
                     {"params[", "inputs[", "outputs[", "pm_slots["})
                    EXPECT_EQ(def.body.find(abi), std::string::npos)
                        << name << " reads " << abi;
                for (std::size_t i = 0; i < def.args.size(); ++i) {
                    if (testing::storesTo(def.body, def.args[i])) {
                        EXPECT_EQ(stored.count(name), 0u)
                            << name << " stores two arguments";
                        stored[name] = i;
                    }
                }
                EXPECT_EQ(stored.count(name), 1u) << name;
                auto [it, fresh] =
                    seen.emplace(testing::canonical(def), name);
                EXPECT_TRUE(fresh) << name << " repeats " << it->second;
            }
            EXPECT_EQ(stage_functions, c.code.stageFunctions);

            // Group functions.
            std::set<std::string> called;
            int group_fns = 0;
            for (const auto &[name, def] : defs) {
                std::smatch m;
                if (!std::regex_search(name, m, group_fn))
                    continue;
                ++group_fns;
                for (const testing::StageCall &call :
                     testing::stageCalls(def.body))
                    called.insert(call.callee);
                const int gi = std::stoi(m[1]);
                const auto &grp = c.grouping.groups[std::size_t(gi)];
                if (c.graph.stage(grp.stages.front()).isAccumulator())
                    continue; // an accumulator's loops are its own
                for (const auto &stage : c.graph.stages()) {
                    EXPECT_FALSE(
                        testing::storesTo(def.body, "buf_" + stage.name()) ||
                        testing::storesTo(def.body, "scr_" + stage.name()))
                        << name << " stores " << stage.name();
                }
                std::map<int, int> computed;
                const auto stage_calls = testing::stageCalls(def.body);
                for (const testing::StageCall &call : stage_calls) {
                    ASSERT_EQ(defs.count(call.callee), 1u) << call.callee;
                    ASSERT_EQ(stored.count(call.callee), 1u) << call.callee;
                    const int s = testing::stageOfArgument(
                        c, gi, call.args.at(stored.at(call.callee)));
                    EXPECT_NE(std::find(grp.stages.begin(), grp.stages.end(),
                                        s),
                              grp.stages.end())
                        << name << ": " << call.text;
                    ++computed[s];
                }
                const auto phases = std::count(c.code.phaseGroup.begin(),
                                               c.code.phaseGroup.end(), gi);
                for (int s : grp.stages) {
                    if (phases == 1) {
                        EXPECT_EQ(computed[s], 1)
                            << name << " computes " << c.graph.stage(s).name();
                    } else {
                        EXPECT_GE(computed[s], 1)
                            << name << " computes " << c.graph.stage(s).name();
                    }
                }
                EXPECT_EQ(std::int64_t(stage_calls.size()),
                          phases == 1 ? std::int64_t(grp.stages.size())
                                      : std::int64_t(phases))
                    << name;
            }
            EXPECT_EQ(group_fns, int(c.grouping.groups.size()));

            // One extern "C" entry (the prelude's libm block aside), and
            // no OpenMP pragma but `omp simd`.
            auto occurrences = [&](const std::string &needle) {
                int n = 0;
                for (std::size_t at = c.code.source.find(needle);
                     at != std::string::npos;
                     at = c.code.source.find(needle, at + 1))
                    ++n;
                return n;
            };
            EXPECT_EQ(occurrences("extern \"C\" long long " + c.code.entry +
                                  "("),
                      1);
            EXPECT_EQ(occurrences("extern \"C\""), 2);
            EXPECT_EQ(occurrences("#pragma omp"),
                      occurrences("#pragma omp simd"));

            // Every stage function is called: a shared one from the
            // group functions of any group that uses it.
            for (const auto &[name, def] : defs) {
                if (testing::isStageFunction(name)) {
                    EXPECT_EQ(called.count(name), 1u)
                        << name << " is never called";
                }
            }
        }
    }
}

} // namespace
} // namespace polymage::apps
