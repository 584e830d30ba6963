/**
 * @file
 * One emitted body, several ways in.  Each stage's loop nest is
 * emitted once, as a shared function, and the OpenMP, instrumented
 * and task-granular flavour functions only walk tiles or tasks around
 * calls to it.  These tests hold the seven paper apps to that: every
 * entry computes bitwise the same outputs, and the generated program
 * stores each stage from exactly one function.
 */
#include <gtest/gtest.h>

#include <omp.h>

#include <cstring>
#include <map>
#include <regex>
#include <set>

#include "apps/apps.hpp"
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

/** Run the task entry's phases through a tile scheduler. */
std::vector<Buffer>
runTasks(const rt::Executable &exe, const AppCase &a, int workers)
{
    std::vector<Buffer> outs;
    for (const auto &shape : exe.outputShapes(a.params)) {
        const int s = exe.info().graph.outputs()[outs.size()];
        outs.emplace_back(exe.info().graph.stage(s).callable->dtype(),
                          shape);
    }
    rt::BufferPool pool;
    rt::TaskInvocation inv =
        exe.prepareTasks(a.params, a.inputPtrs(), outs, pool);
    rt::SchedulerOptions opts;
    opts.workers = workers;
    rt::TileScheduler sched(opts);
    auto ticket = sched.submit(
        [&inv](long long p, long long lo, long long hi) {
            inv.run(p, lo, hi);
        },
        inv.phaseCounts());
    // A thread-less pool completes only through a helping caller.
    const std::string err =
        workers < 0 ? sched.helpWhile(ticket) : sched.wait(ticket);
    EXPECT_EQ(err, "");
    return outs;
}

/**
 * The OpenMP entry, the task entry on a threaded and on a thread-less
 * scheduler, and the instrumented entry agree bit for bit.
 */
void
checkEntries(const AppCase &a, CompileOptions opts)
{
    opts.codegen.instrument = true;
    rt::Executable exe = rt::Executable::build(a.spec, opts);
    ASSERT_TRUE(exe.hasTaskEntry());

    // Bilateral's privatised grid reductions merge per-thread partial
    // sums in whatever order threads finish, so its OpenMP entry is
    // deterministic only on one thread.
    const int threads = omp_get_max_threads();
    if (a.key == "bilateral")
        omp_set_num_threads(1);
    const std::vector<Buffer> omp_out = exe.run(a.params, a.inputPtrs());
    omp_set_num_threads(threads);

    expectBitwiseEqual(runTasks(exe, a, 2), omp_out, "task, 2 workers");
    expectBitwiseEqual(runTasks(exe, a, -1), omp_out, "task, thread-less");
    std::vector<Buffer> instr_out;
    exe.profile(a.params, a.inputPtrs(), &instr_out);
    expectBitwiseEqual(instr_out, omp_out, "instrumented");
}

TEST(Entries, AgreeBitwiseOnPaperApps)
{
    for (const char *key : kApps) {
        SCOPED_TRACE(key);
        checkEntries(makeCase(key), CompileOptions::serving());
    }
}

TEST(Entries, AgreeBitwiseWithHeapScratch)
{
    // Every scratchpad moves to a heap arena (pm_alloc per call, or the
    // per-thread task arena) and reaches the shared stage functions as
    // a pointer.
    for (const char *key : kApps) {
        SCOPED_TRACE(key);
        CompileOptions opts = CompileOptions::serving();
        opts.codegen.maxStackScratchBytes = 1;
        checkEntries(makeCase(key), opts);
    }
}

/** Generated function name -> body, from GeneratedCode::functions. */
std::map<std::string, std::string>
definitions(const cg::GeneratedCode &code)
{
    std::map<std::string, std::string> out;
    const std::regex def(
        R"(^__attribute__\(\(visibility\("hidden"\)[a-z, ]*\)\) [a-z ]+ (polymage_\w+)\(.*\)$)");
    for (const std::string &piece : code.functions) {
        std::size_t bol = 0;
        while (bol < piece.size()) {
            const std::size_t eol = piece.find('\n', bol);
            std::smatch m;
            const std::string line = piece.substr(bol, eol - bol);
            if (std::regex_match(line, m, def)) {
                EXPECT_EQ(out.count(m[1]), 0u) << m[1];
                out[m[1]] = piece.substr(eol + 1);
                break;
            }
            bol = eol + 1;
        }
    }
    return out;
}

/**
 * Does @p body store to stage @p name?  Scalar stores read
 * `buf_<name>[...] = `, vector stores `*(...)&(buf_<name>[...]) = `;
 * scratchpads are `scr_<name>`.
 */
bool
storesTo(const std::string &body, const std::string &name)
{
    std::size_t bol = 0;
    while (bol < body.size()) {
        std::size_t eol = body.find('\n', bol);
        if (eol == std::string::npos)
            eol = body.size();
        std::string line = body.substr(bol, eol - bol);
        bol = eol + 1;
        line.erase(0, line.find_first_not_of(' '));
        const std::size_t assign = line.find("] = ");
        if (assign == std::string::npos)
            continue;
        for (const std::string &buf :
             {"buf_" + name + "[", "scr_" + name + "["}) {
            if (line.rfind(buf, 0) == 0 ||
                (line.rfind("*(", 0) == 0 &&
                 line.find(")&(" + buf) < assign))
                return true;
        }
    }
    return false;
}

TEST(Entries, EachStageIsEmittedOnce)
{
    const std::regex shared(R"(_g(\d+)_s\d+(_n\d+)?$)");
    const std::regex flavour(R"(_g(\d+)(_pm_instr|_pm_task)?$)");
    for (const char *key : kApps) {
        for (CompileOptions opts :
             {CompileOptions::optimized(), CompileOptions::serving()}) {
            opts.codegen.instrument = true;
            SCOPED_TRACE(std::string(key) +
                         (opts.codegen.taskABI ? " serving" : " optimized"));
            const AppCase a = makeCase(key);
            const CompiledPipeline c = compilePipeline(a.spec, opts);
            const auto defs = definitions(c.code);
            std::set<int> accumulator_groups;
            for (std::size_t gi = 0; gi < c.grouping.groups.size(); ++gi) {
                for (int s : c.grouping.groups[gi].stages)
                    if (c.graph.stage(s).isAccumulator())
                        accumulator_groups.insert(int(gi));
            }

            // Each function stage is stored only from the shared
            // functions of that one stage: one per stage in a tiled
            // group, one per case nest (`_n<m>`) when untiled.
            for (const auto &stage : c.graph.stages()) {
                if (stage.isAccumulator())
                    continue;
                std::set<std::string> owners;
                for (const auto &[name, body] : defs) {
                    if (!storesTo(body, stage.name()))
                        continue;
                    std::smatch m;
                    ASSERT_TRUE(std::regex_search(name, m, shared))
                        << stage.name() << " stored in " << name;
                    owners.insert(name.substr(0, name.size() -
                                                     m[2].length()));
                }
                EXPECT_EQ(owners.size(), 1u) << stage.name();
            }

            // Flavour functions store nothing themselves (accumulators
            // keep their privatised per-flavour bodies) and call every
            // shared function of their group.
            int flavours = 0;
            for (const auto &[name, body] : defs) {
                std::smatch m;
                if (!std::regex_search(name, m, flavour))
                    continue;
                ++flavours;
                const int gi = std::stoi(m[1]);
                if (accumulator_groups.count(gi))
                    continue;
                for (const auto &stage : c.graph.stages())
                    EXPECT_FALSE(storesTo(body, stage.name()))
                        << name << " stores " << stage.name();
                const std::string prefix =
                    name.substr(0, name.size() - m[2].length());
                for (const auto &[callee, unused] : defs) {
                    (void)unused;
                    if (callee.rfind(prefix + "_s", 0) == 0) {
                        EXPECT_NE(body.find(callee + "("),
                                  std::string::npos)
                            << name << " does not call " << callee;
                    }
                }
            }
            EXPECT_EQ(flavours, int(c.grouping.groups.size()) *
                                    (opts.codegen.taskABI ? 3 : 2));
        }
    }
}

} // namespace
} // namespace polymage::apps
