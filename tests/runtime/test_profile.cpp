#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "apps/apps.hpp"
#include "runtime/executor.hpp"
#include "runtime/synth.hpp"

namespace polymage::rt {
namespace {

/** Build unsharp mask at a small size with the default options. */
Executable
buildUnsharp(std::int64_t n)
{
    return Executable::build(apps::buildUnsharpMask(n, n));
}

/** Tasks the profile recorded in each task-entry phase. */
std::vector<long long>
recordedPerPhase(const TaskProfile &prof, std::size_t phases)
{
    std::vector<long long> n(phases, 0);
    for (long long p : prof.phase)
        n.at(std::size_t(p)) += 1;
    return n;
}

/** The task entry's per-phase task counts under @p params. */
std::vector<long long>
entryCounts(const Executable &exe, const std::vector<std::int64_t> &params,
            const std::vector<const Buffer *> &inputs)
{
    std::vector<Buffer> outs;
    const auto &g = exe.info().graph;
    for (int s : g.outputs())
        outs.emplace_back(g.stage(s).callable->dtype(),
                          exe.outputShapes(params)[outs.size()]);
    BufferPool pool;
    return exe.prepareTasks(params, inputs, outs, pool).phaseCounts();
}

TEST(Profile, OneEntryPerGroupWithNonzeroTime)
{
    const std::int64_t n = 256;
    Executable exe = buildUnsharp(n);
    Buffer in = synth::photoRgb(n + 4, n + 4);
    TaskProfile prof = exe.profile({n, n}, {&in});

    const auto &groups = exe.info().grouping.groups;
    ASSERT_GT(groups.size(), 0u);
    ASSERT_EQ(prof.groups.size(), groups.size());

    double attributed = 0.0;
    long long tasks = 0;
    for (std::size_t gi = 0; gi < prof.groups.size(); ++gi) {
        const auto &gp = prof.groups[gi];
        EXPECT_EQ(gp.group, int(gi));
        EXPECT_FALSE(gp.stages.empty());
        // Unsharp has no serial stages: every group records parallel
        // tasks and a strictly positive wall time.
        EXPECT_GT(gp.tasks, 0) << "group " << gi << " (" << gp.stages
                               << ")";
        EXPECT_GT(gp.seconds, 0.0) << "group " << gi;
        attributed += gp.seconds;
        tasks += gp.tasks;
    }
    // The rollup is a partition of the flat task stream.
    EXPECT_EQ(tasks, (long long)prof.costs.size());
    EXPECT_NEAR(attributed, prof.totalSeconds() - prof.serialSeconds,
                1e-9 + 0.01 * prof.totalSeconds());

    // The group labels name real (post-inlining) stages.
    const auto &g = exe.info().graph;
    std::set<std::string> stage_names;
    for (std::size_t s = 0; s < g.stages().size(); ++s)
        stage_names.insert(g.stage(int(s)).name());
    for (const auto &gp : prof.groups) {
        std::istringstream is(gp.stages);
        std::string name;
        while (is >> name)
            EXPECT_TRUE(stage_names.count(name)) << name;
    }
}

/**
 * profile() times the task entry task by task: each parallel phase
 * records exactly the tasks TaskInvocation::phaseCounts() reports, and
 * a serial phase's single task lands in serialSeconds instead.
 */
TEST(Profile, TimesEveryTaskOfTheTaskEntry)
{
    {
        SCOPED_TRACE("unsharp");
        const std::int64_t n = 128;
        Executable exe = buildUnsharp(n);
        Buffer in = synth::photoRgb(n + 4, n + 4);
        const TaskProfile prof = exe.profile({n, n}, {&in});
        const auto counts = entryCounts(exe, {n, n}, {&in});
        ASSERT_EQ(counts.size(), exe.info().code.phaseGroup.size());
        EXPECT_EQ(recordedPerPhase(prof, counts.size()), counts);
        EXPECT_EQ(prof.serialSeconds, 0.0);
        EXPECT_EQ(prof.groups.size(), exe.info().grouping.groups.size());
    }
    {
        // histogram_eq's cdf scan is a serial phase; its histogram
        // runs as sliced, parallel phases.
        SCOPED_TRACE("histogram_eq");
        Executable exe = Executable::build(apps::buildHistogramEq(96, 64));
        Buffer in(dsl::DType::UChar, {96, 64});
        auto *px = static_cast<unsigned char *>(in.data());
        for (std::int64_t i = 0; i < 96 * 64; ++i)
            px[i] = static_cast<unsigned char>(i * 37);
        const TaskProfile prof = exe.profile({96, 64}, {&in});
        const auto counts = entryCounts(exe, {96, 64}, {&in});
        const auto &code = exe.info().code;
        EXPECT_EQ(code.slicedReductions.size(), 1u);
        ASSERT_EQ(counts.size(), code.serialPhases.size());
        const auto recorded = recordedPerPhase(prof, counts.size());
        int serial = 0;
        for (std::size_t p = 0; p < counts.size(); ++p) {
            if (code.serialPhases[p]) {
                ++serial;
                EXPECT_EQ(counts[p], 1) << "phase " << p;
                EXPECT_EQ(recorded[p], 0) << "phase " << p;
            } else {
                EXPECT_EQ(recorded[p], counts[p]) << "phase " << p;
            }
        }
        EXPECT_GT(serial, 0);
        EXPECT_GT(prof.serialSeconds, 0.0);
        // Every group keeps its rollup entry, counting the tasks of
        // its parallel phases only.
        ASSERT_EQ(prof.groups.size(), exe.info().grouping.groups.size());
        std::vector<long long> group_tasks(prof.groups.size(), 0);
        for (std::size_t p = 0; p < counts.size(); ++p)
            group_tasks[std::size_t(code.phaseGroup[p])] += recorded[p];
        for (std::size_t gi = 0; gi < prof.groups.size(); ++gi)
            EXPECT_EQ(prof.groups[gi].tasks, group_tasks[gi]) << gi;
    }
}

TEST(Profile, RuntimeJsonFollowsSchema)
{
    const std::int64_t n = 128;
    Executable exe = buildUnsharp(n);
    Buffer in = synth::photoRgb(n + 4, n + 4);
    TaskProfile prof = exe.profile({n, n}, {&in});

    const std::string json = prof.toJson();
    EXPECT_NE(json.find("\"schema\":\"polymage-runtime-v1\""),
              std::string::npos);
    // serial_seconds is optional: unsharp has no serial stages, so the
    // zero-valued field is omitted rather than reporting a misleading
    // measured 0.
    EXPECT_EQ(prof.serialSeconds, 0.0);
    EXPECT_EQ(json.find("\"serial_seconds\""), std::string::npos);
    EXPECT_NE(json.find("\"groups\":["), std::string::npos);
    EXPECT_NE(json.find("\"stages\""), std::string::npos);
}

TEST(Profile, ExecutableTraceIncludesCompileAndJitSpans)
{
    Executable exe = buildUnsharp(64);
    std::set<std::string> names;
    for (const auto &s : exe.trace())
        names.insert(s.name);
    for (const char *phase : {"graph_build", "grouping", "storage",
                              "codegen", "jit"}) {
        EXPECT_TRUE(names.count(phase)) << "missing span " << phase;
    }
    // Without a cache hit, each compiler process, and the link when
    // there are several, nest under the JIT's span.
    JitOptions uncached;
    uncached.cache = false;
    Executable fresh = Executable::build(apps::buildPyramidBlend(64, 64, 3),
                                         CompileOptions(), uncached);
    int jit_id = -1;
    for (const auto &s : fresh.trace())
        if (s.name == "jit")
            jit_id = s.id;
    ASSERT_GE(jit_id, 0);
    int units = 0, links = 0;
    for (const auto &s : fresh.trace()) {
        if (s.name == "jit_unit" || s.name == "jit_link") {
            EXPECT_EQ(s.parent, jit_id) << s.name;
            ++(s.name == "jit_unit" ? units : links);
        }
    }
    EXPECT_GE(units, 1);
    EXPECT_LE(units, JitModule::parallelism());
    EXPECT_EQ(links, units > 1 ? 1 : 0);
    // The driver-only view on info() excludes the jit span.
    std::set<std::string> driver_names;
    for (const auto &s : exe.info().trace)
        driver_names.insert(s.name);
    EXPECT_FALSE(driver_names.count("jit"));
    EXPECT_TRUE(driver_names.count("codegen"));
}

} // namespace
} // namespace polymage::rt
