#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "runtime/scheduler.hpp"

namespace polymage::rt {
namespace {

TEST(Scheduler, EmptyJobCompletesImmediately)
{
    TileScheduler sched;
    auto t = sched.submit([](long long, long long, long long) {}, {});
    EXPECT_EQ(sched.wait(t), "");
    auto t2 = sched.submit([](long long, long long, long long) {},
                           {0, 0, 0});
    EXPECT_EQ(sched.wait(t2), "");
    EXPECT_EQ(sched.stats().jobsCompleted, 2u);
    EXPECT_EQ(sched.stats().tasksExecuted, 0u);
}

TEST(Scheduler, HelpWhileOnEmptyAndAlreadyDrainedJobs)
{
    TileScheduler sched;
    // An empty job (no phases / zero task counts) finishes at submit;
    // helpWhile must return immediately without executing anything.
    auto empty = sched.submit([](long long, long long, long long) {},
                              {});
    EXPECT_EQ(sched.helpWhile(empty), "");
    auto zeros = sched.submit([](long long, long long, long long) {},
                              {0, 0});
    EXPECT_EQ(sched.helpWhile(zeros), "");
    EXPECT_EQ(sched.stats().tasksExecuted, 0u);

    // A job that already drained through wait(): helpWhile on the
    // same ticket is a no-op returning the recorded (empty) error.
    std::atomic<int> ran{0};
    auto t = sched.submit(
        [&](long long, long long lo, long long hi) {
            ran.fetch_add(int(hi - lo + 1));
        },
        {64});
    EXPECT_EQ(sched.wait(t), "");
    EXPECT_EQ(ran.load(), 64);
    EXPECT_EQ(sched.helpWhile(t), "");
    EXPECT_EQ(sched.helpWhile(t), ""); // idempotent
    EXPECT_EQ(ran.load(), 64);
    EXPECT_EQ(sched.stats().jobsCompleted, 3u);
}

TEST(Scheduler, ThreadlessSinglePhaseDrainsThroughHelpWhile)
{
    // workers < 0: no pool threads exist, so the helpWhile() caller
    // is the only executor of a single-phase job.
    SchedulerOptions opts;
    opts.workers = -1;
    opts.grain = 4;
    TileScheduler sched(opts);
    EXPECT_EQ(sched.workers(), 0);
    constexpr long long kTasks = 257; // odd: exercises the last chunk
    std::vector<std::atomic<int>> hits(kTasks);
    auto t = sched.submit(
        [&](long long phase, long long lo, long long hi) {
            EXPECT_EQ(phase, 0);
            for (long long i = lo; i <= hi; ++i)
                hits[std::size_t(i)].fetch_add(1);
        },
        {kTasks});
    EXPECT_EQ(sched.helpWhile(t), "");
    for (long long i = 0; i < kTasks; ++i)
        ASSERT_EQ(hits[std::size_t(i)].load(), 1) << "task " << i;
    EXPECT_EQ(sched.stats().tasksExecuted, std::uint64_t(kTasks));
    EXPECT_EQ(sched.stats().jobsCompleted, 1u);
    // Drained: further helping is a no-op.
    EXPECT_EQ(sched.helpWhile(t), "");
    EXPECT_EQ(sched.stats().tasksExecuted, std::uint64_t(kTasks));
}

TEST(Scheduler, EveryTaskRunsExactlyOnce)
{
    TileScheduler sched;
    constexpr long long kTasks = 4096;
    std::vector<std::atomic<int>> hits(kTasks);
    auto t = sched.submit(
        [&](long long phase, long long lo, long long hi) {
            EXPECT_EQ(phase, 0);
            for (long long i = lo; i <= hi; ++i)
                hits[std::size_t(i)].fetch_add(1);
        },
        {kTasks});
    EXPECT_EQ(sched.wait(t), "");
    for (long long i = 0; i < kTasks; ++i)
        EXPECT_EQ(hits[std::size_t(i)].load(), 1) << "task " << i;
    EXPECT_EQ(sched.stats().tasksExecuted, std::uint64_t(kTasks));
}

TEST(Scheduler, PhasesAreBarriers)
{
    // Phase p+1 must observe every write of phase p: each phase
    // increments every slot once, and each task checks the value its
    // predecessor phase left behind.
    TileScheduler sched;
    constexpr long long kTasks = 512;
    constexpr int kPhases = 5;
    std::vector<std::atomic<int>> cell(kTasks);
    std::atomic<bool> ordered{true};
    auto t = sched.submit(
        [&](long long phase, long long lo, long long hi) {
            for (long long i = lo; i <= hi; ++i) {
                if (cell[std::size_t(i)].load() != int(phase))
                    ordered = false;
                cell[std::size_t(i)].fetch_add(1);
            }
        },
        std::vector<long long>(kPhases, kTasks));
    EXPECT_EQ(sched.wait(t), "");
    EXPECT_TRUE(ordered.load());
    for (long long i = 0; i < kTasks; ++i)
        EXPECT_EQ(cell[std::size_t(i)].load(), kPhases);
}

TEST(Scheduler, SingleTaskSerialPhaseBetweenParallelPhases)
{
    // The accumulator pattern codegen emits: wide phase, 1-task
    // serial phase reading all of it, wide phase reading the scalar.
    TileScheduler sched;
    constexpr long long kWide = 1024;
    std::vector<long long> data(std::size_t(kWide), 0);
    std::atomic<long long> total{0};
    std::atomic<int> misreads{0};
    auto t = sched.submit(
        [&](long long phase, long long lo, long long hi) {
            for (long long i = lo; i <= hi; ++i) {
                if (phase == 0) {
                    data[std::size_t(i)] = i;
                } else if (phase == 1) {
                    long long s = 0;
                    for (long long v : data)
                        s += v;
                    total = s;
                } else {
                    if (total.load() != kWide * (kWide - 1) / 2)
                        misreads.fetch_add(1);
                }
            }
        },
        {kWide, 1, kWide});
    EXPECT_EQ(sched.wait(t), "");
    EXPECT_EQ(misreads.load(), 0);
    EXPECT_EQ(total.load(), kWide * (kWide - 1) / 2);
}

TEST(Scheduler, TaskExceptionSurfacesThroughWait)
{
    TileScheduler sched;
    auto t = sched.submit(
        [](long long, long long lo, long long) {
            if (lo >= 8)
                throw std::runtime_error("tile 8 exploded");
        },
        {64});
    const std::string err = sched.wait(t);
    EXPECT_NE(err.find("exploded"), std::string::npos) << err;
    // The scheduler survives a failed job: the next one is clean.
    std::atomic<int> ran{0};
    auto t2 = sched.submit(
        [&](long long, long long lo, long long hi) {
            ran += int(hi - lo + 1);
        },
        {32});
    EXPECT_EQ(sched.wait(t2), "");
    EXPECT_EQ(ran.load(), 32);
}

TEST(Scheduler, SingleWorkerStillCompletes)
{
    SchedulerOptions opts;
    opts.workers = 1;
    TileScheduler sched(opts);
    EXPECT_EQ(sched.workers(), 1);
    std::atomic<long long> sum{0};
    auto t = sched.submit(
        [&](long long, long long lo, long long hi) {
            for (long long i = lo; i <= hi; ++i)
                sum += i;
        },
        {1000, 1000});
    EXPECT_EQ(sched.wait(t), "");
    EXPECT_EQ(sum.load(), 2 * (999 * 1000 / 2));
}

TEST(Scheduler, GrainCoarsensChunks)
{
    SchedulerOptions opts;
    opts.workers = 2;
    opts.grain = 64;
    TileScheduler sched(opts);
    std::atomic<int> chunks{0};
    auto t = sched.submit(
        [&](long long, long long lo, long long hi) {
            if (lo == 0 || hi - lo + 1 > 1)
                chunks.fetch_add(0); // touch to keep the lambda honest
        },
        {256});
    EXPECT_EQ(sched.wait(t), "");
    const SchedulerStats s = sched.stats();
    EXPECT_EQ(s.tasksExecuted, 256u);
    // 256 tasks at grain 64 is at most ceil(256/64) = 4 chunks.
    EXPECT_LE(s.chunksExecuted, 4u);
}

TEST(Scheduler, HelpWhileParticipatesInExecution)
{
    SchedulerOptions opts;
    opts.workers = 1;
    TileScheduler sched(opts);
    std::vector<std::atomic<int>> hits(1024);
    auto t = sched.submit(
        [&](long long phase, long long lo, long long hi) {
            for (long long i = lo; i <= hi; ++i)
                hits[std::size_t(phase * 512 + i)].fetch_add(1);
        },
        {512, 512});
    EXPECT_EQ(sched.helpWhile(t), "");
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    EXPECT_EQ(sched.stats().tasksExecuted, 1024u);
}

TEST(Scheduler, ThreadlessPoolHelpersDriveEverything)
{
    // workers = -1: no pool threads at all; the helpWhile() caller
    // executes every chunk itself (the engine's small-machine mode).
    SchedulerOptions opts;
    opts.workers = -1;
    TileScheduler sched(opts);
    EXPECT_EQ(sched.workers(), 0);
    std::vector<std::atomic<int>> hits(768);
    for (int rep = 0; rep < 3; ++rep) {
        for (auto &h : hits)
            h.store(0);
        auto t = sched.submit(
            [&](long long phase, long long lo, long long hi) {
                for (long long i = lo; i <= hi; ++i)
                    hits[std::size_t(phase * 256 + i)].fetch_add(1);
            },
            {256, 256, 256});
        EXPECT_EQ(sched.helpWhile(t), "");
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
    EXPECT_EQ(sched.stats().jobsCompleted, 3u);
}

TEST(Scheduler, ThreadlessPoolSurfacesTaskErrors)
{
    SchedulerOptions opts;
    opts.workers = -1;
    TileScheduler sched(opts);
    auto t = sched.submit(
        [&](long long phase, long long, long long) {
            if (phase == 1)
                throw std::runtime_error("phase one exploded");
        },
        {64, 64, 64});
    const std::string err = sched.helpWhile(t);
    EXPECT_NE(err.find("exploded"), std::string::npos);
    auto clean = sched.submit([](long long, long long, long long) {},
                              {32});
    EXPECT_EQ(sched.helpWhile(clean), "");
}

/** User plus system CPU time of this process, in milliseconds. */
double
processCpuMs()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return (double(ru.ru_utime.tv_sec) + double(ru.ru_stime.tv_sec)) * 1e3 +
           (double(ru.ru_utime.tv_usec) + double(ru.ru_stime.tv_usec)) *
               1e-3;
}

TEST(Scheduler, IdleWorkersDoNotSpin)
{
    // Idle workers sleep until work is published: they do not wake on
    // a timer to look for it.
    SchedulerOptions opts;
    opts.workers = 2;
    TileScheduler sched(opts);
    auto t = sched.submit([](long long, long long, long long) {}, {64});
    ASSERT_EQ(sched.wait(t), "");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double before = processCpuMs();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_LT(processCpuMs() - before, 5.0);
}

// The ConcurrentScheduler suite doubles as the TSan stress target:
// scripts/check_sanitize.sh's thread-mode ctest filter matches
// "Concurrent", so every deque push/pop/steal race below runs under
// -fsanitize=thread when POLYMAGE_SANITIZE=thread.

TEST(ConcurrentScheduler, HelpWhileSeesEveryCompletion)
{
    // Many two-chunk jobs, each helped until done: the helper runs one
    // chunk while a worker runs the other, and the worker may retire
    // the job between the helper's checks.  A helper that sleeps
    // through that completion stays asleep, since nothing else
    // publishes; the test then reports the stall and submits no-op
    // jobs to wake it.
    SchedulerOptions opts;
    opts.workers = 2;
    TileScheduler sched(opts);
    constexpr int kJobs = 200000;
    std::atomic<int> done{0};
    std::thread client([&] {
        for (int j = 0; j < kJobs; ++j) {
            auto t = sched.submit([](long long, long long, long long) {},
                                  {2});
            EXPECT_EQ(sched.helpWhile(t), "");
            done.fetch_add(1);
        }
    });
    using Clock = std::chrono::steady_clock;
    int last = -1;
    auto moved = Clock::now();
    bool stalled = false;
    while (done.load() < kJobs) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        const int now = done.load();
        if (now != last) {
            last = now;
            moved = Clock::now();
        } else if (Clock::now() - moved > std::chrono::seconds(5)) {
            stalled = true;
            auto wake =
                sched.submit([](long long, long long, long long) {}, {1});
            sched.wait(wake);
        }
    }
    client.join();
    EXPECT_FALSE(stalled) << "a helper slept through its job's completion";
}

TEST(ConcurrentScheduler, ThreadlessPoolManyHelpers)
{
    // Cross-helper completion: with no pool threads, helper A can run
    // (and retire) chunks of helper B's job, seeding B's next phase
    // while B sweeps -- the regression mode is B parking forever on a
    // queue nobody drains.
    SchedulerOptions opts;
    opts.workers = -1;
    TileScheduler sched(opts);
    constexpr int kClients = 6;
    constexpr int kJobsPerClient = 12;
    std::vector<std::atomic<long long>> sums(kClients);
    std::vector<std::thread> clients;
    std::atomic<int> failures{0};
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int j = 0; j < kJobsPerClient; ++j) {
                auto t = sched.submit(
                    [&, c](long long, long long lo, long long hi) {
                        for (long long i = lo; i <= hi; ++i)
                            sums[std::size_t(c)] += i;
                    },
                    {96, 96, 96});
                if (!sched.helpWhile(t).empty())
                    failures.fetch_add(1);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    const long long perJob = 3 * (96 * 95 / 2);
    for (int c = 0; c < kClients; ++c)
        EXPECT_EQ(sums[std::size_t(c)].load(),
                  perJob * kJobsPerClient);
    EXPECT_EQ(sched.stats().jobsCompleted,
              std::uint64_t(kClients * kJobsPerClient));
}

TEST(ConcurrentScheduler, ManySubmittersShareOnePool)
{
    TileScheduler sched;
    constexpr int kClients = 8;
    constexpr int kJobsPerClient = 16;
    constexpr long long kTasks = 128;
    std::vector<std::atomic<long long>> sums(kClients);
    std::vector<std::thread> clients;
    std::atomic<int> failures{0};
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int j = 0; j < kJobsPerClient; ++j) {
                auto t = sched.submit(
                    [&, c](long long, long long lo, long long hi) {
                        for (long long i = lo; i <= hi; ++i)
                            sums[std::size_t(c)] += i;
                    },
                    {kTasks, kTasks});
                if (!sched.wait(t).empty())
                    failures.fetch_add(1);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    const long long perJob = 2 * (kTasks * (kTasks - 1) / 2);
    for (int c = 0; c < kClients; ++c)
        EXPECT_EQ(sums[std::size_t(c)].load(),
                  perJob * kJobsPerClient);
    const SchedulerStats s = sched.stats();
    EXPECT_EQ(s.jobsCompleted,
              std::uint64_t(kClients) * kJobsPerClient);
    EXPECT_EQ(s.tasksExecuted, std::uint64_t(kClients) *
                                   kJobsPerClient * 2 * kTasks);
}

TEST(ConcurrentScheduler, StealsHappenUnderImbalance)
{
    // Multi-phase jobs with skewed task cost: the worker that retires
    // a phase seeds the whole next phase onto its own deque, so the
    // other workers can only make progress by stealing from it.
    SchedulerOptions opts;
    opts.workers = 4;
    TileScheduler sched(opts);
    std::atomic<long long> work{0};
    for (int round = 0; round < 8; ++round) {
        auto t = sched.submit(
            [&](long long, long long lo, long long hi) {
                for (long long i = lo; i <= hi; ++i) {
                    volatile long long x = 0;
                    for (int k = 0; k < (i % 7 == 0 ? 4000 : 50); ++k)
                        x = x + k;
                    work += 1;
                }
            },
            {2048, 2048, 2048});
        ASSERT_EQ(sched.wait(t), "");
    }
    EXPECT_EQ(work.load(), 8 * 3 * 2048);
    EXPECT_GT(sched.stats().steals, 0u);
}

TEST(ConcurrentScheduler, DeterministicResultsUnderStealing)
{
    // Disjoint writes per task: whatever the steal interleaving, the
    // output must be byte-identical across repetitions.
    TileScheduler sched;
    constexpr long long kTasks = 1024;
    std::vector<std::uint32_t> golden;
    for (int rep = 0; rep < 6; ++rep) {
        std::vector<std::uint32_t> out(std::size_t(kTasks), 0);
        auto t = sched.submit(
            [&](long long phase, long long lo, long long hi) {
                for (long long i = lo; i <= hi; ++i)
                    out[std::size_t(i)] +=
                        std::uint32_t((phase + 1) * (i * 2654435761u));
            },
            {kTasks, kTasks, kTasks});
        ASSERT_EQ(sched.wait(t), "");
        if (rep == 0)
            golden = out;
        else
            EXPECT_EQ(out, golden) << "rep " << rep;
    }
}

TEST(ConcurrentScheduler, DestructorDrainsInFlightJobs)
{
    std::atomic<long long> done{0};
    {
        TileScheduler sched;
        for (int j = 0; j < 4; ++j) {
            sched.submit(
                [&](long long, long long lo, long long hi) {
                    done += hi - lo + 1;
                },
                {512});
        }
        // Tickets dropped without wait(): teardown must still run
        // every task before joining the workers.
    }
    EXPECT_EQ(done.load(), 4 * 512);
}

} // namespace
} // namespace polymage::rt
