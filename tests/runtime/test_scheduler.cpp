#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "runtime/scheduler.hpp"

namespace polymage::rt {
namespace {

TEST(Scheduler, EmptyJobCompletesImmediately)
{
    // An empty job (no phases / zero task counts) has nothing to
    // publish: run() returns at once, even with no pool thread.
    for (int width : {0, -1}) {
        SCOPED_TRACE("workers " + std::to_string(width));
        SchedulerOptions opts;
        opts.workers = width;
        TileScheduler sched(opts);
        int calls = 0;
        const TileScheduler::PhaseRunner count =
            [&](long long, long long, long long) { ++calls; };
        EXPECT_EQ(sched.run(count, {}), "");
        EXPECT_EQ(sched.run(count, {0, 0, 0}), "");
        EXPECT_EQ(calls, 0);
        EXPECT_EQ(sched.stats().jobsCompleted, 2u);
        EXPECT_EQ(sched.stats().tasksExecuted, 0u);
    }
}

TEST(Scheduler, HelpWhileOnEmptyAndAlreadyDrainedJobs)
{
    TileScheduler sched;
    // Empty jobs return at once without executing anything.
    std::atomic<int> ran{0};
    const TileScheduler::PhaseRunner count =
        [&](long long, long long lo, long long hi) {
            ran.fetch_add(int(hi - lo + 1));
        };
    EXPECT_EQ(sched.run(count, {}), "");
    EXPECT_EQ(sched.run(count, {0, 0}), "");
    EXPECT_EQ(sched.stats().tasksExecuted, 0u);

    // Once a job has drained inside run(), nothing of it is left to
    // execute: empty jobs that follow (twice: idempotent) neither rerun
    // its tasks nor report an error.
    EXPECT_EQ(sched.run(count, {64}), "");
    EXPECT_EQ(ran.load(), 64);
    EXPECT_EQ(sched.run(count, {}), "");
    EXPECT_EQ(sched.run(count, {0}), "");
    EXPECT_EQ(ran.load(), 64);
    EXPECT_EQ(sched.stats().tasksExecuted, 64u);
    EXPECT_EQ(sched.stats().jobsCompleted, 5u);
}

TEST(Scheduler, ThreadlessSinglePhaseDrainsThroughHelpWhile)
{
    // workers < 0: no pool threads exist, so the run() caller is the
    // only executor of a single-phase job.
    SchedulerOptions opts;
    opts.workers = -1;
    TileScheduler sched(opts);
    EXPECT_EQ(sched.workers(), 0);
    constexpr long long kTasks = 257; // odd: exercises the last chunk
    std::vector<std::atomic<int>> hits(kTasks);
    EXPECT_EQ(sched.run(
                  [&](long long phase, long long lo, long long hi) {
                      EXPECT_EQ(phase, 0);
                      for (long long i = lo; i <= hi; ++i)
                          hits[std::size_t(i)].fetch_add(1);
                  },
                  {kTasks}),
              "");
    for (long long i = 0; i < kTasks; ++i)
        ASSERT_EQ(hits[std::size_t(i)].load(), 1) << "task " << i;
    EXPECT_EQ(sched.stats().tasksExecuted, std::uint64_t(kTasks));
    EXPECT_EQ(sched.stats().jobsCompleted, 1u);
}

TEST(Scheduler, EveryTaskRunsExactlyOnce)
{
    TileScheduler sched;
    constexpr long long kTasks = 4096;
    std::vector<std::atomic<int>> hits(kTasks);
    EXPECT_EQ(sched.run(
                  [&](long long phase, long long lo, long long hi) {
                      EXPECT_EQ(phase, 0);
                      for (long long i = lo; i <= hi; ++i)
                          hits[std::size_t(i)].fetch_add(1);
                  },
                  {kTasks}),
              "");
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
    const std::string err = sched.run(
        [&](long long phase, long long lo, long long hi) {
            for (long long i = lo; i <= hi; ++i) {
                if (cell[std::size_t(i)].load() != int(phase))
                    ordered = false;
                cell[std::size_t(i)].fetch_add(1);
            }
        },
        std::vector<long long>(kPhases, kTasks));
    EXPECT_EQ(err, "");
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
    const std::string err = sched.run(
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
    EXPECT_EQ(err, "");
    EXPECT_EQ(misreads.load(), 0);
    EXPECT_EQ(total.load(), kWide * (kWide - 1) / 2);
}

TEST(Scheduler, TaskExceptionSurfacesThroughWait)
{
    TileScheduler sched;
    const std::string err = sched.run(
        [](long long, long long lo, long long) {
            if (lo >= 8)
                throw std::runtime_error("tile 8 exploded");
        },
        {64});
    EXPECT_NE(err.find("exploded"), std::string::npos) << err;
    // The scheduler survives a failed job: the next one is clean.
    std::atomic<int> ran{0};
    EXPECT_EQ(sched.run(
                  [&](long long, long long lo, long long hi) {
                      ran += int(hi - lo + 1);
                  },
                  {32}),
              "");
    EXPECT_EQ(ran.load(), 32);
}

TEST(Scheduler, SingleWorkerStillCompletes)
{
    SchedulerOptions opts;
    opts.workers = 1;
    TileScheduler sched(opts);
    EXPECT_EQ(sched.workers(), 1);
    std::atomic<long long> sum{0};
    EXPECT_EQ(sched.run(
                  [&](long long, long long lo, long long hi) {
                      for (long long i = lo; i <= hi; ++i)
                          sum += i;
                  },
                  {1000, 1000}),
              "");
    EXPECT_EQ(sum.load(), 2 * (999 * 1000 / 2));
}

TEST(Scheduler, HelpWhileParticipatesInExecution)
{
    SchedulerOptions opts;
    opts.workers = 1;
    TileScheduler sched(opts);
    std::vector<std::atomic<int>> hits(1024);
    EXPECT_EQ(sched.run(
                  [&](long long phase, long long lo, long long hi) {
                      for (long long i = lo; i <= hi; ++i)
                          hits[std::size_t(phase * 512 + i)].fetch_add(1);
                  },
                  {512, 512}),
              "");
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    EXPECT_EQ(sched.stats().tasksExecuted, 1024u);
}

TEST(Scheduler, ThreadlessPoolHelpersDriveEverything)
{
    // workers = -1: no pool threads at all; the run() caller
    // executes every chunk itself (the engine's small-machine mode).
    SchedulerOptions opts;
    opts.workers = -1;
    TileScheduler sched(opts);
    EXPECT_EQ(sched.workers(), 0);
    std::vector<std::atomic<int>> hits(768);
    for (int rep = 0; rep < 3; ++rep) {
        for (auto &h : hits)
            h.store(0);
        EXPECT_EQ(sched.run(
                      [&](long long phase, long long lo, long long hi) {
                          for (long long i = lo; i <= hi; ++i)
                              hits[std::size_t(phase * 256 + i)].fetch_add(
                                  1);
                      },
                      {256, 256, 256}),
                  "");
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
    const std::string err = sched.run(
        [&](long long phase, long long, long long) {
            if (phase == 1)
                throw std::runtime_error("phase one exploded");
        },
        {64, 64, 64});
    EXPECT_NE(err.find("exploded"), std::string::npos);
    EXPECT_EQ(sched.run([](long long, long long, long long) {}, {32}), "");
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
    ASSERT_EQ(sched.run([](long long, long long, long long) {}, {64}), "");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double before = processCpuMs();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_LT(processCpuMs() - before, 5.0);
}

// The ConcurrentScheduler suite doubles as the TSan stress target:
// scripts/check_sanitize.sh's thread-mode ctest filter matches
// "Concurrent", so every claim, phase hand-over and job-list race
// below runs under -fsanitize=thread when POLYMAGE_SANITIZE=thread.

TEST(ConcurrentScheduler, HelpWhileSeesEveryCompletion)
{
    // Many two-chunk jobs, each helped until done: the caller runs one
    // chunk while a worker runs the other, and the worker may retire
    // the job between the caller's checks.  A caller that sleeps
    // through that completion stays asleep, since nothing else
    // publishes; the test then reports the stall and runs no-op jobs
    // to wake it.
    SchedulerOptions opts;
    opts.workers = 2;
    TileScheduler sched(opts);
    constexpr int kJobs = 200000;
    std::atomic<int> done{0};
    std::thread client([&] {
        for (int j = 0; j < kJobs; ++j) {
            EXPECT_EQ(sched.run([](long long, long long, long long) {}, {2}),
                      "");
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
            sched.run([](long long, long long, long long) {}, {1});
        }
    }
    client.join();
    EXPECT_FALSE(stalled) << "a caller slept through its job's completion";
}

TEST(ConcurrentScheduler, ThreadlessPoolManyHelpers)
{
    // Cross-caller completion: with no pool threads, caller A can run
    // (and retire) chunks of caller B's job, publishing B's next phase
    // or B's end while B looks for work -- the regression mode is B
    // sleeping through that publish forever.
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
                const std::string err = sched.run(
                    [&, c](long long, long long lo, long long hi) {
                        for (long long i = lo; i <= hi; ++i)
                            sums[std::size_t(c)] += i;
                    },
                    {96, 96, 96});
                if (!err.empty())
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
                const std::string err = sched.run(
                    [&, c](long long, long long lo, long long hi) {
                        for (long long i = lo; i <= hi; ++i)
                            sums[std::size_t(c)] += i;
                    },
                    {kTasks, kTasks});
                if (!err.empty())
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
    // Multi-phase jobs with skewed task cost: a steal is a chunk run
    // by a thread other than the job's run() caller, so pool workers
    // claiming from the job's cursor count.  Should the caller happen
    // to claim every chunk of the first rounds the jobs go on until a
    // worker took one; 64 jobs without a steal mean the pool does not
    // help run() callers.
    SchedulerOptions opts;
    opts.workers = 4;
    TileScheduler sched(opts);
    std::atomic<long long> work{0};
    int rounds = 0;
    for (; rounds < 8 || (rounds < 64 && sched.stats().steals == 0);
         ++rounds) {
        const std::string err = sched.run(
            [&](long long, long long lo, long long hi) {
                for (long long i = lo; i <= hi; ++i) {
                    volatile long long x = 0;
                    for (int k = 0; k < (i % 7 == 0 ? 4000 : 50); ++k)
                        x = x + k;
                    work += 1;
                }
            },
            {2048, 2048, 2048});
        ASSERT_EQ(err, "");
    }
    EXPECT_EQ(work.load(), rounds * 3 * 2048);
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
        const std::string err = sched.run(
            [&](long long phase, long long lo, long long hi) {
                for (long long i = lo; i <= hi; ++i)
                    out[std::size_t(i)] +=
                        std::uint32_t((phase + 1) * (i * 2654435761u));
            },
            {kTasks, kTasks, kTasks});
        ASSERT_EQ(err, "");
        if (rep == 0)
            golden = out;
        else
            EXPECT_EQ(out, golden) << "rep " << rep;
    }
}

TEST(ConcurrentScheduler, ZeroCountPhasesInsideAJob)
{
    // Empty phases between non-empty ones are skipped where a retired
    // phase hands over to the next: each chunk checks, with plain
    // (unsynchronised) reads, that every task of the previous
    // non-empty phase wrote its slot, so a missing barrier is a wrong
    // value here or a race under TSan.
    const std::vector<long long> counts = {5, 0, 33, 0, 0, 1, 4096, 0};
    for (int width : {-1, 1, 3}) {
        SCOPED_TRACE("workers " + std::to_string(width));
        SchedulerOptions opts;
        opts.workers = width;
        TileScheduler sched(opts);
        constexpr int kClients = 3;
        constexpr int kJobsPerClient = 20;
        std::atomic<int> bad{0};
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&] {
                for (int j = 0; j < kJobsPerClient; ++j) {
                    std::vector<std::vector<int>> hits;
                    for (long long n : counts)
                        hits.emplace_back(std::size_t(n), 0);
                    const std::string err = sched.run(
                        [&](long long phase, long long lo, long long hi) {
                            const std::size_t p = std::size_t(phase);
                            if (counts[p] == 0 || lo < 0 || hi < lo ||
                                hi >= counts[p]) {
                                bad.fetch_add(1);
                                return;
                            }
                            std::size_t prev = p;
                            while (prev > 0 && counts[--prev] == 0) {
                            }
                            if (prev < p)
                                for (int h : hits[prev])
                                    if (h != 1)
                                        bad.fetch_add(1);
                            for (long long i = lo; i <= hi; ++i)
                                ++hits[p][std::size_t(i)];
                        },
                        counts);
                    if (!err.empty())
                        bad.fetch_add(1);
                    for (const std::vector<int> &phase : hits)
                        for (int h : phase)
                            if (h != 1)
                                bad.fetch_add(1);
                }
            });
        }
        for (std::thread &t : clients)
            t.join();
        EXPECT_EQ(bad.load(), 0);
        const SchedulerStats s = sched.stats();
        EXPECT_EQ(s.jobsCompleted, std::uint64_t(kClients * kJobsPerClient));
        EXPECT_EQ(s.tasksExecuted,
                  std::uint64_t(kClients * kJobsPerClient) *
                      std::uint64_t(std::accumulate(counts.begin(),
                                                    counts.end(), 0LL)));
    }
}

TEST(ConcurrentScheduler, RunKeepsNoCopyOfTheRunner)
{
    // The scheduler borrows the runner: once run() returns, nothing
    // of the job -- a copy of the runner or of its captures -- is left
    // for a worker to release later.  The token's use count sees any
    // such copy the moment run() returns.
    for (int width : {-1, 1, 3}) {
        SCOPED_TRACE("workers " + std::to_string(width));
        SchedulerOptions opts;
        opts.workers = width;
        TileScheduler sched(opts);
        const auto token = std::make_shared<int>(0);
        std::atomic<long long> ran{0};
        const TileScheduler::PhaseRunner runner =
            [token, &ran](long long, long long lo, long long hi) {
                ran += hi - lo + 1;
            };
        const long long before = token.use_count();
        for (int j = 0; j < 500; ++j) {
            ASSERT_EQ(sched.run(runner, {4, 1, 4}), "");
            ASSERT_EQ(token.use_count(), before) << "job " << j;
        }
        EXPECT_EQ(ran.load(), 500 * 9);
    }
}

} // namespace
} // namespace polymage::rt
