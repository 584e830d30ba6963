/**
 * @file
 * Scheduler micro-benchmark: job latency of rt::TileScheduler::run on
 * synthetic jobs whose tasks spin for a fixed time, so only the
 * scheduler's hand-out, phase hand-over and wake-ups differ between
 * builds.  Two traffics:
 *   - `3 callers x 1 thread`: three client threads each run one-phase
 *     jobs of 256 x 30 us tasks on a one-worker pool (jobs of several
 *     callers at once, the serving engine's case);
 *   - `1 caller x 3 threads`: one client on a three-worker pool (the
 *     batch case), for three job shapes.
 *
 * Usage: bench_sched [jobs_scale]   (default 1; job counts scale)
 * Prints per traffic and shape the p50 and p90 job time in ms.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "runtime/scheduler.hpp"

using namespace polymage;
using Clock = std::chrono::steady_clock;

namespace {

void
spin(double us)
{
    const auto end =
        Clock::now() + std::chrono::duration<double, std::micro>(us);
    while (Clock::now() < end) {
    }
}

/** Times (ms) of @p jobs run() calls from each of @p callers threads on
 * a pool of @p workers, each job @p phases phases of @p tasks tasks. */
std::vector<double>
timeJobs(int workers, int callers, int jobs, int phases, long long tasks,
         double task_us)
{
    rt::SchedulerOptions opts;
    opts.workers = workers;
    rt::TileScheduler sched(opts);
    const rt::TileScheduler::PhaseRunner runner =
        [task_us](long long, long long lo, long long hi) {
            spin(double(hi - lo + 1) * task_us);
        };
    std::vector<std::vector<double>> per(
        static_cast<std::size_t>(callers));
    std::vector<std::thread> threads;
    for (int c = 0; c < callers; ++c) {
        threads.emplace_back([&, c] {
            for (int j = 0; j < jobs; ++j) {
                const auto t0 = Clock::now();
                sched.run(runner, std::vector<long long>(
                                      std::size_t(phases), tasks));
                per[std::size_t(c)].push_back(
                    std::chrono::duration<double, std::milli>(
                        Clock::now() - t0)
                        .count());
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    std::vector<double> all;
    for (const auto &v : per)
        all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    return all;
}

double
quantile(const std::vector<double> &sorted, double q)
{
    return sorted[std::min(sorted.size() - 1,
                           std::size_t(q * double(sorted.size())))];
}

} // namespace

int
main(int argc, char **argv)
{
    const double scale = argc > 1 ? std::atof(argv[1]) : 1.0;
    struct Shape
    {
        const char *traffic;
        int workers, callers, jobs, phases;
        long long tasks;
        double task_us;
    };
    const Shape shapes[] = {
        {"3 callers x 1 thread", 1, 3, 100, 1, 256, 30.0},
        {"1 caller x 3 threads", 3, 1, 2000, 32, 8, 1.0},
        {"1 caller x 3 threads", 3, 1, 1000, 12, 16, 5.0},
        {"1 caller x 3 threads", 3, 1, 1000, 1, 256, 5.0},
    };
    std::printf("%-22s %-24s %6s %10s %10s\n", "traffic", "job", "jobs",
                "p50_ms", "p90_ms");
    for (const Shape &s : shapes) {
        const int jobs = std::max(1, int(s.jobs * scale));
        const std::vector<double> t = timeJobs(
            s.workers, s.callers, jobs, s.phases, s.tasks, s.task_us);
        char job[64];
        std::snprintf(job, sizeof job, "%d x %lld x %g us", s.phases,
                      s.tasks, s.task_us);
        std::printf("%-22s %-24s %6zu %10.4f %10.4f\n", s.traffic, job,
                    t.size(), quantile(t, 0.5), quantile(t, 0.9));
    }
    return 0;
}
