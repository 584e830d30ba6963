/**
 * @file
 * Reference-interpreter probe: times interp::evaluate on the seven paper
 * apps, serially and on a tile scheduler, and hashes their outputs.
 *
 *   bench_interp [scale [runs]]
 *
 * scale is the linear fraction of the paper image sizes (default
 * POLYMAGE_BENCH_SCALE, else 0.125); runs is the number of timed calls
 * per app and mode (default 5).  Each run evaluates the app twice, in
 * turn: serially, and with its function stages split into bands on an
 * rt::TileScheduler of hardware_concurrency - 1 workers plus the calling
 * thread.  For each app it prints the median and the quartiles of both
 * modes' runs, in milliseconds, and the FNV-1a hash of the output bytes
 * (dtype, shape and elements of every live-out), so two builds of the
 * interpreter can be compared for speed and checked for bitwise-identical
 * results.  A hash that differs between runs or between the two modes is
 * reported and makes the probe exit 1.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench_util.hpp"
#include "interp/interpreter.hpp"
#include "runtime/scheduler.hpp"

using namespace polymage;

int
main(int argc, char **argv)
{
    const double scale =
        argc > 1 ? std::atof(argv[1]) : bench::benchScale(0.125);
    const int runs = argc > 2 ? std::atoi(argv[2]) : 5;
    if (scale <= 0 || runs < 1) {
        std::fprintf(stderr, "usage: bench_interp [scale [runs]]\n");
        return 2;
    }
    rt::SchedulerOptions so;
    so.workers = int(std::thread::hardware_concurrency()) - 1;
    if (so.workers < 1)
        so.workers = -1; // thread-less: the caller runs every band
    rt::TileScheduler sched(so);

    std::printf("interp::evaluate, scale %.4g, %d runs per app; "
                "banded: %d scheduler workers + the caller\n",
                scale, runs, sched.workers());
    std::printf("%-18s %-12s %27s  %27s  %s\n", "app", "size",
                "serial q1/median/q3 ms", "banded q1/median/q3 ms",
                "fnv1a");
    bool stable = true;
    for (const bench::AppBench &app : bench::paperBenchmarks(scale)) {
        const auto g = pg::PipelineGraph::build(app.spec);
        std::vector<double> ms[2];
        std::uint64_t hash = 0;
        for (int r = 0; r < runs; ++r) {
            for (int mode = 0; mode < 2; ++mode) {
                const auto t0 = std::chrono::steady_clock::now();
                const auto res =
                    interp::evaluate(g, app.params, app.inputs(), {},
                                     mode == 0 ? nullptr : &sched);
                ms[mode].push_back(
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
                const std::uint64_t h = bench::hashOutputs(res.outputs);
                if ((r > 0 || mode > 0) && h != hash) {
                    std::fprintf(stderr,
                                 "%s: output hash changed in %s run %d\n",
                                 app.name.c_str(),
                                 mode == 0 ? "serial" : "banded", r);
                    stable = false;
                }
                hash = h;
            }
        }
        std::printf("%-18s %-12s", app.name.c_str(), app.sizeLabel.c_str());
        for (std::vector<double> &m : ms) {
            std::sort(m.begin(), m.end());
            std::printf(" %8.1f %8.1f %8.1f  ", bench::quantile(m, 0.25),
                        bench::quantile(m, 0.5), bench::quantile(m, 0.75));
        }
        std::printf("%016llx\n", static_cast<unsigned long long>(hash));
    }
    return stable ? 0 : 1;
}
