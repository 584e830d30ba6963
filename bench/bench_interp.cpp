/**
 * @file
 * Reference-interpreter probe: times interp::evaluate on the seven paper
 * apps and hashes their outputs.
 *
 *   bench_interp [scale [runs]]
 *
 * scale is the linear fraction of the paper image sizes (default
 * POLYMAGE_BENCH_SCALE, else 0.125); runs is the number of timed calls
 * per app (default 5).  For each app it prints the median and the
 * quartiles of the runs, in milliseconds, and the FNV-1a hash of the
 * output bytes (dtype, shape and elements of every live-out), so two
 * builds of the interpreter can be compared for speed and checked for
 * bitwise-identical results.  A hash that changes between runs of one
 * build is reported and makes the probe exit 1.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "interp/interpreter.hpp"

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

    std::printf("interp::evaluate, scale %.4g, %d runs per app\n", scale,
                runs);
    std::printf("%-18s %-12s %9s %9s %9s  %s\n", "app", "size", "q1_ms",
                "median_ms", "q3_ms", "fnv1a");
    bool stable = true;
    for (const bench::AppBench &app : bench::paperBenchmarks(scale)) {
        const auto g = pg::PipelineGraph::build(app.spec);
        std::vector<double> ms;
        std::uint64_t hash = 0;
        for (int r = 0; r < runs; ++r) {
            const auto t0 = std::chrono::steady_clock::now();
            const auto res = interp::evaluate(g, app.params, app.inputs());
            ms.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
            const std::uint64_t h = bench::hashOutputs(res.outputs);
            if (r > 0 && h != hash) {
                std::fprintf(stderr, "%s: output hash changed in run %d\n",
                             app.name.c_str(), r);
                stable = false;
            }
            hash = h;
        }
        std::sort(ms.begin(), ms.end());
        std::printf("%-18s %-12s %9.1f %9.1f %9.1f  %016llx\n",
                    app.name.c_str(), app.sizeLabel.c_str(),
                    bench::quantile(ms, 0.25), bench::quantile(ms, 0.5),
                    bench::quantile(ms, 0.75),
                    static_cast<unsigned long long>(hash));
    }
    return stable ? 0 : 1;
}
