/**
 * @file
 * Compiled-code probe: how much code the seven paper apps generate,
 * how long the JIT takes to compile it cold, and what it computes.
 *
 *   bench_jit [scale [runs]]
 *
 * scale is the linear fraction of the paper image sizes (default
 * POLYMAGE_BENCH_SCALE, else 0.125); runs is the number of cold
 * compiles per program (default 5).  Each app is compiled under
 * CompileOptions::optimized().  Per program the probe prints:
 * - the source lines, the stage functions emitted / the stage
 *   instances they serve (GeneratedCode::sharedCallers), and the
 *   interleaved residue nests (GeneratedCode::interleavedNests);
 * - the median and quartiles, in seconds, of JitModule::compile over
 *   the translation units Executable::build compiles, with the object
 *   cache off.  The compiles are interleaved: each round compiles
 *   every program once, so drift in machine load spreads evenly;
 * - the FNV-1a hash of the outputs (dtype, shape and elements of every
 *   live-out, as bench_interp hashes them) of Executable::run on a
 *   thread-less scheduler and on the default one (a worker per
 *   hardware thread but one, plus the caller); they must agree.
 * Two builds of the compiler can thus be compared for code size and
 * JIT time and checked for bitwise-identical results.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "runtime/jit.hpp"
#include "runtime/scheduler.hpp"

using namespace polymage;

namespace {

/** One app's compiled program. */
struct Program
{
    const bench::AppBench *app;
    std::vector<std::string> units;
    CompiledPipeline compiled;
    std::vector<double> seconds;
};

} // namespace

int
main(int argc, char **argv)
{
    const double scale =
        argc > 1 ? std::atof(argv[1]) : bench::benchScale(0.125);
    const int runs = argc > 2 ? std::atoi(argv[2]) : 5;
    if (scale <= 0 || runs < 1) {
        std::fprintf(stderr, "usage: bench_jit [scale [runs]]\n");
        return 2;
    }

    const std::vector<bench::AppBench> apps = bench::paperBenchmarks(scale);
    std::vector<Program> progs;
    for (const bench::AppBench &app : apps) {
        CompiledPipeline compiled =
            compilePipeline(app.spec, CompileOptions::optimized());
        std::vector<std::string> units =
            compiled.code.translationUnits(rt::JitModule::parallelism());
        progs.push_back(
            {&app, std::move(units), std::move(compiled), {}});
    }

    // Cold compiles, as Executable::build runs them, cache off.
    for (int r = 0; r < runs; ++r) {
        for (Program &p : progs) {
            rt::JitOptions jit;
            jit.cache = false;
            jit.vectorize = p.compiled.code.vectorizeMode != "off";
            const auto t0 = std::chrono::steady_clock::now();
            rt::JitModule::compile(p.units, jit);
            p.seconds.push_back(std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - t0)
                                    .count());
        }
    }

    std::printf("bench_jit: scale %.4g, %d cold compiles per program, %d "
                "compiler processes, object cache off\n",
                scale, runs, rt::JitModule::parallelism());
    std::printf("%-15s %-11s %6s %9s %4s %7s %7s %7s  %-16s  %s\n", "app",
                "size", "lines", "fns/inst", "ilv", "q1_s", "med_s", "q3_s",
                "serial_fnv1a", "default_fnv1a");
    for (Program &p : progs) {
        const cg::GeneratedCode &code = p.compiled.code;
        int instances = code.stageFunctions;
        for (const auto &[fn, callers] : code.sharedCallers)
            instances += int(callers.size());
        const long lines =
            long(std::count(code.source.begin(), code.source.end(), '\n'));

        const rt::Executable exe = rt::Executable::build(p.app->spec);
        rt::SchedulerOptions serial;
        serial.workers = -1;
        rt::TileScheduler threadless(serial);
        const std::uint64_t serial_hash = bench::hashOutputs(
            exe.run(p.app->params, p.app->inputs(), &threadless));
        const std::uint64_t default_hash =
            bench::hashOutputs(exe.run(p.app->params, p.app->inputs()));

        std::sort(p.seconds.begin(), p.seconds.end());
        const std::string fns = std::to_string(code.stageFunctions) + "/" +
                                std::to_string(instances);
        std::printf("%-15s %-11s %6ld %9s %4d %7.3f %7.3f %7.3f  "
                    "%016llx  %016llx\n",
                    p.app->name.c_str(), p.app->sizeLabel.c_str(), lines,
                    fns.c_str(), code.interleavedNests,
                    bench::quantile(p.seconds, 0.25),
                    bench::quantile(p.seconds, 0.5),
                    bench::quantile(p.seconds, 0.75),
                    static_cast<unsigned long long>(serial_hash),
                    static_cast<unsigned long long>(default_hash));
    }
    return 0;
}
