/**
 * @file
 * Ablation A1: storage optimisation.  Paper §3.6: "Without storage
 * reduction, the tiling transformations are not very effective due to
 * the streaming nature of image processing pipelines."  This harness
 * measures opt+vec with scratchpads on and off (same grouping and
 * tiling, intermediates spilled to full buffers) against the
 * untiled baseline.
 */
#include <cstdio>

#include "bench_util.hpp"

using namespace polymage;
using namespace polymage::bench;

int
main(int argc, char **argv)
{
    const double scale = benchScale(0.5);
    ProfileJsonReport report(profileJsonPath(argc, argv));
    std::printf("==== Ablation: scratchpad storage reduction (scale "
                "%.2f) ====\n\n",
                scale);
    std::printf("%-18s | %10s %14s %12s | %s\n", "Benchmark",
                "base (ms)", "tiled-only(ms)", "opt+vec(ms)",
                "storage gain");

    auto benches = paperBenchmarks(scale);
    for (auto &b : benches) {
        auto inputs = b.inputs();

        auto measure = [&](const CompileOptions &opts, const char *variant) {
            rt::Executable exe = rt::Executable::build(b.spec, opts);
            auto outputs = exe.run(b.params, inputs);
            if (report.enabled()) {
                report.add(b.name + "/" + variant, b.sizeLabel, exe,
                           exe.profile(b.params, inputs));
            }
            return timeBestOf(
                [&] { exe.runInto(b.params, inputs, outputs); }, 2);
        };

        const double t_base =
            measure(CompileOptions::baseline(true), "base");
        CompileOptions no_store = b.tuned; // tiling, no scratchpads
        no_store.codegen.storageOpt = false;
        const double t_tiled = measure(no_store, "tiled-only");
        const double t_opt = measure(b.tuned, "opt+vec");

        std::printf("%-18s | %10.2f %14.2f %12.2f | %.2fx\n",
                    b.name.c_str(), t_base * 1e3, t_tiled * 1e3,
                    t_opt * 1e3, t_tiled / t_opt);
        std::fflush(stdout);
    }

    std::printf("\n'storage gain' = tiled-without-scratchpads time over "
                "full opt+vec time.\n");
    return report.write() ? 0 : 1;
}
