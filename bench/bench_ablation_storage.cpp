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
    std::printf("%-18s | %10s %14s %12s | %-12s | %s\n", "Benchmark",
                "base (ms)", "tiled-only(ms)", "opt+vec(ms)",
                "storage gain", "buffer reuse (peak bytes)");

    auto benches = paperBenchmarks(scale);
    for (auto &b : benches) {
        auto inputs = b.inputs();

        auto measure = [&](const CompileOptions &opts, const char *variant,
                           rt::MemoryStats *mem = nullptr) {
            rt::Executable exe = rt::Executable::build(b.spec, opts);
            auto outputs = exe.run(b.params, inputs);
            if (report.enabled()) {
                report.add(b.name + "/" + variant, b.sizeLabel, exe,
                           exe.profile(b.params, inputs));
            }
            const double t = timeBestOf(
                [&] { exe.runInto(b.params, inputs, outputs); }, 2);
            if (mem != nullptr)
                *mem = exe.memoryStats();
            return t;
        };

        const double t_base =
            measure(CompileOptions::baseline(true), "base");
        CompileOptions no_store = b.tuned; // tiling, no scratchpads
        no_store.codegen.storageOpt = false;
        const double t_tiled = measure(no_store, "tiled-only");
        rt::MemoryStats mem, mem_flat;
        const double t_opt = measure(b.tuned, "opt+vec", &mem);
        // Liveness-driven slot sharing off: same schedule, one
        // allocation per intermediate (the memory ablation).
        CompileOptions no_reuse = b.tuned;
        no_reuse.codegen.bufferReuse = false;
        measure(no_reuse, "opt+vec-no-reuse", &mem_flat);

        char reuse[64] = "-";
        if (mem.intermediates > 0) {
            std::snprintf(reuse, sizeof reuse, "%s -> %s",
                          formatBytes(mem_flat.poolPeakBytesInUse)
                              .c_str(),
                          formatBytes(mem.poolPeakBytesInUse).c_str());
        }
        char gain[32];
        std::snprintf(gain, sizeof gain, "%.2fx", t_tiled / t_opt);
        std::printf("%-18s | %10.2f %14.2f %12.2f | %-12s | %s\n",
                    b.name.c_str(), t_base * 1e3, t_tiled * 1e3,
                    t_opt * 1e3, gain, reuse);
        std::fflush(stdout);
    }

    std::printf("\n'storage gain' = tiled-without-scratchpads time over "
                "full opt+vec time.\n'buffer reuse' = peak intermediate "
                "bytes without -> with slot sharing.\n");
    return report.write() ? 0 : 1;
}
