/**
 * @file
 * Experiment T2: regenerates the paper's Table 2 -- per application,
 * the execution time of PolyMage (opt+vec) on 1/4/16 cores, the
 * speedup over the tuned comparator on 16 cores, and the
 * OpenCV-library-style time where applicable.
 *
 * On this single-core machine the 1-core numbers are measured; the
 * 4/16-core numbers come from the per-tile LPT scaling model (see
 * runtime/scaling.hpp and EXPERIMENTS.md).  POLYMAGE_BENCH_SCALE
 * scales the image sizes (default 1.0 = paper sizes).
 */
#include <cstdio>

#include "bench_util.hpp"
#include "runtime/scaling.hpp"

using namespace polymage;
using namespace polymage::bench;

int
main(int argc, char **argv)
{
    const double scale = benchScale(1.0);
    ProfileJsonReport report(profileJsonPath(argc, argv));
    std::printf("==== Table 2: benchmark summary (scale %.2f) ====\n\n",
                scale);
    std::printf("%-18s %6s %13s | %9s %9s %9s | %12s | %9s | %s\n",
                "Benchmark", "Stages", "Image size", "PM 1c(ms)",
                "PM 4c(ms)", "PM 16c(ms)", "vs H-tuned", "OpenCV(ms)",
                "vec off/explicit(ms)");

    auto benches = paperBenchmarks(scale);
    for (auto &b : benches) {
        // opt+vec, tuned tile sizes
        rt::Executable exe = rt::Executable::build(b.spec, b.tuned);
        const int stages = int(pg::PipelineGraph::build(b.spec)
                                   .stages()
                                   .size());

        auto inputs = b.inputs();
        auto outputs = exe.run(b.params, inputs);
        const double t1 = timeBestOf(
            [&] { exe.runInto(b.params, inputs, outputs); });

        // Vectorisation ablation: the same tuned schedule built with
        // vectorisation off.  The tuned default is Explicit, so its
        // measured t1 is reused.
        double off_ms = 0;
        {
            CompileOptions vopts = b.tuned;
            vopts.codegen.vectorize = cg::VectorizeMode::Off;
            rt::Executable vexe = rt::Executable::build(b.spec, vopts);
            auto vout = vexe.run(b.params, inputs);
            off_ms = timeBestOf(
                         [&] { vexe.runInto(b.params, inputs, vout); },
                         2) *
                     1e3;
        }
        char vec_col[64];
        std::snprintf(vec_col, sizeof vec_col, "%.2f/%.2f", off_ms,
                      t1 * 1e3);
        obs::JsonWriter vw;
        vw.beginObject();
        vw.key("off_ms").value(off_ms);
        vw.key("explicit_ms").value(t1 * 1e3);
        vw.endObject();

        rt::TaskProfile prof = exe.profile(b.params, inputs);
        report.add(b.name, b.sizeLabel, exe, prof, "vec_ablation",
                   vw.str());
        const double model1 = rt::predictTime(prof, 1);
        const double calib = model1 > 0 ? t1 / model1 : 1.0;
        const double t4 = rt::predictTime(prof, 4) * calib;
        const double t16 = rt::predictTime(prof, 16) * calib;

        std::string vs_htuned = "-";
        if (b.htuned) {
            cmp::CmpResult warm = b.htuned(true);
            const double h1 = timeBestOf([&] { b.htuned(true); }, 2);
            const double hcalib =
                warm.totalSeconds() > 0 ? h1 / warm.totalSeconds()
                                        : 1.0;
            const double h16 =
                cmp::modeledTime(warm.passes, 16) * hcalib;
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.2fx", h16 / t16);
            vs_htuned = buf;
        }

        std::string opencv = "-";
        if (b.libstyle) {
            const double l1 = timeBestOf([&] { b.libstyle(); }, 2);
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.2f", l1 * 1e3);
            opencv = buf;
        }

        const std::string mem = memorySummary(exe);
        std::printf("%-18s %6d %13s | %9.2f %9.2f %9.2f | %12s | %9s"
                    " | %s%s%s\n",
                    b.name.c_str(), stages, b.sizeLabel.c_str(),
                    t1 * 1e3, t4 * 1e3, t16 * 1e3, vs_htuned.c_str(),
                    opencv.c_str(), vec_col,
                    mem.empty() ? "" : " | ", mem.c_str());
        std::fflush(stdout);
    }

    std::printf("\nNotes: 1-core times measured; 4/16-core times are\n"
                "LPT-modelled from per-tile profiles (single-core\n"
                "container).  'vs H-tuned' compares modelled 16-core\n"
                "times against the hand-written tuned comparator.\n");
    return report.write() ? 0 : 1;
}
