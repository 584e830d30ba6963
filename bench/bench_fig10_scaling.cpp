/**
 * @file
 * Experiment F10: regenerates the paper's Figure 10 -- per application,
 * speedups over PolyMage base (1 core) for 1..16 cores and every
 * configuration: PolyMage {base, base+vec, opt, opt+vec} and the
 * tuned comparator {tuned, tuned+vec}.
 *
 * 1-core times are measured; multi-core points use the per-task LPT
 * model (PolyMage variants) or the per-pass barrier model
 * (comparators).  POLYMAGE_BENCH_SCALE scales image sizes (default
 * 0.5 to keep the six-app sweep quick; use 1.0 for paper sizes).
 */
#include <cstdio>

#include "bench_util.hpp"
#include "runtime/scaling.hpp"

using namespace polymage;
using namespace polymage::bench;

namespace {

const int kWorkers[] = {1, 2, 4, 8, 16};

struct Series
{
    std::string name;
    double t1 = 0.0;          // measured 1-core seconds
    double modeled[5] = {0};  // modelled seconds per worker count
};

Series
polymageSeries(const char *name, const AppBench &b,
               const CompileOptions &opts)
{
    rt::Executable exe = rt::Executable::build(b.spec, opts);
    auto inputs = b.inputs();
    auto outputs = exe.run(b.params, inputs);

    Series s;
    s.name = name;
    s.t1 = timeBestOf([&] { exe.runInto(b.params, inputs, outputs); },
                      2);
    rt::TaskProfile prof = exe.profile(b.params, inputs);
    const double model1 = rt::predictTime(prof, 1);
    const double calib = model1 > 0 ? s.t1 / model1 : 1.0;
    for (int i = 0; i < 5; ++i)
        s.modeled[i] = rt::predictTime(prof, kWorkers[i]) * calib;
    return s;
}

Series
comparatorSeries(const char *name, const AppBench &b, bool vectorize)
{
    Series s;
    s.name = name;
    cmp::CmpResult warm = b.htuned(vectorize);
    s.t1 = timeBestOf([&] { b.htuned(vectorize); }, 2);
    const double calib = warm.totalSeconds() > 0
                             ? s.t1 / warm.totalSeconds()
                             : 1.0;
    for (int i = 0; i < 5; ++i)
        s.modeled[i] =
            cmp::modeledTime(warm.passes, kWorkers[i]) * calib;
    return s;
}

} // namespace

int
main()
{
    const double scale = benchScale(0.5);
    std::printf("==== Figure 10: speedups over PolyMage base (1 core), "
                "scale %.2f ====\n",
                scale);

    auto benches = paperBenchmarks(scale);
    for (auto &b : benches) {
        std::printf("\n-- %s (%s) --\n", b.name.c_str(),
                    b.sizeLabel.c_str());

        std::vector<Series> series;
        series.push_back(polymageSeries(
            "PolyMage(base)", b, CompileOptions::baseline(false)));
        series.push_back(polymageSeries(
            "PolyMage(base+vec)", b, CompileOptions::baseline(true)));
        CompileOptions opt_novec = b.tuned;
        opt_novec.codegen.vectorize = cg::VectorizeMode::Off;
        series.push_back(polymageSeries("PolyMage(opt)", b, opt_novec));
        series.push_back(polymageSeries("PolyMage(opt+vec)", b,
                                        b.tuned));
        if (b.htuned) {
            series.push_back(comparatorSeries("Htuned(tuned)", b,
                                              false));
            series.push_back(
                comparatorSeries("Htuned(tuned+vec)", b, true));
        }

        const double base1 = series[0].modeled[0];
        std::printf("%-20s", "cores:");
        for (int w : kWorkers)
            std::printf(" %7d", w);
        std::printf("\n");
        for (const auto &s : series) {
            std::printf("%-20s", s.name.c_str());
            for (int i = 0; i < 5; ++i)
                std::printf(" %7.2f", base1 / s.modeled[i]);
            std::printf("\n");
        }
        std::fflush(stdout);
    }

    std::printf("\nNotes: values are speedups over PolyMage(base) on 1\n"
                "core, as in Fig. 10.  1-core points measured; others\n"
                "modelled (single-core container, see EXPERIMENTS.md).\n");
    return 0;
}
