/**
 * @file
 * Ablation A2: the overlap threshold (paper §3.5's o_thresh), the knob
 * balancing redundant computation against locality.  Sweeps the
 * threshold on a deep stencil chain and on Harris, reporting the group
 * count the heuristic produces and the measured runtime.
 */
#include <cstdio>

#include "bench_util.hpp"

using namespace polymage;
using namespace polymage::bench;
using namespace polymage::dsl;

namespace {

/** A deep chain of wide 1-D stencils (stresses the trade-off). */
PipelineSpec
deepChain(std::int64_t rows_est, std::int64_t cols_est, int depth)
{
    Parameter R("R"), C("C");
    Image I("I", DType::Float, {Expr(R), Expr(C)});
    Variable x("x"), y("y");
    std::vector<Function> fs;
    for (int kk = 0; kk < depth; ++kk) {
        const int m = 4 * (kk + 1);
        Interval rows(Expr(m), Expr(R) - 1 - m);
        Interval cols(Expr(0), Expr(C) - 1);
        Function f("s" + std::to_string(kk), {x, y}, {rows, cols},
                   DType::Float);
        auto src = [&](Expr i, Expr j) {
            return kk == 0 ? I(i, j) : fs.back()(i, j);
        };
        f.define(stencil1d([&](Expr i) { return src(i, Expr(y)); },
                           Expr(x), {0.1, 0.2, 0.4, 0.2, 0.1}));
        fs.push_back(f);
    }
    PipelineSpec spec("deep_chain");
    spec.addParam(R);
    spec.addParam(C);
    spec.addInput(I);
    spec.addOutput(fs.back());
    spec.estimate(R, rows_est);
    spec.estimate(C, cols_est);
    return spec;
}

void
sweep(const char *name, const PipelineSpec &spec,
      const std::vector<std::int64_t> &params,
      const std::vector<const rt::Buffer *> &inputs,
      ProfileJsonReport &report)
{
    std::printf("\n-- %s --\n", name);
    std::printf("%8s | %7s %7s | %12s\n", "othresh", "groups", "merges",
                "time (ms)");
    for (double th : {0.05, 0.1, 0.2, 0.4, 0.6, 0.9}) {
        CompileOptions opts;
        opts.grouping.overlapThreshold = th;
        rt::Executable exe = rt::Executable::build(spec, opts);
        auto outputs = exe.run(params, inputs);
        if (report.enabled()) {
            char label[64];
            std::snprintf(label, sizeof(label), "%s/othresh=%.2f", name,
                          th);
            report.add(label, "", exe, exe.profile(params, inputs));
        }
        const double t = timeBestOf(
            [&] { exe.runInto(params, inputs, outputs); }, 2);
        std::printf("%8.2f | %7zu %7d | %12.2f\n", th,
                    exe.info().grouping.groups.size(),
                    exe.info().grouping.mergeCount, t * 1e3);
        std::fflush(stdout);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const double scale = benchScale(0.5);
    ProfileJsonReport report(profileJsonPath(argc, argv));
    std::printf("==== Ablation: overlap threshold sweep (scale %.2f) "
                "====\n",
                scale);

    {
        const std::int64_t R = scaled(2048, scale),
                           C = scaled(2048, scale);
        auto spec = deepChain(R, C, 12);
        rt::Buffer in = rt::synth::photo(R, C);
        sweep("deep 5-tap chain (12 stages)", spec, {R, C}, {&in},
              report);
    }
    {
        const std::int64_t R = scaled(4096, scale),
                           C = scaled(4096, scale);
        auto spec = apps::buildHarris(R, C);
        rt::Buffer in = rt::synth::photo(R + 2, C + 2);
        sweep("Harris corner detection", spec, {R, C}, {&in}, report);
    }
    return report.write() ? 0 : 1;
}
