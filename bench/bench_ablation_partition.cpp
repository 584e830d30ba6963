/**
 * @file
 * Ablation A3: boundary/interior partitioning.  The guard-free
 * interior path (DNF-split case conditions, `omp simd` on dense inner
 * loops) is compared against the unpartitioned build (the
 * POLYMAGE_NO_PARTITION ablation); invariant address hoisting stays on
 * in both, so the gain is partitioning's alone.  Runs the seven paper
 * benchmarks plus a synthetic boundary-heavy stencil chain whose case
 * disjunction actually exercises the DNF splitter (the paper apps'
 * conditions all fold into bounds or strides).
 */
#include <cstdio>

#include "bench_util.hpp"
#include "dsl/dsl.hpp"

using namespace polymage;
using namespace polymage::bench;

namespace {

/**
 * Two-stage stencil chain with a disjunctive border case: the border
 * copies the producer, the interior applies a 3x3 box.  Without
 * partitioning the generated inner loop re-tests the border predicate
 * at every point; with it, the interior becomes one dense guard-free
 * nest plus four narrow strips.
 */
AppBench
boundaryBench(double scale)
{
    using namespace dsl;
    const std::int64_t Rv = scaled(2048, scale),
                       Cv = scaled(2048, scale);

    Parameter R("R"), C("C");
    Image I("I", DType::Float, {Expr(R), Expr(C)});
    Variable x("x"), y("y");
    Interval rows(Expr(0), Expr(R) - 1), cols(Expr(0), Expr(C) - 1);

    Function pre("pre", {x, y}, {rows, cols}, DType::Float);
    pre.define((I(x, y) + I(min(Expr(x) + 1, Expr(R) - 1), y)) *
               Expr(0.5));

    Condition border = (Expr(x) <= 0) | (Expr(x) >= Expr(R) - 1) |
                       (Expr(y) <= 0) | (Expr(y) >= Expr(C) - 1);
    Condition interior = (Expr(x) >= 1) & (Expr(x) <= Expr(R) - 2) &
                         (Expr(y) >= 1) & (Expr(y) <= Expr(C) - 2);
    Function out("edge", {x, y}, {rows, cols}, DType::Float);
    out.define({Case(border, pre(x, y)),
                Case(interior,
                     stencil([&](Expr i, Expr j) { return pre(i, j); },
                             x, y, {{1, 1, 1}, {1, 1, 1}, {1, 1, 1}},
                             1.0 / 9))});

    PipelineSpec spec("boundary_chain");
    spec.addParam(R);
    spec.addParam(C);
    spec.addInput(I);
    spec.addOutput(out);
    spec.estimate(R, Rv);
    spec.estimate(C, Cv);

    AppBench b;
    b.name = "Boundary Chain";
    b.sizeLabel = std::to_string(Rv) + "x" + std::to_string(Cv);
    b.spec = std::move(spec);
    b.tuned.grouping.tileSizes = {32, 256};
    b.params = {Rv, Cv};
    b.inputStorage.push_back(rt::synth::photo(Rv, Cv));
    return b;
}

} // namespace

int
main(int argc, char **argv)
{
    const double scale = benchScale(0.5);
    ProfileJsonReport report(profileJsonPath(argc, argv));
    const std::string timings_path =
        argPath(argc, argv, "--timings-json");
    obs::JsonWriter tj;
    tj.beginObject();
    tj.key("schema").value("polymage-ablation-partition-v1");
    tj.key("scale").value(scale);
    tj.key("benchmarks").beginArray();
    std::printf("==== Ablation: interior partitioning (scale %.2f) "
                "====\n\n",
                scale);
    std::printf("%-18s | %12s %12s | %-9s | %s\n", "Benchmark",
                "no-part(ms)", "part (ms)", "part gain",
                "interior fraction");

    auto benches = paperBenchmarks(scale);
    benches.push_back(boundaryBench(scale));

    bool part_ok = true;
    for (auto &b : benches) {
        auto inputs = b.inputs();

        // Pin the fixed {32, 256} @ 0.4 baseline: this study isolates
        // the partition axis, so the tile cost model
        // must not move the tile-shape axis underneath it (and its
        // thin 8-row strips interact with partitioning -- a strip
        // whose halo spans most of its 8 rows leaves almost no
        // guard-free interior, a separate effect from the per-point
        // guards measured here).
        b.tuned.grouping.autoTile = false;

        double interior = 1.0;
        auto measure = [&](const CompileOptions &opts, const char *variant,
                           double *frac = nullptr) {
            rt::Executable exe = rt::Executable::build(b.spec, opts);
            auto outputs = exe.run(b.params, inputs);
            if (report.enabled()) {
                report.add(b.name + "/" + variant, b.sizeLabel, exe,
                           exe.profile(b.params, inputs));
            }
            if (frac != nullptr)
                *frac = exe.info().code.interiorFraction();
            return timeBestOf(
                [&] { exe.runInto(b.params, inputs, outputs); }, 5);
        };

        // The POLYMAGE_NO_PARTITION ablation: per-point guards stay.
        CompileOptions no_part = b.tuned;
        no_part.codegen.partition = false;
        const double t_none = measure(no_part, "no-partition");
        const double t_part = measure(b.tuned, "partition", &interior);

        if (t_part > t_none * 1.10) // 10% noise floor
            part_ok = false;
        std::printf("%-18s | %12.2f %12.2f | %8.2fx | %.2f\n",
                    b.name.c_str(), t_none * 1e3, t_part * 1e3,
                    t_none / t_part, interior);
        std::fflush(stdout);

        tj.beginObject();
        tj.key("name").value(b.name);
        tj.key("size").value(b.sizeLabel);
        tj.key("no_partition_ms").value(t_none * 1e3);
        tj.key("partition_ms").value(t_part * 1e3);
        tj.key("partition_gain").value(t_none / t_part);
        tj.key("interior_fraction").value(interior);
        tj.endObject();
    }
    tj.endArray();
    tj.endObject();
    if (!timings_path.empty()) {
        std::ofstream os(timings_path);
        os << tj.str() << "\n";
        std::printf("timings JSON written to %s\n",
                    timings_path.c_str());
    }

    std::printf("\n'part gain' = unpartitioned time over the partitioned "
                "time.\n'interior fraction' = guard-free share of "
                "emitted loop nests.\n");
    if (!part_ok)
        std::printf("WARNING: partitioned codegen slower than the "
                    "ablation on at least one benchmark\n");
    return report.write() && part_ok ? 0 : 1;
}
