/**
 * @file
 * Workload `batch`: the paper's Table 2 setting.  One client in a
 * closed loop runs the seven apps round-robin through
 * Executable::runInto at half the paper's image sizes, with the tuned
 * tile sizes, on OpenMP's default thread count.
 */
#include <algorithm>
#include <cstdio>
#include <optional>

#include "apps.hpp"
#include "bench.hpp"
#include "interp/interpreter.hpp"
#include "runtime/executor.hpp"

namespace pmbench {

using namespace polymage;

namespace {

/**
 * Tail percentile of run times.  p90 keeps ~50 samples beyond it at the
 * ~500 rounds a 20 s run gets on 4 cores; p95 (printed as run_p95_ms)
 * moved twice as much between runs on a shared VM, because a hiccup in
 * 5% of the runs of one fast app already shifts it.
 */
constexpr double kTailQ = 0.90;
/** Comparator repetitions per app (traced runs only). */
constexpr int kCmpRepeats = 7;

/** The driver's compile-trace spans (docs/OBSERVABILITY.md). */
const char *const kPhases[] = {"graph_build", "inline",   "bounds_check",
                               "tile_model",  "grouping", "range_analysis",
                               "storage",     "codegen"};

struct Prepared
{
    App app;
    std::vector<std::int64_t> params;
    std::vector<rt::Buffer> inputs;
    std::vector<const rt::Buffer *> in;
    std::optional<rt::Executable> exe;
    std::vector<rt::Buffer> outputs;
};

std::vector<Prepared>
setup(const RunConfig &cfg, SpanLog *trace)
{
    ScopedSpan all(trace, "batch.setup", "bench");
    std::vector<Prepared> out;
    std::uint64_t seed = cfg.seed * 1000;
    for (const std::string &key : appKeys()) {
        Prepared p;
        p.app = makeApp(key, kBatchScale);
        p.params = p.app.params(p.app.est);
        p.inputs = p.app.inputs(p.app.est, ++seed);
        p.in = pointers(p.inputs);
        {
            ScopedSpan build(trace, "Executable::build", "executable",
                             all.id());
            const Clock::time_point t0 = Clock::now();
            p.exe.emplace(
                rt::Executable::build(p.app.spec, p.app.tunedOptions()));
            addCompileSpans(trace, p.exe->trace(), t0, build.id());
        }
        // Allocates the outputs; also the warm-up run.
        p.outputs = p.exe->run(p.params, p.in);
        out.push_back(std::move(p));
    }
    return out;
}

double
spanMs(const std::vector<obs::Span> &spans, const std::string &name)
{
    double ms = 0.0;
    for (const obs::Span &s : spans)
        if (s.parent < 0 && s.name == name)
            ms += s.seconds() * 1e3;
    return ms;
}

/** Median seconds of @p fn over kCmpRepeats calls after a warm-up. */
template <typename Fn>
double
medianSeconds(SpanLog *trace, const std::string &name, long long parent,
              Fn &&fn)
{
    fn();
    Samples s;
    for (int r = 0; r < kCmpRepeats; ++r) {
        ScopedSpan span(trace, name, "cmp", parent);
        const Clock::time_point t0 = Clock::now();
        fn();
        s.add(secondsBetween(t0, Clock::now()));
    }
    return s.median();
}

} // namespace

BodyResult
runBatch(const RunConfig &cfg, SpanLog *trace)
{
    BodyResult res;

    // Set up several times; the median is setup_s and the last set is
    // measured.  Each set is released before the next is built.
    Samples setup_s;
    std::vector<Prepared> apps;
    for (int r = 0; r < kSetupRepeats; ++r) {
        apps.clear();
        const Clock::time_point t0 = Clock::now();
        apps = setup(cfg, r + 1 == kSetupRepeats ? trace : nullptr);
        setup_s.add(secondsBetween(t0, Clock::now()));
    }

    resetPeakRss();
    std::vector<std::uint64_t> allocs_before;
    for (const Prepared &p : apps)
        allocs_before.push_back(p.exe->memoryStats().poolBlockAllocs);

    // Timed closed loop: whole rounds over the seven apps.
    std::vector<Samples> run_s(apps.size());
    {
        ScopedSpan loop(trace, "batch.run", "bench");
        const Clock::time_point start = Clock::now();
        const Clock::time_point stop = offsetFrom(start, cfg.seconds);
        long long round = 0;
        while (Clock::now() < stop) {
            for (std::size_t i = 0; i < apps.size(); ++i) {
                Prepared &p = apps[i];
                const Clock::time_point t0 = Clock::now();
                res.attempted += 1;
                try {
                    p.exe->runInto(p.params, p.in, p.outputs);
                } catch (const std::exception &e) {
                    res.failed += 1;
                    std::fprintf(stderr, "batch %s: %s\n",
                                 p.app.key.c_str(), e.what());
                }
                const Clock::time_point t1 = Clock::now();
                run_s[i].add(secondsBetween(t0, t1));
                if (trace)
                    trace->add("runInto", "executor", t0, t1, loop.id(),
                               round);
            }
            ++round;
        }
    }

    std::vector<double> p50s, tails, p95s;
    std::uint64_t steady_allocs = 0;
    std::map<std::string, double> phase_ms;
    double jit_ms = 0.0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const Prepared &p = apps[i];
        const std::string &k = p.app.key;
        p50s.push_back(run_s[i].median() * 1e3);
        tails.push_back(run_s[i].quantile(kTailQ) * 1e3);
        p95s.push_back(run_s[i].quantile(0.95) * 1e3);
        std::printf("  batch %-9s %5lldx%-5lld run %s\n", k.c_str(),
                    (long long)p.app.est.rows, (long long)p.app.est.cols,
                    run_s[i].summary(1e3, "ms").c_str());

        const auto &spans = p.exe->trace();
        double compile_ms = 0.0;
        for (const obs::Span &s : spans)
            if (s.parent < 0 && s.name != "jit")
                compile_ms += s.seconds() * 1e3;
        for (const char *ph : kPhases)
            phase_ms[ph] += spanMs(spans, ph);
        jit_ms += spanMs(spans, "jit");

        const rt::MemoryStats m = p.exe->memoryStats();
        steady_allocs += m.poolBlockAllocs - allocs_before[i];
        res.layers["driver.compile_ms." + k] = {compile_ms, "ms"};
        res.layers["core.groups." + k] = {
            double(p.exe->info().grouping.groups.size()), "count"};
        res.layers["executor.run_p50_ms." + k] = {run_s[i].median() * 1e3,
                                                  "ms"};
        res.layers["executor.run_p95_ms." + k] = {
            run_s[i].quantile(0.95) * 1e3, "ms"};
        res.layers["pool.peak_mb." + k] = {
            double(m.poolPeakBytesInUse) / (1 << 20), "MB"};
    }
    for (const auto &[ph, ms] : phase_ms)
        res.layers[std::string("driver.phase_ms.") + ph] = {ms, "ms"};
    double explicit_nests = 0.0;
    for (const Prepared &p : apps)
        explicit_nests += p.exe->info().code.explicitNests;
    res.layers["codegen.explicit_nests"] = {explicit_nests, "count"};
    res.layers["jit.warm_load_ms"] = {jit_ms / double(apps.size()), "ms"};
    res.layers["pool.steady_allocs"] = {double(steady_allocs), "count"};

    res.e2e["setup_s"] = {setup_s.median(), "s"};
    res.e2e["p50_ms"] = {geomean(p50s), "ms"};
    res.e2e["tail_ms"] = {geomean(tails), "ms"};
    std::printf("  batch: run_p50_ms %.4f ms | run_p90_ms %.4f ms | "
                "run_p95_ms %.4f ms | %zu rounds | setup %s\n",
                geomean(p50s), geomean(tails), geomean(p95s), run_s[0].n(),
                setup_s.summary(1.0, "s").c_str());

    // The H-tuned and OpenCV-style baselines on the same inputs and
    // cores (traced runs only).  No change to the program moves them,
    // so their drift between run sets measures the machine.
    if (trace) {
        ScopedSpan cmp_span(trace, "comparators", "bench");
        std::vector<double> speedups;
        for (std::size_t i = 0; i < apps.size(); ++i) {
            const Prepared &p = apps[i];
            const double h = medianSeconds(
                trace, "cmp::htuned", cmp_span.id(),
                [&] { p.app.htuned(p.inputs); });
            res.layers["cmp.htuned_ms." + p.app.key] = {h * 1e3, "ms"};
            speedups.push_back(h / run_s[i].median());
            if (p.app.hasLibstyle()) {
                const double l = medianSeconds(
                    trace, "cmp::libstyle", cmp_span.id(),
                    [&] { p.app.libstyle(p.inputs); });
                res.layers["cmp.libstyle_ms." + p.app.key] = {l * 1e3,
                                                              "ms"};
            }
        }
        res.layers["cmp.speedup_vs_htuned"] = {geomean(speedups), "x"};
    }

    // Output check at a small seeded shape: generated code is valid for
    // every size (paper §3.5), and the interpreter is the oracle.
    {
        ScopedSpan check(trace, "batch.check", "bench");
        std::uint64_t seed = cfg.seed * 7919;
        for (Prepared &p : apps) {
            const std::int64_t base =
                std::max<std::int64_t>(96, p.app.levels > 0
                                               ? 2LL << (p.app.levels - 1)
                                               : 0);
            ++seed;
            const Shape s{base + 16 * std::int64_t(seed % 4),
                          base + 16 * std::int64_t((seed / 4) % 4)};
            const auto params = p.app.params(s);
            const auto inputs = p.app.inputs(s, seed);
            const auto in = pointers(inputs);
            res.attempted += 1;
            res.checked += 1;
            bool ok = false;
            try {
                const auto got = p.exe->run(params, in);
                interp::EvalResult ref;
                {
                    ScopedSpan span(trace, "interp::evaluate", "interp",
                                    check.id());
                    ref = interp::evaluate(
                        pg::PipelineGraph::build(p.app.spec), params, in);
                }
                ok = outputsMatch(got, ref.outputs, p.app.tol);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "batch check %s: %s\n",
                             p.app.key.c_str(), e.what());
            }
            if (!ok) {
                res.mismatches += 1;
                res.failed += 1;
                std::fprintf(stderr, "batch check %s: mismatch at %lldx%lld\n",
                             p.app.key.c_str(), (long long)s.rows,
                             (long long)s.cols);
            }
        }
    }
    return res;
}

} // namespace pmbench
