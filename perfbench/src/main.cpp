/**
 * @file
 * pmbench: the repository benchmark.
 *
 *   pmbench prepare [--work-dir D]
 *       Fill the JIT cache (selected by XDG_CACHE_HOME) with every
 *       variant the `batch` and `serve-mixed` workloads load.
 *   pmbench run --workload W --seed N --seconds S --trace 0|1
 *               [--work-dir D]
 *       Run workload W (batch, serve-mixed or cold-start).  The last
 *       line of standard output is one JSON object:
 *       {"correct", "attempted", "failed", "metrics"}.  With --trace 0
 *       the metrics are the end-to-end ones; with --trace 1 they are the
 *       per-layer ones of a traced run of all three workload bodies,
 *       plus the tracing overhead on W.
 *
 * See README.md next to this directory for the workloads and metrics.
 */
#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "apps.hpp"
#include "apps/apps.hpp"
#include "bench.hpp"
#include "runtime/executor.hpp"

namespace pmbench {

using namespace polymage;

void
fillJitCache(int threads)
{
    struct Entry
    {
        dsl::PipelineSpec spec;
        CompileOptions opts;
    };
    std::vector<Entry> entries;
    for (const std::string &key : appKeys()) {
        App batch = makeApp(key, kBatchScale);
        entries.push_back({batch.spec, batch.tunedOptions()});
        App serving = makeApp(key, kServeScale);
        entries.push_back({serving.spec, CompileOptions::serving()});
    }
    entries.push_back(
        {apps::buildTemporalDenoise(kStreamRows, kStreamCols),
         CompileOptions::serving()});

    std::atomic<std::size_t> next{0};
    std::atomic<int> failures{0};
    auto work = [&] {
        for (std::size_t i = next++; i < entries.size(); i = next++) {
            try {
                rt::Executable::build(entries[i].spec, entries[i].opts);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "prepare %s: %s\n",
                             entries[i].spec.name().c_str(), e.what());
                failures += 1;
            }
        }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(work);
    for (std::thread &t : pool)
        t.join();
    if (failures > 0)
        throw std::runtime_error("JIT cache fill failed");
}

namespace {

/** Layers whose self time a traced run reports. */
const char *const kSpanLayers[] = {"driver", "jit",   "executor", "interp",
                                   "cmp",    "registry", "engine", "queue",
                                   "stream"};

BodyResult
runBody(const std::string &workload, const RunConfig &cfg, SpanLog *trace)
{
    if (workload == "batch")
        return runBatch(cfg, trace);
    if (workload == "serve-mixed")
        return runServeMixed(cfg, trace);
    if (workload == "cold-start")
        return runColdStart(cfg, trace);
    throw std::invalid_argument("unknown workload '" + workload + "'");
}

void
accumulate(BodyResult &into, const BodyResult &from)
{
    into.attempted += from.attempted;
    into.failed += from.failed;
    into.mismatches += from.mismatches;
    into.checked += from.checked;
    for (const auto &[name, m] : from.layers)
        into.layers[name] = m;
}

std::string
resultJson(const BodyResult &r, const Metrics &metrics)
{
    std::string out = "{\"correct\": ";
    out += (r.failed == 0 && r.mismatches == 0 && r.checked > 0)
               ? "true"
               : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        out += first ? "" : ", ";
        out += "\"" + obs::jsonEscape(name) + "\": {\"value\": " + value +
               ", \"unit\": \"" + obs::jsonEscape(m.unit) + "\"}";
        first = false;
    }
    out += "}}";
    return out;
}

int
run(const RunConfig &cfg)
{
    std::printf("pmbench: workload %s, seed %llu, %.3g s, trace %d, "
                "%d OpenMP threads, %u hardware threads\n",
                cfg.workload.c_str(), (unsigned long long)cfg.seed,
                cfg.seconds, cfg.trace ? 1 : 0, omp_get_max_threads(),
                std::thread::hardware_concurrency());
    std::fflush(stdout);

    const CpuTimes cpu_start = cpuTimes();
    // Share of the machine's CPU time the hypervisor gave to others: a
    // run with much of it measured a disturbed machine, not the code.
    auto stealPct = [&] {
        const CpuTimes now = cpuTimes();
        const double total = now.total - cpu_start.total;
        return total > 0 ? (now.steal - cpu_start.steal) / total * 100.0
                         : 0.0;
    };
    BodyResult res = runBody(cfg.workload, cfg, nullptr);
    if (!cfg.trace) {
        std::printf("  machine: CPU steal %.2f%% during the run\n",
                    stealPct());
        Metrics metrics = res.e2e;
        metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
        std::printf("  %s: fail_frac %.6f ratio (%llu failed of %llu, "
                    "%llu outputs checked, %llu mismatched)\n",
                    cfg.workload.c_str(),
                    double(res.failed) / double(std::max<std::uint64_t>(
                                             res.attempted, 1)),
                    (unsigned long long)res.failed,
                    (unsigned long long)res.attempted,
                    (unsigned long long)res.checked,
                    (unsigned long long)res.mismatches);
        for (const auto &[name, m] : metrics)
            std::printf("  metric %-12s %.6g %s\n", name.c_str(), m.value,
                        m.unit.c_str());
        std::printf("%s\n", resultJson(res, metrics).c_str());
        return 0;
    }

    // Traced run: every workload body, traced, so every layer reports.
    // The body of the named workload ran untraced above; its traced
    // twin gives the tracing overhead.
    SpanLog log;
    RunConfig traced = cfg;
    traced.seconds = cfg.seconds / 2;
    BodyResult all;
    double traced_p50 = 0.0;
    for (const char *w : {"batch", "serve-mixed", "cold-start"}) {
        std::printf("pmbench: traced body %s\n", w);
        std::fflush(stdout);
        BodyResult b = runBody(w, traced, &log);
        if (w == cfg.workload)
            traced_p50 = b.e2e["p50_ms"].value;
        accumulate(all, b);
    }
    all.attempted += res.attempted;
    all.failed += res.failed;
    all.mismatches += res.mismatches;
    all.checked += res.checked;
    Metrics metrics = all.layers;
    const auto self = log.selfMsByLayer();
    for (const char *layer : kSpanLayers) {
        const auto it = self.find(layer);
        metrics[std::string("self_ms.") + layer] = {
            it == self.end() ? 0.0 : it->second, "ms"};
    }
    const double untraced_p50 = res.e2e["p50_ms"].value;
    metrics["machine.steal_pct"] = {stealPct(), "%"};
    metrics["trace.overhead_pct"] = {
        untraced_p50 > 0 ? (traced_p50 / untraced_p50 - 1.0) * 100.0 : 0.0,
        "%"};
    std::printf("  trace: p50_ms untraced %.4f traced %.4f (%+.2f%%), "
                "%zu spans\n",
                untraced_p50, traced_p50,
                metrics["trace.overhead_pct"].value, log.size());

    const std::string dir = cfg.workDir + "/trace";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" + cfg.workload + "-seed" +
                             std::to_string(cfg.seed) + ".json";
    if (log.write(path))
        std::printf("  trace: spans written to %s\n", path.c_str());
    std::printf("%s\n", resultJson(all, metrics).c_str());
    return 0;
}

const char *
argValue(int argc, char **argv, const char *flag)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return nullptr;
}

} // namespace

} // namespace pmbench

int
main(int argc, char **argv)
{
    using namespace pmbench;
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: pmbench prepare | run --workload W --seed N "
                     "--seconds S --trace 0|1 [--work-dir D]\n");
        return 2;
    }
    RunConfig cfg;
    if (const char *d = argValue(argc, argv, "--work-dir"))
        cfg.workDir = d;
    try {
        if (std::strcmp(argv[1], "prepare") == 0) {
            const unsigned hw = std::thread::hardware_concurrency();
            fillJitCache(int(std::clamp(hw, 1u, 4u)));
            return 0;
        }
        if (std::strcmp(argv[1], "run") != 0) {
            std::fprintf(stderr, "unknown command %s\n", argv[1]);
            return 2;
        }
        const char *w = argValue(argc, argv, "--workload");
        const char *seed = argValue(argc, argv, "--seed");
        const char *secs = argValue(argc, argv, "--seconds");
        const char *trace = argValue(argc, argv, "--trace");
        if (!w || !seed || !secs) {
            std::fprintf(stderr, "run needs --workload, --seed and "
                                 "--seconds\n");
            return 2;
        }
        cfg.workload = w;
        cfg.seed = std::stoull(seed);
        cfg.seconds = std::stod(secs);
        cfg.trace = trace != nullptr && std::strcmp(trace, "0") != 0;
        if (!(cfg.seconds > 0)) {
            std::fprintf(stderr, "--seconds must be positive\n");
            return 2;
        }
        return run(cfg);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pmbench: %s\n", e.what());
        return 1;
    }
}
