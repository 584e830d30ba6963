/**
 * @file
 * Workload `cold-start`: a fresh Engine with an empty, benchmark-private
 * JIT cache receives an open-loop trickle of small requests for
 * Unsharp, Camera and Pyramid Blending until each pipeline is served by
 * its compiled variant.  The interpreter tier answers meanwhile, so the
 * driver, code generation, g++ and the interpreter do the work.
 */
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <thread>
#include <unistd.h>

#include "apps.hpp"
#include "bench.hpp"
#include "interp/interpreter.hpp"
#include "serve/engine.hpp"

namespace pmbench {

using namespace polymage;
namespace fs = std::filesystem;

namespace {

/** The three pipelines, small to large generated source. */
const char *const kColdApps[] = {"unsharp", "camera", "pyramid"};
constexpr int kColdCount = 3;
/** Mean request rate of a pipeline's trickle (Poisson). */
constexpr double kTrickleRps = 2.0;
/** Give up on a pipeline that is not promoted by then. */
constexpr double kColdTimeoutSeconds = 100.0;
/** Bound on trickle requests (rate x pipelines x timeout, with slack). */
constexpr std::size_t kMaxRequests = 1024;

struct ColdApp
{
    App app;
    std::vector<std::int64_t> params;
    std::vector<rt::Buffer> inputs;
};

struct Setup
{
    std::string cacheDir;
    std::vector<ColdApp> apps;
    std::shared_ptr<serve::PipelineRegistry> registry;
    std::unique_ptr<serve::Engine> engine;
};

/**
 * Fresh private JIT cache, registry and engine.  The cache directory is
 * selected through XDG_CACHE_HOME before any compile starts.
 */
Setup
setup(const RunConfig &cfg, int tag)
{
    Setup s;
    s.cacheDir = fs::absolute(cfg.workDir + "/cold-cache/" +
                              std::to_string(::getpid()) + "-" +
                              std::to_string(tag))
                     .string();
    fs::remove_all(s.cacheDir);
    fs::create_directories(s.cacheDir);
    ::setenv("XDG_CACHE_HOME", s.cacheDir.c_str(), 1);
    s.registry = std::make_shared<serve::PipelineRegistry>();
    std::uint64_t seed = cfg.seed * 1000;
    for (const char *key : kColdApps) {
        ColdApp a;
        a.app = makeApp(key, kServeScale);
        a.params = a.app.params(a.app.est);
        a.inputs = a.app.inputs(a.app.est, ++seed);
        s.registry->add(key, a.app.spec, CompileOptions::serving());
        s.apps.push_back(std::move(a));
    }
    s.engine = std::make_unique<serve::Engine>(s.registry);
    return s;
}

void
teardown(Setup &s)
{
    if (s.engine)
        s.engine->drain();
    s.engine.reset();
    s.registry.reset();
    std::error_code ec;
    fs::remove_all(s.cacheDir, ec);
}

struct Record
{
    int app = 0;
    Clock::time_point due;
    Clock::time_point submitted;
    Clock::time_point done;
    double runSeconds = 0.0;
    int tier = 0;
    bool ok = false;
};

/** Per-pipeline progress, written by engine callbacks. */
struct ColdState
{
    std::vector<Record> records = std::vector<Record>(kMaxRequests);
    std::mutex mu;
    std::condition_variable cv;
    std::size_t completed = 0;
    std::atomic<bool> promoted[kColdCount] = {};
    /** First response of each tier, kept for the output check. */
    std::vector<rt::Buffer> firstOut[kColdCount][2];
    bool haveOut[kColdCount][2] = {};
    Clock::time_point firstDone[kColdCount];
    Clock::time_point firstCompiled[kColdCount];
    bool anyDone[kColdCount] = {};
};

/** What the cold start measured for one pipeline. */
struct PipelineResult
{
    bool promoted = false;
    /** First submit to first response. */
    double firstMs = 0.0;
    /** Latency (from due) of the interpreter-tier responses. */
    Samples coldLatency;
    /** First request to first compiled-tier response. */
    double readyMs = 0.0;
    /** First response to first compiled-tier response. */
    double promotionS = 0.0;
    Samples interpRun;
    /** The variant's `jit` span: g++ plus load. */
    double jitS = 0.0;
};

/**
 * One cold start: a seeded Poisson trickle, one pipeline at a time
 * from the smallest generated source to the largest, so each compile
 * and its first answers are measured without the other compiles
 * competing for the cores.  A pipeline's trickle stops at its first
 * compiled-tier response.  Both tiers' first outputs are checked.
 */
std::vector<PipelineResult>
coldStart(Setup &s, const std::vector<std::vector<rt::Buffer>> &refs,
          std::mt19937_64 &rng, SpanLog *trace, BodyResult &res)
{
    auto st = std::make_shared<ColdState>();
    std::exponential_distribution<double> gap(kTrickleRps);
    Clock::time_point first_due[kColdCount];
    std::size_t n = 0;
    {
        ScopedSpan trickle(trace, "cold.trickle", "bench");
        for (int p = 0; p < kColdCount; ++p) {
            first_due[p] = Clock::now();
            for (double due_s = 0.0;
                 due_s <= kColdTimeoutSeconds && n < kMaxRequests;
                 due_s += gap(rng)) {
                Record &rec = st->records[n];
                rec.app = p;
                rec.due = offsetFrom(first_due[p], due_s);
                std::this_thread::sleep_until(rec.due);
                if (st->promoted[p])
                    break;
                rec.submitted = Clock::now();
                const ColdApp &a = s.apps[std::size_t(p)];
                serve::Request req;
                req.pipeline = a.app.key;
                req.params = a.params;
                for (const rt::Buffer &b : a.inputs)
                    req.inputs.push_back(borrow(b));
                const std::size_t i = n++;
                s.engine->submit(std::move(req), [st, i, p, trace](
                                                     serve::Response r) {
                    const Clock::time_point now = Clock::now();
                    std::lock_guard<std::mutex> lock(st->mu);
                    Record &rec = st->records[i];
                    rec.done = now;
                    rec.runSeconds = r.runSeconds;
                    rec.tier = r.tier;
                    rec.ok = r.ok();
                    if (!r.ok())
                        std::fprintf(stderr,
                                     "cold-start request failed: %s\n",
                                     r.error.c_str());
                    if (!st->anyDone[p]) {
                        st->anyDone[p] = true;
                        st->firstDone[p] = now;
                    }
                    const int t = r.tier == 2 ? 1 : 0;
                    if (r.ok() && r.tier > 0 && !st->haveOut[p][t]) {
                        st->haveOut[p][t] = true;
                        st->firstOut[p][t] = std::move(r.outputs);
                    }
                    if (r.ok() && r.tier == 2 && !st->promoted[p]) {
                        st->firstCompiled[p] = now;
                        st->promoted[p] = true;
                    }
                    if (trace) {
                        const long long id = trace->add(
                            "Engine::submit", "engine", rec.submitted, now,
                            -1, (long long)i);
                        trace->add("queue", "queue", rec.submitted,
                                   offsetFrom(rec.submitted,
                                              r.queueSeconds),
                                   id, (long long)i);
                        trace->add(r.tier == 1 ? "interp::evaluate" : "run",
                                   r.tier == 1 ? "interp" : "executor",
                                   offsetFrom(now, -r.runSeconds), now, id,
                                   (long long)i);
                    }
                    st->completed += 1;
                    st->cv.notify_all();
                });
            }
        }
        std::unique_lock<std::mutex> lock(st->mu);
        st->cv.wait_for(lock, std::chrono::seconds(60),
                        [&] { return st->completed == n; });
    }

    std::vector<PipelineResult> out(kColdCount);
    std::lock_guard<std::mutex> lock(st->mu);
    for (std::size_t i = 0; i < n; ++i) {
        const Record &rec = st->records[i];
        res.attempted += 1;
        res.failed += rec.ok ? 0 : 1;
        if (rec.ok && rec.tier == 1) {
            PipelineResult &pr = out[std::size_t(rec.app)];
            pr.interpRun.add(rec.runSeconds);
            pr.coldLatency.add(secondsBetween(rec.due, rec.done));
        }
    }
    for (int p = 0; p < kColdCount; ++p) {
        PipelineResult &pr = out[std::size_t(p)];
        const std::string &key = s.apps[std::size_t(p)].app.key;
        if (!st->promoted[p] || !st->anyDone[p]) {
            res.failed += 1;
            std::fprintf(stderr, "cold-start %s: not promoted\n",
                         key.c_str());
            continue;
        }
        pr.promoted = true;
        pr.firstMs = secondsBetween(first_due[p], st->firstDone[p]) * 1e3;
        pr.readyMs =
            secondsBetween(first_due[p], st->firstCompiled[p]) * 1e3;
        pr.promotionS =
            secondsBetween(st->firstDone[p], st->firstCompiled[p]);
        for (const obs::Span &sp : s.registry->get(key)->trace())
            if (sp.parent < 0 && sp.name == "jit")
                pr.jitS += sp.seconds();
        std::printf("  cold-start %-8s first_response %.2f ms | cold "
                    "latency %s | compiled_ready %.3f s\n",
                    key.c_str(), pr.firstMs,
                    pr.coldLatency.summary(1e3, "ms").c_str(),
                    pr.readyMs * 1e-3);
        for (int t = 0; t < 2; ++t) {
            if (!st->haveOut[p][t])
                continue;
            res.attempted += 1;
            res.checked += 1;
            if (!outputsMatch(st->firstOut[p][t], refs[std::size_t(p)],
                              s.apps[std::size_t(p)].app.tol)) {
                res.mismatches += 1;
                res.failed += 1;
                std::fprintf(stderr, "cold-start %s tier %d: mismatch\n",
                             key.c_str(), t + 1);
            }
        }
    }
    return out;
}

} // namespace

BodyResult
runColdStart(const RunConfig &cfg, SpanLog *trace)
{
    BodyResult res;
    const char *prev_env = std::getenv("XDG_CACHE_HOME");
    const std::string prev_cache = prev_env ? prev_env : "";

    Samples setup_s;
    Setup s;
    for (int r = 0; r < kSetupRepeats; ++r) {
        teardown(s);
        const Clock::time_point t0 = Clock::now();
        s = setup(cfg, r);
        setup_s.add(secondsBetween(t0, Clock::now()));
    }

    // Oracle outputs (outside setup_s), before the clock starts so the
    // interpreter does not compete with the timed compiles.
    resetPeakRss();
    std::vector<std::vector<rt::Buffer>> refs(s.apps.size());
    {
        std::vector<std::thread> threads;
        for (std::size_t i = 0; i < s.apps.size(); ++i)
            threads.emplace_back([&, i] {
                const ColdApp &a = s.apps[i];
                ScopedSpan span(trace, "interp::evaluate", "interp");
                refs[i] = interp::evaluate(
                              pg::PipelineGraph::build(a.app.spec),
                              a.params, pointers(a.inputs))
                              .outputs;
            });
        for (std::thread &t : threads)
            t.join();
    }

    std::mt19937_64 rng(cfg.seed * 13 + 5);
    const std::vector<PipelineResult> result =
        coldStart(s, refs, rng, trace, res);
    teardown(s);
    if (prev_env)
        ::setenv("XDG_CACHE_HOME", prev_cache.c_str(), 1);
    else
        ::unsetenv("XDG_CACHE_HOME");

    // p50_ms: the median latency (from due) of every response the
    // interpreter tier gave, all pipelines pooled; it rests on every
    // cold answer, not on one first response per pipeline.  tail_ms: the
    // slowest pipeline's time to its first compiled-tier response.
    Samples cold_latency, first;
    double ready_ms = 0.0;
    for (int p = 0; p < kColdCount; ++p) {
        const PipelineResult &pr = result[std::size_t(p)];
        const std::string key = kColdApps[p];
        for (double v : pr.coldLatency.values())
            cold_latency.add(v);
        first.add(pr.firstMs);
        ready_ms = std::max(ready_ms, pr.readyMs);
        res.layers["engine.first_response_ms." + key] = {pr.firstMs, "ms"};
        res.layers["registry.promotion_s." + key] = {pr.promotionS, "s"};
        res.layers["interp.run_ms." + key] = {pr.interpRun.median() * 1e3,
                                              "ms"};
        res.layers["jit.cold_s." + key] = {pr.jitS, "s"};
    }
    std::printf("  cold-start: first_response_ms %.4f ms | cold_p50_ms "
                "%.4f ms | compiled_ready_s %.4f s | setup %s\n",
                first.median(), cold_latency.median() * 1e3,
                ready_ms * 1e-3, setup_s.summary(1.0, "s").c_str());

    res.e2e["setup_s"] = {setup_s.median(), "s"};
    res.e2e["p50_ms"] = {cold_latency.median() * 1e3, "ms"};
    res.e2e["tail_ms"] = {ready_ms, "ms"};
    return res;
}

} // namespace pmbench
