/**
 * @file
 * Serving benchmark: throughput (requests/sec) and tail latency of
 * the seven paper applications through the `polymage::serve` engine,
 * across worker counts and overload policies.
 *
 * Flags:
 *   --timings-json <path>  write a polymage-serve-bench-v1 snapshot
 *   --requests N           requests per configuration (default 24)
 *   --workers a,b,c        worker counts to sweep (default 1,2,4)
 *   --clients N            client threads (default 2 x workers)
 *   --policy P             block | reject | shed | all (default block)
 *   --cold-shapes N        cold-start scenario: first-request latency
 *                          at N distinct shapes through the tiered
 *                          engine (default 3; 0 disables)
 *   --slo N                SLO-admission scenario: N tight-deadline
 *                          and N generous-deadline requests through
 *                          an sloAdmission engine; the tight ones
 *                          shed at submit, the admitted ones meet
 *                          their deadline (default 12; 0 disables)
 *
 * Environment:
 *   POLYMAGE_SERVE_THREADS total thread budget; each configuration
 *                          splits it into engine workers plus tile
 *                          scheduler threads (default: hardware
 *                          concurrency).  The split is recorded in the
 *                          JSON (`scheduler.workers` of the metrics)
 *                          so snapshots are comparable across
 *                          machines.
 *   POLYMAGE_BENCH_SCALE   image-size scale (default 0.25 here; the
 *                          serving matrix multiplies runs, so the
 *                          default favours breadth over image size).
 */
#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench_util.hpp"
#include "serve/engine.hpp"

using namespace polymage;
using namespace polymage::bench;

namespace {

int
argInt(int argc, char **argv, const char *flag, int fallback)
{
    const std::string s = argPath(argc, argv, flag);
    return s.empty() ? fallback : std::atoi(s.c_str());
}

std::vector<int>
argIntList(int argc, char **argv, const char *flag,
           std::vector<int> fallback)
{
    const std::string s = argPath(argc, argv, flag);
    if (s.empty())
        return fallback;
    std::vector<int> out;
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t next = s.find(',', pos);
        if (next == std::string::npos)
            next = s.size();
        const int v = std::atoi(s.substr(pos, next - pos).c_str());
        if (v > 0)
            out.push_back(v);
        pos = next + 1;
    }
    return out.empty() ? fallback : out;
}

/** Non-owning shared_ptr view of a long-lived buffer. */
std::shared_ptr<const rt::Buffer>
borrow(const rt::Buffer &b)
{
    return {std::shared_ptr<const rt::Buffer>(), &b};
}

struct ConfigResult
{
    int workers = 0;
    int clients = 0;
    std::string policy;
    int requests = 0;
    double wallSeconds = 0.0;
    double rps = 0.0;
    serve::ServeSnapshot metrics;
};

/**
 * Drive one engine configuration: @p clients threads submit
 * @p requests requests total and wait for every future.  The engine's
 * workers help its tile scheduler, whose own threads fill the rest of
 * the @p budget (none when the workers use it all up).
 */
ConfigResult
runConfig(const std::shared_ptr<serve::PipelineRegistry> &registry,
          const AppBench &app, int workers, int budget, int clients,
          serve::OverloadPolicy policy, int requests)
{
    serve::EngineOptions eopts;
    eopts.workers = workers;
    eopts.policy = policy;
    eopts.schedulerWorkers = budget > workers ? budget - workers : -1;
    // Overload policies only bite when the queue is small relative to
    // the offered load; Block gets headroom so nothing is dropped.
    eopts.queueCapacity =
        policy == serve::OverloadPolicy::Block ? 4 * requests : 2;
    serve::Engine engine(registry, eopts);

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    std::atomic<int> next{0};
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
            std::vector<std::future<serve::Response>> futures;
            while (next.fetch_add(1) < requests) {
                serve::Request req;
                req.pipeline = app.name;
                req.params = app.params;
                for (const rt::Buffer &b : app.inputStorage)
                    req.inputs.push_back(borrow(b));
                futures.push_back(engine.submit(std::move(req)));
            }
            for (auto &f : futures)
                f.get();
        });
    }
    for (auto &t : threads)
        t.join();
    engine.drain();

    ConfigResult r;
    r.workers = workers;
    r.clients = clients;
    r.policy = serve::policyName(policy);
    r.requests = requests;
    r.wallSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    r.metrics = engine.metrics();
    r.rps = r.wallSeconds > 0
                ? double(r.metrics.completed) / r.wallSeconds
                : 0.0;
    return r;
}

void
writeConfigJson(obs::JsonWriter &w, const ConfigResult &r)
{
    w.beginObject();
    w.key("workers").value(r.workers);
    w.key("clients").value(r.clients);
    w.key("policy").value(r.policy);
    w.key("requests").value(r.requests);
    w.key("wall_seconds").value(r.wallSeconds);
    w.key("rps").value(r.rps);
    w.key("metrics").raw(r.metrics.toJson());
    w.endObject();
}

/** One shape's first request in the cold-start scenario. */
struct ColdShapeResult
{
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    double firstRequestSeconds = 0.0;
    /** 1 = interpreter (compile in flight), 2 = compiled. */
    int tier = 0;
};

/**
 * Cold-start scenario (docs/SHAPES.md): a fresh registry with the JIT
 * disk cache off (the compile really runs), one serving Harris
 * variant (extents are runtime values, so it serves every shape), a
 * tiered single-worker engine.  The first request at each
 * of @p nShapes distinct shapes is timed — the tiered engine answers
 * from the interpreter while the one background compile is in flight,
 * so no first request pays the compile.  Afterwards requests are
 * resubmitted until one is served from the compiled tier, which
 * records the promotion latency in the metrics.
 */
void
runColdStart(obs::JsonWriter &w, double scale, int nShapes)
{
    const auto rows_est =
        std::max<std::int64_t>(32, std::int64_t(512 * scale));
    const auto cols_est = rows_est;

    serve::RegistryOptions ropts;
    ropts.jit.cache = false;
    auto registry = std::make_shared<serve::PipelineRegistry>(ropts);
    registry->add("harris", apps::buildHarris(rows_est, cols_est));

    serve::EngineOptions eopts;
    eopts.workers = 1;
    serve::Engine engine(registry, eopts);

    // Shapes at est/2 .. est (distinct, none below 16).
    std::vector<ColdShapeResult> shapes;
    std::vector<rt::Buffer> inputs;
    for (int i = 0; i < nShapes; ++i) {
        ColdShapeResult s;
        const std::int64_t step =
            nShapes > 1 ? (rows_est / 2) * i / (nShapes - 1) : 0;
        s.rows = std::max<std::int64_t>(16, rows_est / 2 + step);
        s.cols = std::max<std::int64_t>(16, cols_est / 2 + step);
        inputs.push_back(rt::synth::photo(s.rows + 2, s.cols + 2));
        shapes.push_back(s);
    }

    std::printf("\n-- cold start: harris, %d shapes, est %lld --\n",
                nShapes, (long long)rows_est);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        serve::Request req;
        req.pipeline = "harris";
        req.params = {shapes[i].rows, shapes[i].cols};
        req.inputs.push_back(borrow(inputs[i]));
        serve::Response r = engine.submit(std::move(req)).get();
        shapes[i].firstRequestSeconds = r.totalSeconds;
        shapes[i].tier = r.tier;
        std::printf("  %4lld x %-4lld  first request %7.2f ms  tier %d"
                    "%s\n",
                    (long long)shapes[i].rows,
                    (long long)shapes[i].cols, r.totalSeconds * 1e3,
                    r.tier, r.ok() ? "" : "  FAILED");
    }

    // Resubmit the first shape until the compiled tier answers: the
    // tier-1 -> tier-2 flip lands the promotion latency in metrics.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    int tier = shapes.front().tier;
    while (tier != 2 && std::chrono::steady_clock::now() < deadline) {
        serve::Request req;
        req.pipeline = "harris";
        req.params = {shapes.front().rows, shapes.front().cols};
        req.inputs.push_back(borrow(inputs.front()));
        serve::Response r = engine.submit(std::move(req)).get();
        if (!r.ok())
            break;
        tier = r.tier;
    }
    engine.drain();
    const serve::ServeSnapshot m = engine.metrics();
    std::printf("  interp %llu / compiled %llu, promotion %7.2f ms\n",
                (unsigned long long)m.interpServed,
                (unsigned long long)m.compiledServed,
                m.promotion.maxSeconds * 1e3);

    w.key("cold_start").beginObject();
    w.key("app").value("harris");
    w.key("rows_est").value(rows_est);
    w.key("shapes").beginArray();
    for (const ColdShapeResult &s : shapes) {
        w.beginObject();
        w.key("rows").value(s.rows);
        w.key("cols").value(s.cols);
        w.key("first_request_seconds").value(s.firstRequestSeconds);
        w.key("tier").value(s.tier);
        w.endObject();
    }
    w.endArray();
    w.key("metrics").raw(m.toJson());
    w.endObject();
}

/**
 * SLO-admission scenario (docs/SERVING.md "Scheduling"): after
 * warming the per-pipeline run-time EWMA, @p n requests with an
 * impossible deadline (a quarter of the measured run time -- the
 * predicted run alone exceeds it) interleave with @p n
 * generous-deadline ones.  The tight ones shed at submit in
 * microseconds; every admitted request completes within its deadline,
 * so `deadline_misses` stays zero -- the property
 * scripts/check_serve.sh asserts.
 */
void
runSloScenario(obs::JsonWriter &w, const AppBench &app, int n)
{
    auto registry = std::make_shared<serve::PipelineRegistry>();
    registry->add(app.name, app.spec);

    serve::EngineOptions eopts;
    eopts.workers = 1;
    eopts.tiered = false;
    eopts.sloAdmission = true;
    eopts.queueCapacity = 4 * n + 8;
    serve::Engine engine(registry, eopts);

    auto makeReq = [&](double deadline) {
        serve::Request req;
        req.pipeline = app.name;
        req.params = app.params;
        for (const rt::Buffer &b : app.inputStorage)
            req.inputs.push_back(borrow(b));
        req.deadlineSeconds = deadline;
        return req;
    };

    // Warm the EWMA (and the JIT) so predictions are measured, not
    // analytic.
    double run_s = 0.0;
    for (int i = 0; i < 3; ++i) {
        serve::Response r = engine.submit(makeReq(0.0)).get();
        if (r.ok())
            run_s = std::max(run_s, r.runSeconds);
    }
    const double tight = run_s * 0.25;
    const double generous = std::max(30.0, run_s * 100.0);

    std::vector<std::future<serve::Response>> futures;
    for (int i = 0; i < n; ++i) {
        futures.push_back(engine.submit(makeReq(tight)));
        futures.push_back(engine.submit(makeReq(generous)));
    }
    std::uint64_t shed_fast = 0;
    for (auto &f : futures) {
        serve::Response r = f.get();
        if (!r.ok() && r.error.find("shed") != std::string::npos)
            shed_fast += 1;
    }
    engine.drain();
    const serve::ServeSnapshot m = engine.metrics();

    std::printf("\n-- SLO admission: %s, %d tight + %d generous --\n"
                "  run ~%.2f ms, tight deadline %.2f ms: shed %llu at "
                "submit, %llu admitted misses\n",
                app.name.c_str(), n, n, run_s * 1e3, tight * 1e3,
                (unsigned long long)m.sloShed,
                (unsigned long long)m.deadlineMisses);

    w.key("slo_scenario").beginObject();
    w.key("app").value(app.name);
    w.key("requests_tight").value(n);
    w.key("requests_generous").value(n);
    w.key("run_seconds").value(run_s);
    w.key("tight_deadline_seconds").value(tight);
    w.key("generous_deadline_seconds").value(generous);
    w.key("shed_at_submit").value(std::int64_t(shed_fast));
    w.key("metrics").raw(m.toJson());
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    const double scale = benchScale(0.25);
    const int budget = serveThreadBudget();
    const bool budget_from_env =
        std::getenv("POLYMAGE_SERVE_THREADS") != nullptr;
    const int requests = argInt(argc, argv, "--requests", 24);
    std::vector<int> worker_counts =
        argIntList(argc, argv, "--workers", {1, 2, 4});
    const int clients_flag = argInt(argc, argv, "--clients", 0);
    const std::string policy_flag = [&] {
        const std::string p = argPath(argc, argv, "--policy");
        return p.empty() ? std::string("block") : p;
    }();
    const int cold_shapes = argInt(argc, argv, "--cold-shapes", 3);
    const int slo_requests = argInt(argc, argv, "--slo", 12);
    const std::string json_path = argPath(argc, argv, "--timings-json");

    std::vector<serve::OverloadPolicy> policies;
    if (policy_flag == "all") {
        policies = {serve::OverloadPolicy::Block,
                    serve::OverloadPolicy::RejectWithError,
                    serve::OverloadPolicy::ShedOldest};
    } else {
        policies = {serve::policyFromName(policy_flag)};
    }

    std::printf("==== Serving benchmark: scale %.2f, thread budget %d"
                "%s, %d requests/config ====\n",
                scale, budget,
                budget_from_env ? " (POLYMAGE_SERVE_THREADS)" : "",
                requests);

    auto benches = paperBenchmarks(scale);
    auto registry = std::make_shared<serve::PipelineRegistry>(
        serve::RegistryOptions{16, {}});
    for (const AppBench &b : benches)
        registry->add(b.name, b.spec, b.tuned);

    obs::JsonWriter w;
    w.beginObject();
    w.key("schema").value("polymage-serve-bench-v1");
    w.key("scale").value(scale);
    w.key("thread_budget").value(budget);
    w.key("thread_budget_from_env").value(budget_from_env);
    w.key("apps").beginArray();

    for (const AppBench &app : benches) {
        std::printf("\n-- %s (%s) --\n", app.name.c_str(),
                    app.sizeLabel.c_str());
        // Warm the variant once so the JIT compile never lands inside
        // a timed window.
        registry->get(app.name);

        w.beginObject();
        w.key("name").value(app.name);
        w.key("size").value(app.sizeLabel);
        w.key("configs").beginArray();

        std::vector<double> rps_by_workers;
        for (int workers : worker_counts) {
            const int clients =
                clients_flag > 0 ? clients_flag : 2 * workers;
            for (serve::OverloadPolicy policy : policies) {
                ConfigResult r = runConfig(registry, app, workers, budget,
                                           clients, policy, requests);
                if (policy == policies.front())
                    rps_by_workers.push_back(r.rps);
                std::printf(
                    "  workers=%d pool=%d clients=%d %-6s  "
                    "%7.2f req/s  p50 %6.1f ms  p95 %6.1f ms  "
                    "p99 %6.1f ms  (%llu ok, %llu rej, %llu shed)\n",
                    r.workers, r.metrics.schedulerWorkers, r.clients,
                    r.policy.c_str(), r.rps,
                    r.metrics.latency.p50Seconds * 1e3,
                    r.metrics.latency.p95Seconds * 1e3,
                    r.metrics.latency.p99Seconds * 1e3,
                    (unsigned long long)r.metrics.completed,
                    (unsigned long long)r.metrics.rejected,
                    (unsigned long long)r.metrics.shed);
                writeConfigJson(w, r);
            }
        }
        if (rps_by_workers.size() > 1 && rps_by_workers.front() > 0) {
            std::printf("  scaling %d -> %d workers: %.2fx\n",
                        worker_counts.front(), worker_counts.back(),
                        rps_by_workers.back() / rps_by_workers.front());
        }
        w.endArray();
        w.endObject();
    }

    w.endArray();

    if (cold_shapes > 0)
        runColdStart(w, scale, cold_shapes);

    if (slo_requests > 0)
        runSloScenario(w, benches.front(), slo_requests);

    w.endObject();

    if (!json_path.empty()) {
        std::ofstream os(json_path);
        if (!os) {
            std::fprintf(stderr, "cannot write timings JSON to %s\n",
                         json_path.c_str());
            return 1;
        }
        os << w.str() << "\n";
        std::printf("\nserve timings JSON written to %s\n",
                    json_path.c_str());
    }
    return 0;
}
