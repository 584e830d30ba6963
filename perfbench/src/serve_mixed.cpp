/**
 * @file
 * Workload `serve-mixed`: an open loop of small requests for the seven
 * apps, in three shapes each, against a pre-warmed Engine with default
 * options, while a temporal_denoise session paced at 60 fps runs
 * through the same engine.  Latency is reported at one nominal rate.
 * Traced runs then climb a short rate ladder to the highest rate that
 * meets the p99 latency limit without a growing backlog.
 */
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <random>
#include <thread>

#include "apps.hpp"
#include "apps/apps.hpp"
#include "bench.hpp"
#include "core/stream_plan.hpp"
#include "interp/interpreter.hpp"
#include "interp/stream_ref.hpp"
#include "runtime/synth.hpp"
#include "serve/engine.hpp"

namespace pmbench {

using namespace polymage;

namespace {

/** Request shapes per app, as fractions of the 1/8-scale size. */
constexpr double kShapeFactors[] = {1.0, 0.75, 0.5};
constexpr int kShapes = 3;
/** Nominal request rate (open loop, Poisson arrivals). */
constexpr double kNominalRps = 150.0;
/** Stream pacing. */
constexpr double kFps = 60.0;
/** p99 latency limit of the rate ladder. */
constexpr double kLatencyLimitMs = 25.0;
/** Rate ladder: seconds per step, doublings, then bisections. */
constexpr double kStepSeconds = 0.6;
constexpr int kMaxDoublings = 6;
constexpr int kBisections = 3;
/** Distinct stream frames cycled through the session. */
constexpr int kStreamFrames = 8;
/** Leading stream frames checked against interp::evaluateStream. */
constexpr int kStreamChecked = 24;
/** Checked responses per app: a seeded sample of its check shape. */
constexpr int kCheckedPerApp = 3;
constexpr double kCheckSampleRate = 0.1;
constexpr int kCheckShape = 2;

struct Arrival
{
    double due = 0.0;
    int app = 0;
    int shape = 0;
    /** Sampled for the output check. */
    bool check = false;
};

/** Seeded Poisson arrivals at @p rate over @p seconds. */
std::vector<Arrival>
schedule(std::mt19937_64 &rng, double rate, double seconds, int apps)
{
    std::exponential_distribution<double> gap(rate);
    std::uniform_int_distribution<int> pick_app(0, apps - 1);
    std::uniform_int_distribution<int> pick_shape(0, kShapes - 1);
    std::bernoulli_distribution sample(kCheckSampleRate);
    std::vector<Arrival> out;
    for (double t = gap(rng); t < seconds; t += gap(rng)) {
        Arrival a{t, pick_app(rng), pick_shape(rng), false};
        a.check = sample(rng) && a.shape == kCheckShape;
        out.push_back(a);
    }
    return out;
}

struct ServeApp
{
    App app;
    Shape shapes[kShapes];
    std::vector<std::int64_t> params[kShapes];
    std::vector<rt::Buffer> inputs[kShapes];
    /** Interpreter outputs at the check shape. */
    std::vector<rt::Buffer> ref;
};

struct Setup
{
    std::vector<ServeApp> apps;
    std::shared_ptr<serve::PipelineRegistry> registry;
    std::unique_ptr<serve::Engine> engine;
    std::shared_ptr<serve::StreamSession> session;
    std::vector<rt::Buffer> frames;
    dsl::PipelineSpec streamSpec{"unset"};
};

Setup
setup(const RunConfig &cfg, SpanLog *trace)
{
    ScopedSpan all(trace, "serve.setup", "bench");
    Setup s;
    s.registry = std::make_shared<serve::PipelineRegistry>();
    std::uint64_t seed = cfg.seed * 1000;
    for (const std::string &key : appKeys()) {
        ServeApp a;
        a.app = makeApp(key, kServeScale);
        for (int k = 0; k < kShapes; ++k) {
            a.shapes[k] = scaleShape(a.app.est, kShapeFactors[k]);
            a.params[k] = a.app.params(a.shapes[k]);
            a.inputs[k] = a.app.inputs(a.shapes[k], ++seed);
        }
        s.registry->add(key, a.app.spec, CompileOptions::serving());
        s.apps.push_back(std::move(a));
    }
    s.streamSpec = apps::buildTemporalDenoise(kStreamRows, kStreamCols);
    s.registry->add(kStreamPipeline, s.streamSpec,
                    CompileOptions::serving());
    // Pre-warm: every variant loads from the JIT cache before traffic.
    for (const std::string &name : s.registry->names()) {
        ScopedSpan get(trace, "PipelineRegistry::get", "registry",
                       all.id());
        const Clock::time_point t0 = Clock::now();
        auto exe = s.registry->get(name);
        addCompileSpans(trace, exe->trace(), t0, get.id());
    }
    s.engine = std::make_unique<serve::Engine>(s.registry);
    s.session = s.engine->openStream(kStreamPipeline,
                                     {kStreamRows, kStreamCols});
    for (int f = 0; f < kStreamFrames; ++f)
        s.frames.push_back(rt::synth::photo(kStreamRows + 2,
                                            kStreamCols + 2, ++seed));
    return s;
}

/**
 * Interpreter outputs at each app's check shape, one app at a time so
 * the process's peak memory does not depend on how they overlap.
 */
void
computeReferences(std::vector<ServeApp> &apps, SpanLog *trace)
{
    for (ServeApp &a : apps) {
        ScopedSpan span(trace, "interp::evaluate", "interp");
        try {
            a.ref = interp::evaluate(pg::PipelineGraph::build(a.app.spec),
                                     a.params[kCheckShape],
                                     pointers(a.inputs[kCheckShape]))
                        .outputs;
        } catch (const std::exception &e) {
            // An empty reference fails the check of every response.
            std::fprintf(stderr, "serve-mixed reference %s: %s\n",
                         a.app.key.c_str(), e.what());
        }
    }
}

/** Completion record of one request or frame. */
struct Record
{
    Clock::time_point due;
    Clock::time_point submitted;
    Clock::time_point done;
    double queueSeconds = 0.0;
    double runSeconds = 0.0;
    bool ok = false;
    std::vector<rt::Buffer> outputs;
};

/** Records of one open-loop phase, shared with engine callbacks. */
struct LoopState
{
    LoopState(std::size_t n, std::size_t apps) : records(n), kept(apps) {}
    std::vector<Record> records;
    std::mutex mu;
    std::condition_variable cv;
    std::size_t completed = 0;
    /** Outputs kept for the check, per app. */
    std::vector<std::atomic<int>> kept;

    void
    finish()
    {
        std::lock_guard<std::mutex> lock(mu);
        completed += 1;
        if (completed == records.size())
            cv.notify_all();
    }

    bool
    waitAll(double seconds)
    {
        std::unique_lock<std::mutex> lock(mu);
        return cv.wait_for(lock, std::chrono::duration<double>(seconds),
                           [&] { return completed == records.size(); });
    }
};

/**
 * Submit @p arrivals on schedule from the calling thread; the returned
 * state completes as the engine answers.
 */
std::shared_ptr<LoopState>
openLoop(Setup &s, const std::vector<Arrival> &arrivals,
         Clock::time_point start, bool keep_outputs, SpanLog *trace,
         long long request_base)
{
    auto st = std::make_shared<LoopState>(arrivals.size(), s.apps.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const Arrival &a = arrivals[i];
        ServeApp &app = s.apps[std::size_t(a.app)];
        Record &rec = st->records[i];
        rec.due = offsetFrom(start, a.due);
        std::this_thread::sleep_until(rec.due);
        rec.submitted = Clock::now();
        serve::Request req;
        req.pipeline = app.app.key;
        req.params = app.params[a.shape];
        for (const rt::Buffer &b : app.inputs[a.shape])
            req.inputs.push_back(borrow(b));
        const bool keep = keep_outputs && a.check;
        s.engine->submit(std::move(req), [st, i, keep, app_index = a.app,
                                          trace, request_base](
                                             serve::Response r) {
            Record &rec = st->records[i];
            rec.done = Clock::now();
            rec.queueSeconds = r.queueSeconds;
            rec.runSeconds = r.runSeconds;
            rec.ok = r.ok();
            if (!r.ok())
                std::fprintf(stderr, "request failed: %s\n",
                             r.error.c_str());
            if (keep && r.ok() &&
                st->kept[std::size_t(app_index)].fetch_add(1) <
                    kCheckedPerApp)
                rec.outputs = std::move(r.outputs);
            if (trace) {
                const long long id = trace->add(
                    "Engine::submit", "engine", rec.submitted, rec.done,
                    -1, request_base + (long long)i);
                trace->add("queue", "queue", rec.submitted,
                           offsetFrom(rec.submitted, r.queueSeconds), id,
                           request_base + (long long)i);
                trace->add("run", "executor",
                           offsetFrom(rec.done, -r.runSeconds), rec.done,
                           id, request_base + (long long)i);
            }
            st->finish();
        });
    }
    return st;
}

/** Latency from due time, in seconds, of every record. */
Samples
latencies(const LoopState &st)
{
    Samples s;
    for (const Record &r : st.records)
        s.add(secondsBetween(r.due, r.done));
    return s;
}

/**
 * One ladder step at @p rate: true when p99 latency (from due) meets
 * the limit and every request completed (no growing backlog).
 */
bool
ladderStep(Setup &s, std::mt19937_64 &rng, double rate,
           std::uint64_t &attempted, std::uint64_t &failed)
{
    const auto arrivals =
        schedule(rng, rate, kStepSeconds, int(s.apps.size()));
    if (arrivals.empty())
        return true;
    auto st = openLoop(s, arrivals, Clock::now(), false, nullptr, 0);
    const bool drained = st->waitAll(30.0);
    attempted += arrivals.size();
    if (!drained) {
        // Wait for the stragglers so the next step starts empty.
        st->waitAll(120.0);
        return false;
    }
    for (const Record &r : st->records)
        failed += r.ok ? 0 : 1;
    const Samples lat = latencies(*st);
    return lat.quantile(0.99) * 1e3 <= kLatencyLimitMs;
}

} // namespace

BodyResult
runServeMixed(const RunConfig &cfg, SpanLog *trace)
{
    BodyResult res;
    Samples setup_s;
    Setup s;
    for (int r = 0; r < kSetupRepeats; ++r) {
        if (s.engine) {
            s.engine->closeStream(s.session);
            s.engine.reset();
        }
        s = Setup{};
        const Clock::time_point t0 = Clock::now();
        s = setup(cfg, r + 1 == kSetupRepeats ? trace : nullptr);
        setup_s.add(secondsBetween(t0, Clock::now()));
    }

    // Oracle outputs, outside setup_s: the check shape of every app,
    // and the first stream frames.
    resetPeakRss();
    computeReferences(s.apps, trace);
    std::vector<std::vector<rt::Buffer>> frame_ref;
    {
        ScopedSpan span(trace, "interp::evaluateStream", "interp");
        auto sl = core::lowerStream(s.streamSpec);
        std::vector<std::vector<const rt::Buffer *>> ins;
        for (int f = 0; f < kStreamChecked; ++f)
            ins.push_back({&s.frames[std::size_t(f % kStreamFrames)]});
        frame_ref = interp::evaluateStream(pg::PipelineGraph::build(sl.spec),
                                           sl.plan,
                                           {kStreamRows, kStreamCols}, ins);
    }

    std::mt19937_64 rng(cfg.seed * 7 + 3);
    const auto arrivals =
        schedule(rng, kNominalRps, cfg.seconds, int(s.apps.size()));
    const auto nframes = std::size_t(cfg.seconds * kFps);
    auto frames = std::make_shared<LoopState>(nframes, 0);

    // Nominal window: requests on one generator thread, frames on
    // another, both paced from the same start.
    const serve::ServeSnapshot before = s.engine->metrics();
    const serve::RegistryStats reg_before = s.registry->stats();
    const Clock::time_point start = Clock::now() +
                                    std::chrono::milliseconds(20);
    std::thread frame_thread([&] {
        for (std::size_t f = 0; f < nframes; ++f) {
            Record &rec = frames->records[f];
            rec.due = offsetFrom(start, double(f) / kFps);
            std::this_thread::sleep_until(rec.due);
            rec.submitted = Clock::now();
            s.engine->submitFrame(
                s.session,
                {borrow(s.frames[f % kStreamFrames])},
                [frames, f, trace](const serve::StreamFrameResult &fr) {
                    Record &rec = frames->records[f];
                    rec.done = Clock::now();
                    rec.queueSeconds = fr.queueSeconds;
                    rec.runSeconds = fr.runSeconds;
                    rec.ok = fr.ok();
                    // Only the declared output: the trailing entries are
                    // empty feedback placeholders.
                    if (fr.ok() && f < std::size_t(kStreamChecked))
                        rec.outputs.push_back(fr.outputs->at(0));
                    if (trace) {
                        const long long id = trace->add(
                            "submitFrame", "stream", rec.submitted,
                            rec.done, -1, (long long)f);
                        trace->add("queue", "queue", rec.submitted,
                                   offsetFrom(rec.submitted,
                                              fr.queueSeconds),
                                   id, (long long)f);
                        trace->add("step", "executor",
                                   offsetFrom(rec.done, -fr.runSeconds),
                                   rec.done, id, (long long)f);
                    }
                    frames->finish();
                });
        }
    });
    auto nominal = openLoop(s, arrivals, start, true, trace, 1LL << 32);
    frame_thread.join();
    const bool nominal_done = nominal->waitAll(60.0);
    s.engine->closeStream(s.session);
    frames->waitAll(60.0);
    if (!nominal_done) {
        std::fprintf(stderr, "serve-mixed: nominal requests did not "
                             "complete\n");
        res.failed += 1;
        nominal->waitAll(120.0);
    }
    const serve::ServeSnapshot after = s.engine->metrics();
    const serve::RegistryStats reg_after = s.registry->stats();

    // Request latency at the nominal rate, timed from when each request
    // was due.
    const Samples req = latencies(*nominal);
    Samples lag, queue_wait;
    std::map<std::string, Samples> run_by_app;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const Record &r = nominal->records[i];
        res.attempted += 1;
        res.failed += r.ok ? 0 : 1;
        lag.add(secondsBetween(r.due, r.submitted));
        queue_wait.add(r.queueSeconds);
        run_by_app[s.apps[std::size_t(arrivals[i].app)].app.key].add(
            r.runSeconds);
        if (!r.outputs.empty()) {
            const ServeApp &a = s.apps[std::size_t(arrivals[i].app)];
            res.attempted += 1;
            res.checked += 1;
            if (!outputsMatch(r.outputs, a.ref, a.app.tol)) {
                res.mismatches += 1;
                res.failed += 1;
                std::fprintf(stderr, "serve-mixed check %s: mismatch\n",
                             a.app.key.c_str());
            }
        }
    }

    // Frame metrics, timed from when each frame was due.
    Samples frame_lat, step, frame_queue;
    std::uint64_t missed = 0;
    for (std::size_t f = 0; f < nframes; ++f) {
        const Record &r = frames->records[f];
        res.attempted += 1;
        res.failed += r.ok ? 0 : 1;
        const double lat = secondsBetween(r.due, r.done);
        frame_lat.add(lat);
        step.add(r.runSeconds);
        frame_queue.add(r.queueSeconds);
        missed += lat > 1.0 / kFps ? 1 : 0;
        if (f < std::size_t(kStreamChecked)) {
            res.attempted += 1;
            res.checked += 1;
            if (!r.ok || !outputsMatch({r.outputs.at(0)},
                                       {frame_ref[f].at(0)}, 1e-4)) {
                res.mismatches += 1;
                res.failed += 1;
                std::fprintf(stderr, "serve-mixed stream frame %zu: "
                                     "mismatch\n",
                             f);
            }
        }
    }

    // Rate ladder (traced runs; engine.max_rps): double from the nominal
    // rate until a step fails, then bisect (geometrically) between the
    // last pass and the fail.
    double pass = 0.0, fail = 0.0;
    if (trace) {
        ScopedSpan ladder(trace, "serve.ladder", "bench");
        double rate = kNominalRps;
        for (int d = 0; d <= kMaxDoublings; ++d, rate *= 2) {
            if (!ladderStep(s, rng, rate, res.attempted, res.failed)) {
                fail = rate;
                break;
            }
            pass = rate;
        }
        for (int b = 0; b < kBisections && fail > 0 && pass > 0; ++b) {
            const double mid = std::sqrt(pass * fail);
            if (ladderStep(s, rng, mid, res.attempted, res.failed))
                pass = mid;
            else
                fail = mid;
        }
    }
    s.engine->drain();

    const double req_p50_ms = req.median() * 1e3;
    const double req_p99_ms = req.quantile(0.99) * 1e3;
    std::printf("  serve-mixed: req_p50_ms %.4f ms | req_p99_ms %.4f ms | "
                "frame_p99_ms %.4f ms | frame_miss_frac %.4f ratio\n",
                req_p50_ms, req_p99_ms, frame_lat.quantile(0.99) * 1e3,
                double(missed) / double(std::max<std::size_t>(nframes, 1)));
    if (trace)
        std::printf("  serve-mixed: max_rps %.1f req/s\n", pass);
    std::printf("  serve-mixed: request latency %s | p90 %.4f p95 %.4f "
                "p99 %.4f ms\n",
                req.summary(1e3, "ms").c_str(), req.quantile(0.90) * 1e3,
                req.quantile(0.95) * 1e3, req.quantile(0.99) * 1e3);
    std::printf("  serve-mixed: frame latency %s\n",
                frame_lat.summary(1e3, "ms").c_str());
    std::printf("  serve-mixed: setup %s\n",
                setup_s.summary(1.0, "s").c_str());

    res.e2e["setup_s"] = {setup_s.median(), "s"};
    res.e2e["p50_ms"] = {req_p50_ms, "ms"};
    res.e2e["tail_ms"] = {req_p99_ms, "ms"};

    res.layers["engine.queue_wait_p50_ms"] = {queue_wait.median() * 1e3,
                                              "ms"};
    res.layers["engine.queue_wait_p99_ms"] = {
        queue_wait.quantile(0.99) * 1e3, "ms"};
    for (const auto &[key, samples] : run_by_app)
        res.layers["engine.run_p50_ms." + key] = {samples.median() * 1e3,
                                                  "ms"};
    const double hits = double(reg_after.hits - reg_before.hits);
    const double misses = double(reg_after.misses - reg_before.misses);
    res.layers["registry.hit_ratio"] = {
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};
    res.layers["registry.misses"] = {misses, "count"};
    res.layers["engine.interp_served"] = {
        double(after.interpServed - before.interpServed), "count"};
    res.layers["gen.lag_p99_ms"] = {lag.quantile(0.99) * 1e3, "ms"};
    res.layers["engine.max_rps"] = {pass, "req/s"};
    const double steals =
        double(after.scheduler.steals - before.scheduler.steals);
    const double attempts = double(after.scheduler.stealAttempts -
                                   before.scheduler.stealAttempts);
    res.layers["scheduler.steals"] = {steals, "count"};
    res.layers["scheduler.steal_fail_rate"] = {
        attempts > 0 ? (attempts - steals) / attempts : 0.0, "ratio"};
    const double batches = double(after.batches - before.batches);
    res.layers["engine.batch_mean"] = {
        batches > 0
            ? double(after.batchedRequests - before.batchedRequests) /
                  batches
            : 1.0,
        "requests"};
    res.layers["stream.step_p50_ms"] = {step.median() * 1e3, "ms"};
    res.layers["stream.step_p99_ms"] = {step.quantile(0.99) * 1e3, "ms"};
    res.layers["stream.queue_p99_ms"] = {frame_queue.quantile(0.99) * 1e3,
                                         "ms"};
    res.layers["stream.frame_p99_ms"] = {frame_lat.quantile(0.99) * 1e3,
                                         "ms"};
    res.layers["stream.frame_miss_frac"] = {
        double(missed) / double(std::max<std::size_t>(nframes, 1)),
        "ratio"};

    // Generated-source size of the serving variants.
    double entries = 0.0;
    for (const ServeApp &a : s.apps) {
        const std::string &src = s.registry->get(a.app.key)->info().code.source;
        res.layers["codegen.source_lines." + a.app.key] = {
            double(std::count(src.begin(), src.end(), '\n')), "lines"};
        for (std::size_t pos = src.find("extern \"C\"");
             pos != std::string::npos;
             pos = src.find("extern \"C\"", pos + 1))
            entries += 1;
    }
    res.layers["codegen.entries"] = {entries, "count"};
    return res;
}

} // namespace pmbench
