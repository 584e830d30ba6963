/**
 * @file
 * Engine behaviour tests: end-to-end correctness against the
 * interpreter through the shared tile scheduler, all three overload
 * policies under saturation, drain and
 * shutdown semantics, steady-state buffer reuse, and the metrics
 * surface.  Saturation tests run on one worker whose first request
 * compiles with the JIT object cache disabled — the compile occupies
 * the worker for a macroscopic time, so queue-full behaviour is
 * deterministic even on a single-core host.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "apps/apps.hpp"
#include "common/test_pipelines.hpp"
#include "interp/interpreter.hpp"
#include "pipeline/graph.hpp"
#include "runtime/synth.hpp"
#include "serve/engine.hpp"

namespace polymage::serve {
namespace {

using namespace std::chrono_literals;

/** Deep-copy a buffer into shared ownership for a Request. */
std::shared_ptr<const rt::Buffer>
own(const rt::Buffer &b)
{
    return std::make_shared<rt::Buffer>(b);
}

/** Registry whose variants always invoke the compiler (no JIT disk
 * cache): the first request of a pipeline occupies its worker for the
 * full g++ run, long enough to saturate the queue deterministically. */
std::shared_ptr<PipelineRegistry>
slowCompileRegistry()
{
    RegistryOptions ropts;
    ropts.jit.cache = false;
    return std::make_shared<PipelineRegistry>(ropts);
}

Request
pointwiseRequest(std::int64_t n, const rt::Buffer &in)
{
    Request req;
    req.pipeline = "pw";
    req.params = {n, n};
    req.inputs = {own(in)};
    return req;
}

/** Wait until one request is executing (popped off the queue). */
void
awaitInFlight(Engine &engine)
{
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    while (engine.metrics().inFlight == 0) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "no request entered execution within 30s";
        std::this_thread::sleep_for(1ms);
    }
}

TEST(Engine, MatchesInterpreterForPaperApps)
{
    struct AppCase
    {
        const char *name;
        dsl::PipelineSpec spec;
        std::vector<std::int64_t> params;
        std::vector<rt::Buffer> inputs;
        double tol;
    };
    std::vector<AppCase> cases;
    cases.push_back({"unsharp", apps::buildUnsharpMask(40, 40),
                     {40, 40},
                     {},
                     1e-4});
    cases.back().inputs.push_back(rt::synth::photoRgb(44, 44));
    cases.push_back(
        {"harris", apps::buildHarris(32, 32), {32, 32}, {}, 1e-4});
    cases.back().inputs.push_back(rt::synth::photo(34, 34));
    cases.push_back({"bilateral", apps::buildBilateralGrid(64, 64),
                     {64, 64},
                     {},
                     1e-4});
    cases.back().inputs.push_back(rt::synth::photo(64, 64));

    auto registry = std::make_shared<PipelineRegistry>();
    for (const AppCase &c : cases)
        registry->add(c.name, c.spec);

    EngineOptions eopts;
    eopts.workers = 2;
    Engine engine(registry, eopts);

    for (const AppCase &c : cases) {
        std::vector<const rt::Buffer *> ins;
        for (const rt::Buffer &b : c.inputs)
            ins.push_back(&b);
        auto g = pg::PipelineGraph::build(c.spec);
        auto ref = interp::evaluate(g, c.params, ins);

        Request req;
        req.pipeline = c.name;
        req.params = c.params;
        for (const rt::Buffer &b : c.inputs)
            req.inputs.push_back(own(b));
        Response r = engine.submit(std::move(req)).get();
        ASSERT_TRUE(r.ok()) << c.name << ": " << r.error;
        ASSERT_EQ(r.outputs.size(), ref.outputs.size()) << c.name;
        for (std::size_t i = 0; i < r.outputs.size(); ++i)
            EXPECT_LE(r.outputs[i].maxAbsDiff(ref.outputs[i]), c.tol)
                << c.name << " output " << i;
    }
}

/**
 * An explicit untiled, ungrouped variant runs its per-stage loop nests
 * as task phases on the scheduler too, and matches the interpreter.
 */
TEST(Engine, BaselineVariantRunsOnTheScheduler)
{
    auto registry = std::make_shared<PipelineRegistry>();
    registry->add("harris", apps::buildHarris(32, 32));
    EngineOptions eopts;
    eopts.workers = 1;
    eopts.tiered = false;
    Engine engine(registry, eopts);

    rt::Buffer in = rt::synth::photo(34, 34);
    auto ref = interp::evaluate(pg::PipelineGraph::build(
                                    apps::buildHarris(32, 32)),
                                {32, 32}, {&in});
    for (bool vectorize : {false, true}) {
        Request req;
        req.pipeline = "harris";
        req.params = {32, 32};
        req.inputs = {own(in)};
        req.variant = CompileOptions::baseline(vectorize);
        Response r = engine.submit(std::move(req)).get();
        ASSERT_TRUE(r.ok()) << r.error;
        EXPECT_EQ(r.tier, 2);
        EXPECT_LE(r.outputs.at(0).maxAbsDiff(ref.outputs.at(0)), 1e-4);
    }
    const ServeSnapshot s = engine.metrics();
    EXPECT_EQ(s.scheduler.jobsCompleted, 2u);
    EXPECT_GT(s.scheduler.tasksExecuted, 2u);
}

TEST(Engine, BlockPolicyCompletesEverythingUnderPressure)
{
    const std::int64_t n = 32;
    auto registry = std::make_shared<PipelineRegistry>();
    registry->add("pw", testing::makePointwise(n).spec);
    rt::Buffer in = rt::synth::photo(n, n);

    EngineOptions eopts;
    eopts.workers = 1;
    eopts.queueCapacity = 2; // far smaller than the burst
    eopts.policy = OverloadPolicy::Block;
    Engine engine(registry, eopts);

    const int kRequests = 24;
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < kRequests; ++i)
        futures.push_back(engine.submit(pointwiseRequest(n, in)));
    for (auto &f : futures)
        EXPECT_TRUE(f.get().ok());

    const ServeSnapshot m = engine.metrics();
    EXPECT_EQ(m.submitted, std::uint64_t(kRequests));
    EXPECT_EQ(m.completed, std::uint64_t(kRequests));
    EXPECT_EQ(m.rejected, 0u);
    EXPECT_EQ(m.shed, 0u);
}

TEST(Engine, RejectPolicyFailsFastWhenQueueIsFull)
{
    const std::int64_t n = 32;
    auto registry = slowCompileRegistry();
    registry->add("pw", testing::makePointwise(n).spec);
    rt::Buffer in = rt::synth::photo(n, n);

    EngineOptions eopts;
    eopts.workers = 1;
    eopts.queueCapacity = 1;
    eopts.policy = OverloadPolicy::RejectWithError;
    // Saturation needs the cold compile to occupy the worker; tiered
    // mode would answer from the interpreter instead of blocking.
    eopts.tiered = false;
    Engine engine(registry, eopts);

    // Occupy the worker (cold compile), then saturate.
    std::vector<std::future<Response>> futures;
    futures.push_back(engine.submit(pointwiseRequest(n, in)));
    awaitInFlight(engine);
    const int kBurst = 16;
    for (int i = 0; i < kBurst; ++i)
        futures.push_back(engine.submit(pointwiseRequest(n, in)));

    int ok = 0, rejected = 0;
    for (auto &f : futures) {
        Response r = f.get();
        if (r.ok())
            ok += 1;
        else {
            EXPECT_NE(r.error.find("queue full"), std::string::npos)
                << r.error;
            rejected += 1;
        }
    }
    EXPECT_EQ(ok + rejected, kBurst + 1);
    EXPECT_GE(rejected, 1);
    EXPECT_GE(ok, 2); // the in-flight one and at least one queued
    const ServeSnapshot m = engine.metrics();
    EXPECT_EQ(m.rejected, std::uint64_t(rejected));
    EXPECT_EQ(m.completed, std::uint64_t(ok));
}

TEST(Engine, ShedOldestKeepsTheFreshestRequest)
{
    const std::int64_t n = 32;
    auto registry = slowCompileRegistry();
    registry->add("pw", testing::makePointwise(n).spec);
    rt::Buffer in = rt::synth::photo(n, n);

    EngineOptions eopts;
    eopts.workers = 1;
    eopts.queueCapacity = 1;
    eopts.policy = OverloadPolicy::ShedOldest;
    eopts.tiered = false; // the cold compile must occupy the worker
    Engine engine(registry, eopts);

    std::vector<std::future<Response>> futures;
    futures.push_back(engine.submit(pointwiseRequest(n, in)));
    awaitInFlight(engine);
    const int kBurst = 16;
    for (int i = 0; i < kBurst; ++i)
        futures.push_back(engine.submit(pointwiseRequest(n, in)));

    std::vector<Response> responses;
    for (auto &f : futures)
        responses.push_back(f.get());
    int ok = 0, shed = 0;
    for (const Response &r : responses) {
        if (r.ok())
            ok += 1;
        else {
            EXPECT_NE(r.error.find("shed"), std::string::npos)
                << r.error;
            shed += 1;
        }
    }
    EXPECT_EQ(ok + shed, kBurst + 1);
    EXPECT_GE(shed, 1);
    // Freshest-work-first: the newest request is never the victim.
    EXPECT_TRUE(responses.back().ok());
    EXPECT_EQ(engine.metrics().shed, std::uint64_t(shed));
}

TEST(Engine, DrainCompletesInFlightAndQueuedWork)
{
    const std::int64_t n = 32;
    auto registry = std::make_shared<PipelineRegistry>();
    registry->add("pw", testing::makePointwise(n).spec);
    rt::Buffer in = rt::synth::photo(n, n);

    Engine engine(registry, EngineOptions{1, 64,
                                          OverloadPolicy::Block});
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(engine.submit(pointwiseRequest(n, in)));

    engine.drain();
    for (auto &f : futures) {
        ASSERT_EQ(f.wait_for(0s), std::future_status::ready);
        EXPECT_TRUE(f.get().ok());
    }
    const ServeSnapshot m = engine.metrics();
    EXPECT_EQ(m.completed, 8u);
    EXPECT_EQ(m.queueDepth, 0u);
    EXPECT_EQ(m.inFlight, 0u);

    // The engine stays stopped: new submissions fail fast.
    Response after = engine.submit(pointwiseRequest(n, in)).get();
    EXPECT_FALSE(after.ok());
    EXPECT_NE(after.error.find("stopped"), std::string::npos);
}

TEST(Engine, ShutdownFailsQueuedRequestsButFinishesInFlight)
{
    const std::int64_t n = 32;
    auto registry = slowCompileRegistry();
    registry->add("pw", testing::makePointwise(n).spec);
    rt::Buffer in = rt::synth::photo(n, n);

    // tiered=false: the cold compile must occupy the worker.
    Engine engine(registry, EngineOptions{1, 16,
                                          OverloadPolicy::Block,
                                          false});
    std::vector<std::future<Response>> futures;
    futures.push_back(engine.submit(pointwiseRequest(n, in)));
    awaitInFlight(engine); // worker is busy compiling request 0
    for (int i = 0; i < 3; ++i)
        futures.push_back(engine.submit(pointwiseRequest(n, in)));

    engine.shutdown();
    EXPECT_TRUE(futures[0].get().ok());
    for (std::size_t i = 1; i < futures.size(); ++i) {
        Response r = futures[i].get();
        EXPECT_FALSE(r.ok());
        EXPECT_NE(r.error.find("shutdown"), std::string::npos)
            << r.error;
    }
}

TEST(Engine, SteadyStateReusesPooledBuffers)
{
    const std::int64_t n = 48;
    auto registry = std::make_shared<PipelineRegistry>();
    registry->add("blur", testing::makeBlurChain(n).spec);
    rt::Buffer in = rt::synth::photo(n, n);

    // tiered=false: pool accounting assumes every response ran the
    // compiled variant (interpreter-served responses skip the pool).
    Engine engine(registry, EngineOptions{1, 8,
                                          OverloadPolicy::Block,
                                          false});
    auto request = [&] {
        Request req;
        req.pipeline = "blur";
        req.params = {n, n};
        req.inputs = {own(in)};
        return engine.submit(std::move(req));
    };

    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(request().get().ok());
    const ServeSnapshot warm = engine.metrics();

    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(request().get().ok());
    const ServeSnapshot after = engine.metrics();

    // Identical requests on a warmed worker allocate nothing new: the
    // pool serves every intermediate from reused blocks.
    EXPECT_EQ(after.poolBlockAllocs, warm.poolBlockAllocs);
    EXPECT_GT(after.poolAcquires, warm.poolAcquires);
}

TEST(Engine, CallbackRunsOnCompletion)
{
    const std::int64_t n = 32;
    auto registry = std::make_shared<PipelineRegistry>();
    registry->add("pw", testing::makePointwise(n).spec);
    rt::Buffer in = rt::synth::photo(n, n);
    Engine engine(registry, EngineOptions{1, 8,
                                          OverloadPolicy::Block});

    std::promise<Response> got;
    engine.submit(pointwiseRequest(n, in),
                  [&](Response r) { got.set_value(std::move(r)); });
    Response r = got.get_future().get();
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.outputs.size(), 1u);
    EXPECT_GE(r.totalSeconds, r.runSeconds);
}

TEST(Engine, UnknownPipelineFailsTheRequestOnly)
{
    auto registry = std::make_shared<PipelineRegistry>();
    registry->add("pw", testing::makePointwise(16).spec);
    Engine engine(registry, EngineOptions{1, 8,
                                          OverloadPolicy::Block});

    Request req;
    req.pipeline = "missing";
    Response r = engine.submit(std::move(req)).get();
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error.find("not registered"), std::string::npos);
    EXPECT_EQ(engine.metrics().failed, 1u);

    // The engine is still serving.
    const std::int64_t n = 16;
    rt::Buffer in = rt::synth::photo(n, n);
    EXPECT_TRUE(engine.submit(pointwiseRequest(n, in)).get().ok());
}

TEST(Engine, ThreadBudgetResolution)
{
    auto registry = std::make_shared<PipelineRegistry>();
    registry->add("pw", testing::makePointwise(16).spec);

    // An explicit scheduler size is taken verbatim.
    EngineOptions pinned_opts;
    pinned_opts.workers = 2;
    pinned_opts.schedulerWorkers = 3;
    Engine pinned(registry, pinned_opts);
    EXPECT_EQ(pinned.metrics().schedulerWorkers, 3);

    // Default: the pool fills only the cores the engine workers leave
    // free (the workers help it while they wait), so total threads
    // never exceed the hardware width -- and with no core left, the
    // pool is thread-less.
    const int hw = std::max(1, int(std::thread::hardware_concurrency()));
    EngineOptions derived_opts;
    derived_opts.workers = 2;
    Engine derived(registry, derived_opts);
    const int pool = derived.metrics().schedulerWorkers;
    EXPECT_EQ(pool, std::max(0, hw - 2));

    EngineOptions wide_opts;
    wide_opts.workers = hw;
    Engine wide(registry, wide_opts);
    EXPECT_EQ(wide.metrics().schedulerWorkers, 0);
}

TEST(Engine, MetricsJsonCarriesTheServeSchema)
{
    const std::int64_t n = 16;
    auto registry = std::make_shared<PipelineRegistry>();
    registry->add("pw", testing::makePointwise(n).spec);
    rt::Buffer in = rt::synth::photo(n, n);
    Engine engine(registry, EngineOptions{1, 8,
                                          OverloadPolicy::Block});
    ASSERT_TRUE(engine.submit(pointwiseRequest(n, in)).get().ok());

    const std::string json = engine.metricsJson();
    for (const char *needle :
         {"\"schema\":\"polymage-serve-v1\"", "\"policy\":\"block\"",
          "\"latency\":", "\"queue_wait\":", "\"p99_seconds\":",
          "\"pool\":", "\"peak_queue_depth\":", "\"tiered\":",
          "\"interp_served\":", "\"compiled_served\":",
          "\"promotions\":", "\"promotion\":"})
        EXPECT_NE(json.find(needle), std::string::npos) << needle;

    const ServeSnapshot m = engine.metrics();
    EXPECT_EQ(m.submitted,
              m.completed + m.failed + m.rejected + m.shed +
                  m.queueDepth + m.inFlight);
    EXPECT_EQ(m.latency.count, m.completed + m.failed);
}

} // namespace
} // namespace polymage::serve
