/**
 * @file
 * Engine behaviour on the shared tile pool: interpreter
 * equality under concurrent requests, same-pipeline request batching, SLO-aware admission, per-tenant quotas, and the
 * scheduler block of the polymage-serve-v1 metrics.  Suite names carry
 * "Engine" / "Concurrent" so scripts/check_sanitize.sh's thread-mode
 * filter runs them under TSan.
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

std::shared_ptr<const rt::Buffer>
own(const rt::Buffer &b)
{
    return std::make_shared<rt::Buffer>(b);
}

TEST(EngineSharedSched, MatchesInterpreterForPaperApps)
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
    cases.push_back({"blur", testing::makeBlurChain(48).spec,
                     {48, 48},
                     {},
                     1e-5});
    cases.back().inputs.push_back(rt::synth::photo(48, 48));

    auto registry = std::make_shared<PipelineRegistry>();
    for (const AppCase &c : cases)
        registry->add(c.name, c.spec, CompileOptions::serving());

    EngineOptions eopts;
    eopts.workers = 2;
    eopts.tiered = false; // always compiled: the task path, not tier 1
    Engine engine(registry, eopts);

    for (const AppCase &c : cases) {
        std::vector<const rt::Buffer *> ins;
        for (const rt::Buffer &b : c.inputs)
            ins.push_back(&b);
        auto g = pg::PipelineGraph::build(c.spec);
        auto ref = interp::evaluate(g, c.params, ins);

        // Several identical requests at once: their tiles share the
        // pool and may be coalesced into one batch.
        std::vector<std::future<Response>> futs;
        for (int rep = 0; rep < 4; ++rep) {
            Request req;
            req.pipeline = c.name;
            req.params = c.params;
            for (const rt::Buffer &b : c.inputs)
                req.inputs.push_back(own(b));
            futs.push_back(engine.submit(std::move(req)));
        }
        for (auto &f : futs) {
            Response r = f.get();
            ASSERT_TRUE(r.ok()) << c.name << ": " << r.error;
            ASSERT_EQ(r.outputs.size(), ref.outputs.size()) << c.name;
            EXPECT_EQ(r.tier, 2) << c.name;
            for (std::size_t i = 0; i < r.outputs.size(); ++i)
                EXPECT_LE(r.outputs[i].maxAbsDiff(ref.outputs[i]),
                          c.tol)
                    << c.name << " output " << i;
        }
    }

    const ServeSnapshot s = engine.metrics();
    // May be zero on small machines: the auto-sized pool spawns no
    // dedicated threads and engine workers drive chunks themselves.
    EXPECT_GE(s.schedulerWorkers, 0);
    // Requests really went through the tile pool.
    EXPECT_GT(s.scheduler.tasksExecuted, 0u);
    EXPECT_EQ(s.scheduler.jobsCompleted, 12u);
    EXPECT_GT(s.batches, 0u);
    EXPECT_EQ(s.completed, 12u);
    EXPECT_EQ(s.failed, 0u);
}

TEST(EngineSharedSched, CoalescesQueuedSamePipelineRequests)
{
    RegistryOptions ropts;
    ropts.jit.cache = false; // first request compiles: a long dequeue
    auto registry = std::make_shared<PipelineRegistry>(ropts);
    auto t = testing::makePointwise(64);
    registry->add("pw", t.spec, CompileOptions::optimized());

    EngineOptions eopts;
    eopts.workers = 1; // one consumer so the queue backs up
    eopts.tiered = false;
    Engine engine(registry, eopts);

    const rt::Buffer in = rt::synth::photo(64, 64);
    std::vector<std::future<Response>> futs;
    for (int i = 0; i < 6; ++i) {
        Request req;
        req.pipeline = "pw";
        req.params = {64, 64};
        req.inputs = {own(in)};
        futs.push_back(engine.submit(std::move(req)));
    }
    for (auto &f : futs) {
        Response r = f.get();
        ASSERT_TRUE(r.ok()) << r.error;
    }
    const ServeSnapshot s = engine.metrics();
    EXPECT_EQ(s.completed, 6u);
    // The leader occupied the worker with the compile while the rest
    // queued behind it, so at least one dequeue coalesced >= 2.
    EXPECT_GE(s.maxBatchSize, 2);
    EXPECT_EQ(s.batchedRequests, 6u);
    EXPECT_LE(s.batches, 5u);
}

TEST(EngineSharedSched, SloAdmissionShedsPredictedMisses)
{
    auto registry = std::make_shared<PipelineRegistry>();
    auto t = testing::makePointwise(64);
    registry->add("pw", t.spec, CompileOptions::optimized());

    EngineOptions eopts;
    eopts.workers = 1;
    eopts.tiered = false;
    eopts.sloAdmission = true;
    Engine engine(registry, eopts);

    const rt::Buffer in = rt::synth::photo(64, 64);
    auto makeReq = [&](double deadline) {
        Request req;
        req.pipeline = "pw";
        req.params = {64, 64};
        req.inputs = {own(in)};
        req.deadlineSeconds = deadline;
        return req;
    };

    // Warm the EWMA (no deadline: always admitted).
    ASSERT_TRUE(engine.submit(makeReq(0.0)).get().ok());

    // Impossible deadline: predicted run alone exceeds it.
    Response shed = engine.submit(makeReq(1e-12)).get();
    EXPECT_FALSE(shed.ok());
    EXPECT_NE(shed.error.find("shed"), std::string::npos)
        << shed.error;
    EXPECT_EQ(shed.tier, 0);
    EXPECT_TRUE(shed.outputs.empty());

    // Generous deadline: admitted and met.
    Response okr = engine.submit(makeReq(60.0)).get();
    EXPECT_TRUE(okr.ok()) << okr.error;

    const ServeSnapshot s = engine.metrics();
    EXPECT_EQ(s.sloShed, 1u);
    EXPECT_EQ(s.shed, 1u);
    EXPECT_EQ(s.deadlineMisses, 0u);
    EXPECT_EQ(s.completed, 2u);
}

TEST(EngineSharedSched, TenantQuotaTokenBucket)
{
    auto registry = std::make_shared<PipelineRegistry>();
    auto t = testing::makePointwise(64);
    registry->add("pw", t.spec, CompileOptions::optimized());

    EngineOptions eopts;
    eopts.workers = 1;
    eopts.tiered = false;
    eopts.tenantRatePerSec = 1e-6; // effectively: burst only
    eopts.tenantBurst = 2.0;
    Engine engine(registry, eopts);

    const rt::Buffer in = rt::synth::photo(64, 64);
    auto makeReq = [&](const std::string &tenant) {
        Request req;
        req.pipeline = "pw";
        req.params = {64, 64};
        req.inputs = {own(in)};
        req.tenant = tenant;
        return req;
    };

    // Two tokens for tenant "a": third submit sheds.
    EXPECT_TRUE(engine.submit(makeReq("a")).get().ok());
    EXPECT_TRUE(engine.submit(makeReq("a")).get().ok());
    Response third = engine.submit(makeReq("a")).get();
    EXPECT_FALSE(third.ok());
    EXPECT_NE(third.error.find("quota"), std::string::npos)
        << third.error;
    // A different tenant has its own bucket.
    EXPECT_TRUE(engine.submit(makeReq("b")).get().ok());
    // Tenant-less requests bypass quotas entirely.
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(engine.submit(makeReq("")).get().ok());

    const ServeSnapshot s = engine.metrics();
    EXPECT_EQ(s.quotaShed, 1u);
    EXPECT_EQ(s.tenantShed.at("a"), 1u);
    EXPECT_EQ(s.tenantShed.count("b"), 0u);
    EXPECT_EQ(s.completed, 7u);
}

TEST(EngineSharedSched, MetricsJsonCarriesSchedulerAndSloBlocks)
{
    auto registry = std::make_shared<PipelineRegistry>();
    auto t = testing::makePointwise(64);
    registry->add("pw", t.spec, CompileOptions::optimized());

    EngineOptions eopts;
    eopts.workers = 1;
    eopts.tiered = false;
    Engine engine(registry, eopts);

    Request req;
    req.pipeline = "pw";
    req.params = {64, 64};
    req.inputs = {own(rt::synth::photo(64, 64))};
    ASSERT_TRUE(engine.submit(std::move(req)).get().ok());

    const std::string json = engine.metricsJson();
    for (const char *key :
         {"\"scheduler\"", "\"tasks_executed\"", "\"steals\"",
          "\"steal_fail_rate\"", "\"batches\"", "\"mean_batch_size\"",
          "\"slo\"", "\"quota_shed\"", "\"deadline_misses\"",
          "\"tenant_shed\"", "\"shed_wait\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    // One execution model: no mode name, no OpenMP thread budget.
    for (const char *key : {"\"mode\"", "\"omp_threads_per_worker\""})
        EXPECT_EQ(json.find(key), std::string::npos) << key;
}

/**
 * Only compiled-tier requests coalesce: an interpreter-tier request is
 * answered alone, so every batched request was a compiled answer.
 */
TEST(EngineSharedSched, InterpreterTierAnswersAlone)
{
    RegistryOptions ropts;
    ropts.jit.cache = false; // the compile outlasts the first answers
    auto registry = std::make_shared<PipelineRegistry>(ropts);
    registry->add("pw", testing::makePointwise(64).spec);

    EngineOptions eopts;
    eopts.workers = 1;
    Engine engine(registry, eopts);

    const rt::Buffer in = rt::synth::photo(64, 64);
    std::vector<std::future<Response>> futs;
    for (int i = 0; i < 6; ++i) {
        Request req;
        req.pipeline = "pw";
        req.params = {64, 64};
        req.inputs = {own(in)};
        futs.push_back(engine.submit(std::move(req)));
    }
    std::uint64_t interp = 0, compiled = 0;
    for (auto &f : futs) {
        Response r = f.get();
        ASSERT_TRUE(r.ok()) << r.error;
        (r.tier == 1 ? interp : compiled) += 1;
    }
    EXPECT_GE(interp, 1u);
    const ServeSnapshot s = engine.metrics();
    EXPECT_EQ(s.interpServed, interp);
    EXPECT_EQ(s.batchedRequests, compiled);
}

TEST(ConcurrentSharedSched, ManyClientsTwoPipelinesOnePool)
{
    auto registry = std::make_shared<PipelineRegistry>();
    auto pw = testing::makePointwise(64);
    auto blur = testing::makeBlurChain(48);
    registry->add("pw", pw.spec, CompileOptions::optimized());
    registry->add("blur", blur.spec, CompileOptions::optimized());

    EngineOptions eopts;
    eopts.workers = 3;
    eopts.tiered = false;
    Engine engine(registry, eopts);

    const rt::Buffer pwIn = rt::synth::photo(64, 64);
    const rt::Buffer blurIn = rt::synth::photo(48, 48);
    auto pwRef = interp::evaluate(pg::PipelineGraph::build(pw.spec),
                                  {64, 64}, {&pwIn});
    auto blurRef = interp::evaluate(
        pg::PipelineGraph::build(blur.spec), {48, 48}, {&blurIn});

    constexpr int kClients = 6;
    constexpr int kReqs = 8;
    std::vector<std::thread> clients;
    std::atomic<int> bad{0};
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < kReqs; ++i) {
                const bool usePw = (c + i) % 2 == 0;
                Request req;
                req.pipeline = usePw ? "pw" : "blur";
                req.params = usePw
                                 ? std::vector<std::int64_t>{64, 64}
                                 : std::vector<std::int64_t>{48, 48};
                req.inputs = {own(usePw ? pwIn : blurIn)};
                Response r = engine.submit(std::move(req)).get();
                const auto &ref = usePw ? pwRef : blurRef;
                if (!r.ok() || r.outputs.size() != ref.outputs.size())
                    bad.fetch_add(1);
                else
                    for (std::size_t o = 0; o < r.outputs.size(); ++o)
                        if (r.outputs[o].maxAbsDiff(ref.outputs[o]) >
                            1e-4)
                            bad.fetch_add(1);
            }
        });
    }
    for (std::thread &th : clients)
        th.join();
    EXPECT_EQ(bad.load(), 0);
    const ServeSnapshot s = engine.metrics();
    EXPECT_EQ(s.completed, std::uint64_t(kClients) * kReqs);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_GT(s.scheduler.tasksExecuted, 0u);
}

} // namespace
} // namespace polymage::serve
