/**
 * @file
 * Engine streaming sessions (docs/STREAMING.md): frame-by-frame
 * interpreter equality through openStream/submitFrame -- including
 * the zero-history warm-up frames -- per-session FIFO ordering under
 * a multi-worker pool, coexistence with regular requests, the stream
 * metrics surface, and close/shutdown semantics.
 */
#include <gtest/gtest.h>

#include <mutex>

#include "apps/apps.hpp"
#include "interp/interpreter.hpp"
#include "interp/stream_ref.hpp"
#include "pipeline/graph.hpp"
#include "serve/engine.hpp"
#include "support/rng.hpp"

namespace polymage::serve {
namespace {

rt::Buffer
randomFrame(const std::vector<std::int64_t> &dims, std::uint64_t seed)
{
    rt::Buffer b(dsl::DType::Float, dims);
    Rng rng(seed);
    for (std::int64_t i = 0; i < b.numel(); ++i)
        b.storeFromDouble(i, rng.uniformReal(0.0, 1.0));
    return b;
}

/** Reference outputs for the given frames of a streaming spec. */
std::vector<std::vector<rt::Buffer>>
referenceFrames(const dsl::PipelineSpec &spec,
                const std::vector<std::int64_t> &params,
                const std::vector<rt::Buffer> &frames)
{
    auto sl = core::lowerStream(spec);
    auto g = pg::PipelineGraph::build(sl.spec);
    std::vector<std::vector<const rt::Buffer *>> ins;
    for (const rt::Buffer &f : frames)
        ins.push_back({&f});
    return interp::evaluateStream(g, sl.plan, params, ins);
}

std::shared_ptr<PipelineRegistry>
denoiseRegistry(int rows, int cols)
{
    auto registry = std::make_shared<PipelineRegistry>();
    registry->add("denoise", apps::buildTemporalDenoise(rows, cols));
    return registry;
}

/** Callback-collected per-frame results (outputs deep-copied while
 * the borrow is valid). */
struct Collected
{
    std::mutex mu;
    std::vector<long long> order;
    std::vector<rt::Buffer> outputs;
    std::vector<std::string> errors;

    FrameCallback collector()
    {
        return [this](const StreamFrameResult &fr) {
            std::lock_guard<std::mutex> lock(mu);
            order.push_back(fr.frame);
            errors.push_back(fr.error);
            if (fr.ok()) {
                EXPECT_NE(fr.outputs, nullptr);
                outputs.push_back((*fr.outputs)[0]);
            }
        };
    }
};

TEST(EngineStreaming, SessionMatchesReferenceFrameByFrame)
{
    auto spec = apps::buildTemporalDenoise(40, 36);
    const std::vector<std::int64_t> params = {40, 36};
    std::vector<rt::Buffer> frames;
    for (int t = 0; t < 6; ++t)
        frames.push_back(randomFrame({42, 38}, 500 + t));
    const auto ref = referenceFrames(spec, params, frames);

    Engine engine(denoiseRegistry(40, 36));
    auto session = engine.openStream("denoise", params);
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(session->pipeline(), "denoise");
    EXPECT_EQ(session->declaredInputs(), 1);
    EXPECT_EQ(session->declaredOutputs(), 1);
    EXPECT_GT(session->memoryStats().ringBuffers, 0);

    Collected got;
    for (const rt::Buffer &f : frames)
        engine.submitFrame(
            session, {std::make_shared<rt::Buffer>(f)},
            got.collector());
    engine.closeStream(session);
    EXPECT_TRUE(session->closed());
    EXPECT_EQ(session->framesDone(), frames.size());

    ASSERT_EQ(got.order.size(), frames.size());
    ASSERT_EQ(got.outputs.size(), frames.size());
    for (std::size_t t = 0; t < frames.size(); ++t) {
        SCOPED_TRACE("frame " + std::to_string(t));
        EXPECT_EQ(got.order[t], static_cast<long long>(t));
        EXPECT_TRUE(got.errors[t].empty()) << got.errors[t];
        // Warm-up frames (t < 2) read zero history in both paths.
        EXPECT_LE(got.outputs[t].maxAbsDiff(ref[t][0]), 1e-5);
    }
}

TEST(EngineStreaming, FifoOrderWithSharedTileQueueAndRequests)
{
    auto spec = apps::buildTemporalDenoise(40, 36);
    const std::vector<std::int64_t> params = {40, 36};
    std::vector<rt::Buffer> frames;
    for (int t = 0; t < 8; ++t)
        frames.push_back(randomFrame({42, 38}, 700 + t));
    const auto ref = referenceFrames(spec, params, frames);

    EngineOptions opts;
    opts.workers = 2;
    Engine engine(denoiseRegistry(40, 36), opts);
    auto session = engine.openStream("denoise", params);

    // Regular requests of the same pipeline interleave with the
    // session's frames on the same workers and tile pool.  A raw
    // (lowered-ABI) request must supply the tap inputs itself; the
    // zero-filled taps match the session's own warm-up state, so its
    // response equals the reference frame 0.
    auto lowered = core::lowerStream(spec);
    auto lg = pg::PipelineGraph::build(lowered.spec);
    Request raw;
    raw.pipeline = "denoise";
    raw.params = params;
    raw.inputs.push_back(std::make_shared<rt::Buffer>(frames[0]));
    for (std::size_t i = 1; i < lg.images().size(); ++i) {
        const dsl::ImageData &tap = *lg.images()[i];
        raw.inputs.push_back(std::make_shared<rt::Buffer>(
            rt::Buffer(tap.dtype(),
                       interp::imageShape(tap, lg, params))));
    }
    auto rawFut = engine.submit(raw);

    Collected got;
    for (const rt::Buffer &f : frames)
        engine.submitFrame(
            session, {std::make_shared<rt::Buffer>(f)},
            got.collector());
    engine.closeStream(session);

    ASSERT_EQ(got.order.size(), frames.size());
    for (std::size_t t = 0; t < frames.size(); ++t) {
        SCOPED_TRACE("frame " + std::to_string(t));
        EXPECT_EQ(got.order[t], static_cast<long long>(t));
        EXPECT_LE(got.outputs[t].maxAbsDiff(ref[t][0]), 1e-5);
    }
    Response rr = rawFut.get();
    ASSERT_TRUE(rr.ok()) << rr.error;
    EXPECT_LE(rr.outputs[0].maxAbsDiff(ref[0][0]), 1e-5);
}

TEST(EngineStreaming, MetricsReportSessionsFpsAndP99)
{
    const std::vector<std::int64_t> params = {40, 36};
    Engine engine(denoiseRegistry(40, 36));
    auto session = engine.openStream("denoise", params);
    for (int t = 0; t < 5; ++t)
        engine.submitFrame(
            session,
            {std::make_shared<rt::Buffer>(
                randomFrame({42, 38}, 900 + t))});
    engine.closeStream(session);

    ServeSnapshot s = engine.metrics();
    EXPECT_EQ(s.streamSessionsOpened, 1u);
    EXPECT_EQ(s.streamSessionsClosed, 1u);
    EXPECT_EQ(s.framesSubmitted, 5u);
    EXPECT_EQ(s.framesCompleted, 5u);
    EXPECT_EQ(s.framesFailed, 0u);
    EXPECT_EQ(s.frameLatency.count, 5u);
    ASSERT_EQ(s.streamSessions.size(), 1u);
    const auto &sum = s.streamSessions[0];
    EXPECT_EQ(sum.id, session->id());
    EXPECT_EQ(sum.pipeline, "denoise");
    EXPECT_EQ(sum.frames, 5u);
    EXPECT_EQ(sum.failed, 0u);
    EXPECT_GT(sum.fps, 0.0);
    EXPECT_GT(sum.p99Seconds, 0.0);
    EXPECT_TRUE(sum.closed);
    // Frames stay out of the request counters (the snapshot
    // invariant submitted == completed + failed + ... is
    // request-only).
    EXPECT_EQ(s.submitted, 0u);
    EXPECT_EQ(s.queueDepth, 0);

    const std::string json = engine.metricsJson();
    EXPECT_NE(json.find("\"stream\""), std::string::npos);
    EXPECT_NE(json.find("\"frames_completed\":5"), std::string::npos);
    EXPECT_NE(json.find("\"sessions_active\":0"), std::string::npos);
    EXPECT_NE(json.find("\"fps\""), std::string::npos);
    EXPECT_NE(json.find("\"p99_seconds\""), std::string::npos);
}

TEST(EngineStreaming, RejectsClosedSessionsAndNonStreamingPipelines)
{
    auto registry = denoiseRegistry(40, 36);
    registry->add("harris", apps::buildHarris(64, 64));
    Engine engine(registry);
    EXPECT_THROW(engine.openStream("harris", {64, 64}), SpecError);

    auto session = engine.openStream("denoise", {40, 36});
    engine.closeStream(session);
    engine.closeStream(session); // idempotent
    Collected got;
    engine.submitFrame(session,
                       {std::make_shared<rt::Buffer>(
                           randomFrame({42, 38}, 1))},
                       got.collector());
    ASSERT_EQ(got.errors.size(), 1u);
    EXPECT_NE(got.errors[0].find("closed"), std::string::npos);
    ServeSnapshot s = engine.metrics();
    EXPECT_EQ(s.framesFailed, 1u);
    EXPECT_EQ(s.streamSessionsClosed, 1u);
}

TEST(EngineStreaming, ShutdownFailsUnrunFramesAndOpenStreams)
{
    const std::vector<std::int64_t> params = {40, 36};
    Engine engine(denoiseRegistry(40, 36));
    auto session = engine.openStream("denoise", params);
    Collected got;
    for (int t = 0; t < 4; ++t)
        engine.submitFrame(session,
                           {std::make_shared<rt::Buffer>(
                               randomFrame({42, 38}, 40 + t))},
                           got.collector());
    engine.shutdown();
    // Every submitted frame completed or was failed by shutdown;
    // none is silently dropped.
    ServeSnapshot s = engine.metrics();
    EXPECT_EQ(s.framesSubmitted, 4u);
    EXPECT_EQ(s.framesCompleted + s.framesFailed, 4u);
    EXPECT_EQ(got.order.size(), 4u);
    EXPECT_TRUE(session->closed());
    // closeStream after shutdown returns immediately.
    engine.closeStream(session);
}

} // namespace
} // namespace polymage::serve
