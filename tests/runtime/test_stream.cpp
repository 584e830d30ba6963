/**
 * @file
 * Streaming sessions (docs/STREAMING.md): rt::StreamExecutable must
 * match the reference streaming evaluator frame by frame -- including
 * the zero-filled warm-up frames -- while performing zero steady-state
 * buffer allocations, on the process-wide scheduler and on a shared
 * one passed to each step.
 */
#include <gtest/gtest.h>

#include "apps/apps.hpp"
#include "core/stream_plan.hpp"
#include "driver/compiler.hpp"
#include "interp/stream_ref.hpp"
#include "runtime/stream.hpp"
#include "support/rng.hpp"

namespace polymage::rt {
namespace {

using namespace dsl;

Buffer
randomBuffer(const std::vector<std::int64_t> &dims, std::uint64_t seed)
{
    Buffer b(DType::Float, dims);
    Rng rng(seed);
    for (std::int64_t i = 0; i < b.numel(); ++i)
        b.storeFromDouble(i, rng.uniformReal(0.0, 1.0));
    return b;
}

/** Reference outputs for the given frames of a streaming spec. */
std::vector<std::vector<Buffer>>
referenceFrames(const PipelineSpec &spec,
                const std::vector<std::int64_t> &params,
                const std::vector<Buffer> &frames)
{
    auto sl = core::lowerStream(spec);
    auto g = pg::PipelineGraph::build(sl.spec);
    std::vector<std::vector<const Buffer *>> ins;
    for (const Buffer &f : frames)
        ins.push_back({&f});
    return interp::evaluateStream(g, sl.plan, params, ins);
}

TEST(Stream, MatchesReferenceFrameByFrame)
{
    auto spec = apps::buildTemporalDenoise(48, 40);
    const std::vector<std::int64_t> params = {48, 40};
    std::vector<Buffer> frames;
    for (int t = 0; t < 6; ++t)
        frames.push_back(randomBuffer({50, 42}, 100 + t));
    const auto ref = referenceFrames(spec, params, frames);

    auto exe = std::make_shared<Executable>(Executable::build(spec));
    ASSERT_TRUE(exe->info().stream.streaming);
    StreamExecutable session(exe, params);
    ASSERT_EQ(session.declaredInputs(), 1);
    ASSERT_EQ(session.declaredOutputs(), 1);
    for (std::size_t t = 0; t < frames.size(); ++t) {
        SCOPED_TRACE("frame " + std::to_string(t));
        const auto &outs = session.step({&frames[t]});
        ASSERT_EQ(session.frame(), static_cast<long long>(t) + 1);
        EXPECT_LE(outs[0].maxAbsDiff(ref[t][0]), 1e-5);
    }
}

TEST(Stream, TaskAbiPathMatchesThroughSharedScheduler)
{
    auto spec = apps::buildTemporalDenoise(48, 40);
    const std::vector<std::int64_t> params = {48, 40};
    std::vector<Buffer> frames;
    for (int t = 0; t < 4; ++t)
        frames.push_back(randomBuffer({50, 42}, 300 + t));
    const auto ref = referenceFrames(spec, params, frames);

    auto exe = std::make_shared<Executable>(Executable::build(spec));
    StreamExecutable session(exe, params);
    TileScheduler sched(TileScheduler::Options{2});
    for (std::size_t t = 0; t < frames.size(); ++t) {
        SCOPED_TRACE("frame " + std::to_string(t));
        const auto &outs = session.step({&frames[t]}, &sched);
        EXPECT_LE(outs[0].maxAbsDiff(ref[t][0]), 1e-5);
    }
    EXPECT_GE(sched.stats().jobsCompleted, 4u);
}

TEST(Stream, ZeroSteadyStateAllocations)
{
    auto spec = apps::buildTemporalDenoise(48, 40);
    const std::vector<std::int64_t> params = {48, 40};
    auto exe = std::make_shared<Executable>(Executable::build(spec));
    StreamExecutable session(exe, params);
    // Rings: input I (depth 3), blury (depth 2), denoised (depth 2).
    MemoryStats before = session.memoryStats();
    EXPECT_EQ(before.ringBuffers, 7);
    EXPECT_GT(before.ringBytes, 0);

    Buffer frame = randomBuffer({50, 42}, 1);
    session.step({&frame});
    session.step({&frame});
    const auto warm = session.memoryStats().poolBlockAllocs;
    for (int t = 0; t < 16; ++t)
        session.step({&frame});
    // The frame path is allocation-free once warm: the pool's real
    // heap allocations plateau while acquires keep counting.
    MemoryStats after = session.memoryStats();
    EXPECT_EQ(after.poolBlockAllocs, warm);
    EXPECT_GT(after.poolAcquires, before.poolAcquires);
}

TEST(Stream, WarmupFramesReadZeroFilledSlots)
{
    // out(x) = I(x) + prev(I, 2)(x): the first two frames must see a
    // zero history, the third sees frame 0 again.
    Parameter N("N");
    Image I("I", DType::Float, {Expr(N)});
    PipelineSpec spec("delay_add");
    spec.addParam(N);
    spec.addInput(I);
    spec.estimate(N, 64);
    spec.setMaxDelay(2);
    Image I2 = prev(spec, I, 2);

    Variable x("x");
    Function out("out", {x}, {Interval(Expr(0), Expr(N) - 1)},
                 DType::Float);
    out.define(I(x) + I2(x));
    spec.addOutput(out);

    const std::vector<std::int64_t> params = {16};
    auto exe = std::make_shared<Executable>(Executable::build(spec));
    StreamExecutable session(exe, params);
    std::vector<Buffer> frames;
    for (int t = 0; t < 3; ++t) {
        frames.emplace_back(DType::Float, std::vector<std::int64_t>{16});
        frames.back().fill(double(t + 1));
    }
    const auto &o0 = session.step({&frames[0]});
    EXPECT_DOUBLE_EQ(o0[0].loadAsDouble(0), 1.0); // 1 + 0 (warm-up)
    const auto &o1 = session.step({&frames[1]});
    EXPECT_DOUBLE_EQ(o1[0].loadAsDouble(0), 2.0); // 2 + 0 (warm-up)
    const auto &o2 = session.step({&frames[2]});
    EXPECT_DOUBLE_EQ(o2[0].loadAsDouble(0), 4.0); // 3 + frame 0
}

TEST(Stream, RejectsNonStreamingPipelines)
{
    auto spec = apps::buildHarris(64, 64);
    auto exe = std::make_shared<Executable>(Executable::build(spec));
    EXPECT_THROW(StreamExecutable(exe, {64, 64}), SpecError);
}

} // namespace
} // namespace polymage::rt
