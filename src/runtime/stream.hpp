/**
 * @file
 * Stateful streaming sessions over compiled pipelines
 * (docs/STREAMING.md): rt::StreamExecutable owns the persistent ring
 * buffers of a CompiledPipeline's StreamPlan and a frame counter, and
 * advances one frame per step().  Rings rotate by index — the slot
 * written at frame t is t mod depth, a tap at delay k reads slot
 * (t-k) mod depth — and are never copied for function feedback: the
 * ring slot itself is swapped into the entry point's output pointer
 * table.  All buffers (rings, outputs, pointer tables) are allocated
 * at session open, so the steady-state frame path performs zero
 * buffer allocations (the backing BufferPool plateaus after the
 * first frame; assert via memoryStats().poolBlockAllocs).
 */
#ifndef POLYMAGE_RUNTIME_STREAM_HPP
#define POLYMAGE_RUNTIME_STREAM_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/scheduler.hpp"

namespace polymage::rt {

/**
 * A streaming session: fixed parameters, persistent rings, one
 * frame per step().  Not thread-safe — feed frames from one thread
 * at a time (serve::Engine sessions guarantee this with a per-session
 * FIFO).  Multiple sessions may share one Executable.
 */
class StreamExecutable
{
  public:
    /**
     * Open a session.  @p exe must be compiled from a streaming spec
     * (info().stream.streaming); @p params are fixed for the session
     * lifetime.  Rings are zero-initialised: taps of the first k
     * frames read zeros (warm-up semantics).
     */
    StreamExecutable(std::shared_ptr<const Executable> exe,
                     std::vector<std::int64_t> params);

    /** Build + open in one go. */
    static StreamExecutable build(const dsl::PipelineSpec &spec,
                                  std::vector<std::int64_t> params,
                                  const CompileOptions &opts =
                                      CompileOptions::optimized());

    /**
     * Advance one frame: @p inputs are the declared inputs (taps
     * excluded), in ABI order.  Returns the output buffers; only the
     * first declaredOutputs() entries are the frame's live-outs
     * (trailing entries are internal feedback placeholders).  The
     * returned buffers are owned by the session and overwritten by
     * the next step().
     *
     * The frame's tiles drain through @p sched (docs/SERVING.md
     * "Scheduling"), or without one through Executable::runInto's
     * process-wide scheduler.  A failed frame throws and leaves the
     * rings as they were.
     */
    const std::vector<Buffer> &
    step(const std::vector<const Buffer *> &inputs,
         TileScheduler *sched = nullptr);

    /** Frames completed since open (== the next frame index). */
    long long frame() const { return frame_; }

    /** Outputs the caller sees per frame (feedback ones excluded). */
    int declaredOutputs() const { return plan_->declaredOutputs; }
    /** Inputs the caller supplies per frame (taps excluded). */
    int declaredInputs() const { return plan_->declaredInputs; }

    /** Output buffers of the most recent frame (see step()). */
    const std::vector<Buffer> &outputs() const { return outputs_; }

    /**
     * Executable memory stats plus this session's ring footprint
     * (MemoryStats::ringBuffers / ringBytes).
     */
    MemoryStats memoryStats() const;

    const Executable &executable() const { return *exe_; }
    const core::StreamPlan &plan() const { return *plan_; }

  private:
    std::shared_ptr<const Executable> exe_;
    const core::StreamPlan *plan_ = nullptr;
    std::vector<std::int64_t> params_;
    /** rings_[r][j]: ring r's slot for frames with t mod depth == j. */
    std::vector<std::vector<Buffer>> rings_;
    /** Persistent output table: declared outputs are real buffers,
     * synthetic feedback positions are empty placeholders that ring
     * slots swap through during a step. */
    std::vector<Buffer> outputs_;
    std::vector<const Buffer *> callInputs_;
    long long frame_ = 0;
};

} // namespace polymage::rt

#endif // POLYMAGE_RUNTIME_STREAM_HPP
