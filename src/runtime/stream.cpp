/**
 * @file
 * rt::StreamExecutable -- ring rotation around a compiled pipeline.
 */
#include "runtime/stream.hpp"

#include <cstring>
#include <utility>

#include "interp/interpreter.hpp"
#include "support/diagnostics.hpp"

namespace polymage::rt {

namespace {

/** Euclidean (always non-negative) modulo. */
int
wrap(long long v, int depth)
{
    const long long m = v % depth;
    return int(m < 0 ? m + depth : m);
}

} // namespace

StreamExecutable::StreamExecutable(std::shared_ptr<const Executable> exe,
                                   std::vector<std::int64_t> params)
    : exe_(std::move(exe)), params_(std::move(params))
{
    PM_ASSERT(exe_ != nullptr, "null executable");
    plan_ = &exe_->info().stream;
    if (!plan_->streaming) {
        specError("pipeline '", exe_->info().spec.name(),
                  "' is not a streaming pipeline (no prev() taps); "
                  "use Executable::run directly");
    }
    const auto &g = exe_->info().graph;

    // Persistent rings, zero-initialised (warm-up frames read zeros).
    rings_.reserve(plan_->rings.size());
    for (const auto &r : plan_->rings) {
        PM_ASSERT(!r.taps.empty(), "ring without taps");
        const dsl::ImageData &tap = *g.images()[r.taps[0].inputIndex];
        const auto shape = interp::imageShape(tap, g, params_);
        std::vector<Buffer> slots;
        slots.reserve(r.depth);
        for (int j = 0; j < r.depth; ++j)
            slots.emplace_back(tap.dtype(), shape);
        rings_.push_back(std::move(slots));
    }

    // Persistent output table.  Synthetic feedback outputs stay empty
    // placeholders: during a step the current ring slot is swapped in,
    // so the generated code writes the ring directly (never copied).
    const auto &outs = g.outputs();
    outputs_.reserve(outs.size());
    for (std::size_t i = 0; i < outs.size(); ++i) {
        bool synthetic = false;
        for (const auto &r : plan_->rings)
            synthetic |= r.syntheticOutput &&
                         r.sourceOutputIndex == int(i);
        if (synthetic) {
            outputs_.emplace_back();
        } else {
            const pg::Stage &s = g.stage(outs[std::size_t(i)]);
            outputs_.emplace_back(s.callable->dtype(),
                                  interp::stageShape(s, g, params_));
        }
    }
    callInputs_.assign(g.images().size(), nullptr);
}

StreamExecutable
StreamExecutable::build(const dsl::PipelineSpec &spec,
                        std::vector<std::int64_t> params,
                        const CompileOptions &opts)
{
    auto exe = std::make_shared<Executable>(
        Executable::build(spec, opts));
    return StreamExecutable(std::move(exe), std::move(params));
}

const std::vector<Buffer> &
StreamExecutable::step(const std::vector<const Buffer *> &inputs,
                       TileScheduler *sched)
{
    if (int(inputs.size()) != plan_->declaredInputs) {
        specError("stream step: got ", inputs.size(),
                  " inputs; expected ", plan_->declaredInputs);
    }
    for (int i = 0; i < plan_->declaredInputs; ++i)
        callInputs_[std::size_t(i)] = inputs[std::size_t(i)];
    for (std::size_t r = 0; r < plan_->rings.size(); ++r) {
        const core::RingSpec &ring = plan_->rings[r];
        // Taps read the slots of frames t-k.  The slot written this
        // frame (t mod depth) is never a tap (k >= 1 and k < depth),
        // and a slot read during warm-up (t-k < 0) has no writer
        // before frame t, so it still holds its zero fill.
        for (const auto &tap : ring.taps) {
            callInputs_[std::size_t(tap.inputIndex)] =
                &rings_[r][std::size_t(
                    wrap(frame_ - tap.delay, ring.depth))];
        }
        // Ingest the current frame of input-image rings up front (the
        // tap slots for this frame's reads are older slots).
        if (ring.fromInput) {
            Buffer &slot =
                rings_[r][std::size_t(wrap(frame_, ring.depth))];
            const Buffer *src =
                inputs[std::size_t(ring.sourceInputIndex)];
            if (src->bytes() != slot.bytes()) {
                specError("stream step: input '", ring.name,
                          "' does not match the session shape");
            }
            std::memcpy(slot.data(), src->data(),
                        std::size_t(slot.bytes()));
        }
    }
    // Swap the current slot of each feedback ring into the output
    // table: the entry point writes the ring in place.
    for (std::size_t r = 0; r < plan_->rings.size(); ++r) {
        const core::RingSpec &ring = plan_->rings[r];
        if (!ring.fromInput && ring.syntheticOutput) {
            std::swap(outputs_[std::size_t(ring.sourceOutputIndex)],
                      rings_[r][std::size_t(wrap(frame_, ring.depth))]);
        }
    }
    try {
        exe_->runInto(params_, callInputs_, outputs_, exe_->pool(), sched);
    } catch (const std::exception &e) {
        // Restore the ring slots before surfacing the failure.
        for (std::size_t r = 0; r < plan_->rings.size(); ++r) {
            const core::RingSpec &ring = plan_->rings[r];
            if (!ring.fromInput && ring.syntheticOutput)
                std::swap(outputs_[std::size_t(ring.sourceOutputIndex)],
                          rings_[r][std::size_t(wrap(frame_, ring.depth))]);
        }
        specError("stream step failed: ", e.what());
    }
    for (std::size_t r = 0; r < plan_->rings.size(); ++r) {
        const core::RingSpec &ring = plan_->rings[r];
        if (ring.fromInput)
            continue;
        Buffer &slot = rings_[r][std::size_t(wrap(frame_, ring.depth))];
        if (ring.syntheticOutput) {
            // Swap back: the slot now holds frame t, the placeholder
            // returns to the output table.
            std::swap(outputs_[std::size_t(ring.sourceOutputIndex)],
                      slot);
        } else {
            // Declared live-out feedback: the caller keeps the stable
            // output buffer, the ring gets a copy.
            const Buffer &out =
                outputs_[std::size_t(ring.sourceOutputIndex)];
            std::memcpy(slot.data(), out.data(),
                        std::size_t(slot.bytes()));
        }
    }
    ++frame_;
    return outputs_;
}

MemoryStats
StreamExecutable::memoryStats() const
{
    MemoryStats m = exe_->memoryStats();
    for (const auto &slots : rings_) {
        for (const auto &b : slots) {
            ++m.ringBuffers;
            m.ringBytes += b.bytes();
        }
    }
    return m;
}

} // namespace polymage::rt
