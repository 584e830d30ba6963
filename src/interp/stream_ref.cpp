/**
 * @file
 * Reference streaming evaluator: interpreter per frame + copied rings.
 */
#include "interp/stream_ref.hpp"

#include "support/diagnostics.hpp"

namespace polymage::interp {

namespace {

/** Euclidean (always non-negative) modulo. */
int
wrap(long long v, int depth)
{
    const long long m = v % depth;
    return int(m < 0 ? m + depth : m);
}

} // namespace

std::vector<std::vector<rt::Buffer>>
evaluateStream(const pg::PipelineGraph &g, const core::StreamPlan &plan,
               const std::vector<std::int64_t> &params,
               const std::vector<std::vector<const rt::Buffer *>> &frames)
{
    PM_ASSERT(plan.streaming, "evaluateStream needs a streaming plan");
    const int n_images = int(g.images().size());

    // One zeroed slot vector per ring; slot j holds the source's value
    // from the most recent frame f with f mod depth == j.  Frames
    // t < k therefore read never-written (all-zero) slots: warm-up.
    std::vector<std::vector<rt::Buffer>> rings;
    rings.reserve(plan.rings.size());
    for (const auto &r : plan.rings) {
        PM_ASSERT(!r.taps.empty(), "ring without taps");
        const dsl::ImageData &tap = *g.images()[r.taps[0].inputIndex];
        const auto shape = imageShape(tap, g, params);
        std::vector<rt::Buffer> slots;
        slots.reserve(r.depth);
        for (int j = 0; j < r.depth; ++j)
            slots.emplace_back(tap.dtype(), shape);
        rings.push_back(std::move(slots));
    }

    std::vector<std::vector<rt::Buffer>> out;
    out.reserve(frames.size());
    for (std::size_t t = 0; t < frames.size(); ++t) {
        const auto &declared = frames[t];
        PM_ASSERT(int(declared.size()) == plan.declaredInputs,
                  "frame input count mismatch");
        std::vector<const rt::Buffer *> ins(std::size_t(n_images),
                                            nullptr);
        for (int i = 0; i < plan.declaredInputs; ++i)
            ins[std::size_t(i)] = declared[std::size_t(i)];
        for (std::size_t r = 0; r < plan.rings.size(); ++r) {
            const core::RingSpec &ring = plan.rings[r];
            for (const auto &tap : ring.taps) {
                ins[std::size_t(tap.inputIndex)] =
                    &rings[r][std::size_t(wrap(
                        static_cast<long long>(t) - tap.delay, ring.depth))];
            }
        }
        EvalResult res = evaluate(g, params, ins);

        // Record frame t into each ring before harvesting outputs
        // (a declared-output ring reads res.outputs in place).
        for (std::size_t r = 0; r < plan.rings.size(); ++r) {
            const core::RingSpec &ring = plan.rings[r];
            const int slot = wrap(static_cast<long long>(t), ring.depth);
            if (ring.fromInput) {
                rings[r][std::size_t(slot)] =
                    *declared[std::size_t(ring.sourceInputIndex)];
            } else {
                rings[r][std::size_t(slot)] =
                    res.outputs[std::size_t(ring.sourceOutputIndex)];
            }
        }
        std::vector<rt::Buffer> declared_outs;
        declared_outs.reserve(std::size_t(plan.declaredOutputs));
        for (int i = 0; i < plan.declaredOutputs; ++i)
            declared_outs.push_back(
                std::move(res.outputs[std::size_t(i)]));
        out.push_back(std::move(declared_outs));
    }
    return out;
}

} // namespace polymage::interp
