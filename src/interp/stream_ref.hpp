/**
 * @file
 * Reference streaming evaluator (docs/STREAMING.md): runs the lowered
 * single-frame graph of a streaming pipeline once per frame with the
 * interpreter, carrying ring history between frames by plain copies.
 * It defines the frame-by-frame semantics (including the zero-filled
 * warm-up reads of the first k frames) that rt::StreamExecutable and
 * serve::Engine streaming sessions must match bit-for-bit in shape
 * and within float tolerance in value.
 */
#ifndef POLYMAGE_INTERP_STREAM_REF_HPP
#define POLYMAGE_INTERP_STREAM_REF_HPP

#include <cstdint>
#include <vector>

#include "core/stream_plan.hpp"
#include "interp/interpreter.hpp"

namespace polymage::interp {

/**
 * Evaluate @p frames of a lowered streaming pipeline.
 *
 * @param g       graph built from the lowered spec (feedback outputs
 *                included)
 * @param plan    ring plan produced by core::lowerStream
 * @param params  parameter values in graph order
 * @param frames  per-frame declared inputs (plan.declaredInputs each)
 * @return one vector of declared outputs per frame (synthetic
 *         feedback outputs are stripped)
 */
std::vector<std::vector<rt::Buffer>>
evaluateStream(const pg::PipelineGraph &g, const core::StreamPlan &plan,
               const std::vector<std::int64_t> &params,
               const std::vector<std::vector<const rt::Buffer *>> &frames);

} // namespace polymage::interp

#endif // POLYMAGE_INTERP_STREAM_REF_HPP
