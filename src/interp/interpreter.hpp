/**
 * @file
 * Reference interpreter: evaluates a pipeline stage by stage into full
 * buffers, with no scheduling transformations.  It defines the
 * semantics every optimised execution path must match and doubles as a
 * dynamic validator (case-overlap detection, runtime bounds checks on
 * data-dependent accesses).
 */
#ifndef POLYMAGE_INTERP_INTERPRETER_HPP
#define POLYMAGE_INTERP_INTERPRETER_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "pipeline/graph.hpp"
#include "runtime/buffer.hpp"

namespace polymage::rt {
class TileScheduler;
} // namespace polymage::rt

namespace polymage::interp {

/** Interpreter knobs. */
struct EvalOptions
{
    /**
     * Detect points where two case conditions hold simultaneously
     * (ambiguous definition, paper §2) and raise SpecError.
     */
    bool checkCaseOverlap = true;
};

/** Evaluation result: one buffer per live-out, in declaration order. */
struct EvalResult
{
    std::vector<rt::Buffer> outputs;
    /** Buffers of every stage, keyed by callable entity id. */
    std::map<int, rt::Buffer> stageBuffers;
};

/**
 * Evaluate a pipeline.
 *
 * @param g pipeline graph
 * @param params parameter values in graph.params() order
 * @param inputs input buffers in graph.images() order; dims must match
 *               the image extents under the parameter values
 * @param opts interpreter options
 * @param sched when given, each function stage's rows are split into
 *              bands that run as tasks on it while the calling thread
 *              helps; outputs and errors are those of the serial
 *              evaluation without it
 * @throws SpecError on domain errors discovered at runtime
 */
EvalResult evaluate(const pg::PipelineGraph &g,
                    const std::vector<std::int64_t> &params,
                    const std::vector<const rt::Buffer *> &inputs,
                    const EvalOptions &opts = {},
                    rt::TileScheduler *sched = nullptr);

/**
 * Buffer shape of a stage under concrete parameter values: per
 * dimension, upper bound + 1 (allocations cover [0, upper]; negative
 * lower bounds are rejected).
 */
std::vector<std::int64_t> stageShape(const pg::Stage &s,
                                     const pg::PipelineGraph &g,
                                     const std::vector<std::int64_t> &
                                         params);

/**
 * Expected shape of an input image under concrete parameter values.
 */
std::vector<std::int64_t> imageShape(const dsl::ImageData &img,
                                     const pg::PipelineGraph &g,
                                     const std::vector<std::int64_t> &
                                         params);

} // namespace polymage::interp

#endif // POLYMAGE_INTERP_INTERPRETER_HPP
