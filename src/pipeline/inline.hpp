/**
 * @file
 * Point-wise inlining (paper §3): substitutes the definitions of
 * point-wise producer functions into their consumers, trading a minimal
 * amount of redundant computation for locality and fewer stages.
 * Stencil and sampling producers are never inlined; schedule
 * transformations handle their locality instead.
 */
#ifndef POLYMAGE_PIPELINE_INLINE_HPP
#define POLYMAGE_PIPELINE_INLINE_HPP

#include "dsl/pipeline_spec.hpp"
#include "pipeline/graph.hpp"

namespace polymage::pg {

/** Outcome of the inlining pass. */
struct InlineResult
{
    /** Rewritten specification (clones; the input spec is untouched). */
    dsl::PipelineSpec spec;
    /** Names of the producers that were inlined somewhere. */
    std::vector<std::string> inlined;
};

/**
 * Inline point-wise producers.
 *
 * A producer qualifies when it is a non-live-out, non-self-recurrent
 * function with a single case whose accesses are all identity or
 * constant-indexed (a point-wise operation).  A guarded producer is
 * inlined into a consumer piece only when range analysis proves every
 * access from that piece lands inside the guard box, so dropping the
 * guard is sound.  Producers whose body exceeds a fixed node count
 * (256) are not inlined, bounding code growth along point-wise chains.
 */
InlineResult inlinePointwise(const dsl::PipelineSpec &spec);

} // namespace polymage::pg

#endif // POLYMAGE_PIPELINE_INLINE_HPP
