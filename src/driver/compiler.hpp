/**
 * @file
 * Top-level compiler driver: runs the full phase sequence of paper
 * Fig. 4 (graph construction, static bounds check, inlining, grouping
 * with alignment/scaling, storage mapping, code generation) and
 * returns everything a client needs to inspect or execute the result.
 */
#ifndef POLYMAGE_DRIVER_COMPILER_HPP
#define POLYMAGE_DRIVER_COMPILER_HPP

#include "codegen/generate.hpp"
#include "core/grouping.hpp"
#include "core/storage.hpp"
#include "core/stream_plan.hpp"
#include "core/tile_model.hpp"
#include "pipeline/bounds_check.hpp"
#include "pipeline/inline.hpp"
#include "support/trace.hpp"

namespace polymage {

/** All compiler knobs, grouped by phase. */
struct CompileOptions
{
    pg::InlineOptions inlining;
    core::GroupingOptions grouping;
    cg::CodegenOptions codegen;

    /** Everything on (the paper's PolyMage opt+vec). */
    static CompileOptions optimized();
    /** opt without vectorisation pragmas (PolyMage opt). */
    static CompileOptions optNoVec();
    /**
     * PolyMage base(+vec): inlining and parallel per-stage loops, but
     * no grouping, tiling, or storage optimisation (paper §4).
     */
    static CompileOptions baseline(bool vectorize);
    /** Same as optimized(); kept for existing callers. */
    static CompileOptions serving();
};

/** Result of a full compilation. */
struct CompiledPipeline
{
    /** Specification after inlining (clones; input spec untouched). */
    dsl::PipelineSpec spec;
    /** Names of inlined stages. */
    std::vector<std::string> inlined;
    /** Graph of the post-inlining pipeline. */
    pg::PipelineGraph graph;
    /** Bounds-check warnings (violations throw). */
    pg::BoundsReport bounds;
    core::GroupingResult grouping;
    /**
     * Forward value-range analysis (docs/VECTORIZATION.md): per-stage
     * value intervals and the minimal storage type each intermediate
     * provably fits.  Feeds storage narrowing and the explicit vector
     * emitter's compute-type choice.
     */
    core::RangeAnalysis ranges;
    core::StoragePlan storage;
    cg::GeneratedCode code;
    /**
     * The grouping options actually used: the caller's options after
     * the tile cost model (when grouping.autoTile is on).
     */
    core::GroupingOptions effectiveGrouping;
    /**
     * The tile cost model's decision (applied == false when the model
     * was skipped or had nothing to size); reported in profile JSON.
     */
    core::TileModelResult tileModel;
    /**
     * Ring-buffer plan of a streaming pipeline (docs/STREAMING.md);
     * stream.streaming == false for single-frame pipelines.  Filled
     * by the stream_lower phase, which rewrites frame-delay taps into
     * the positional input/output contract rt::StreamExecutable
     * rotates rings against.
     */
    core::StreamPlan stream;
    /**
     * Compile-phase trace: one span per driver phase (span names are
     * listed in docs/OBSERVABILITY.md), with alignment/scaling
     * attempts nested under `grouping`.  When an outer registry is
     * installed via obs::ScopedCurrent the spans also accumulate
     * there (that is how Executable adds the `jit` span).
     */
    std::vector<obs::Span> trace;

    /** Human-readable phase report (groups, storage, sizes). */
    std::string report() const;

    /** Compile trace serialized to the polymage-trace-v1 schema. */
    std::string traceJson() const { return obs::spansToJson(trace); }
};

/**
 * Compile a pipeline specification to C++ source.
 *
 * @throws SpecError for invalid specifications.
 */
CompiledPipeline compilePipeline(const dsl::PipelineSpec &spec,
                                 const CompileOptions &opts =
                                     CompileOptions::optimized());

} // namespace polymage

#endif // POLYMAGE_DRIVER_COMPILER_HPP
