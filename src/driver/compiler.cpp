#include "driver/compiler.hpp"

#include <cmath>
#include <optional>
#include <sstream>
#include <string>

#include "support/diagnostics.hpp"

namespace polymage {

CompileOptions
CompileOptions::optimized()
{
    CompileOptions o;
    o.grouping.autoTile = true;
    return o;
}

CompileOptions
CompileOptions::optNoVec()
{
    CompileOptions o;
    o.grouping.autoTile = true;
    o.codegen.vectorize = cg::VectorizeMode::Off;
    return o;
}

CompileOptions
CompileOptions::baseline(bool vectorize)
{
    CompileOptions o;
    o.grouping.enable = false;
    o.codegen.vectorize = vectorize ? cg::VectorizeMode::Explicit
                                    : cg::VectorizeMode::Off;
    return o;
}

CompileOptions
CompileOptions::serving()
{
    return optimized();
}

std::string
CompiledPipeline::report() const
{
    std::ostringstream os;
    os << graph.toString();
    if (!inlined.empty()) {
        os << "inlined:";
        for (const auto &n : inlined)
            os << " " << n;
        os << "\n";
    }
    os << grouping.toString(graph);
    os << "storage:\n";
    for (const auto &[s, st] : storage.stages) {
        os << "  " << graph.stage(s).name() << ": "
           << (st.kind == core::StorageKind::Scratchpad ? "scratchpad"
                                                        : "full");
        if (st.kind == core::StorageKind::Scratchpad) {
            os << " [";
            for (std::size_t d = 0; d < st.scratchExtent.size(); ++d)
                os << (d ? " x " : "") << st.scratchExtent[d];
            os << "]";
        }
        auto slot = storage.slot.find(s);
        if (slot != storage.slot.end())
            os << " (slot " << slot->second << ")";
        os << "\n";
    }
    if (!storage.slots.empty()) {
        os << "buffer reuse: " << storage.slot.size()
           << " intermediates in " << storage.slots.size()
           << " slots, est " << storage.estBytesNoReuse << " -> "
           << storage.estBytesWithReuse << " bytes\n";
        for (std::size_t k = 0; k < storage.slots.size(); ++k) {
            if (storage.slots[k].stages.size() < 2)
                continue;
            os << "  slot " << k << ":";
            for (int s : storage.slots[k].stages)
                os << " " << graph.stage(s).name();
            os << "\n";
        }
    }
    return os.str();
}

namespace {

/**
 * Reject tile options no schedule can use: a tile size below 1 would
 * divide by zero (or tile backwards) in the generated code.
 */
void
checkTileOptions(const core::GroupingOptions &g)
{
    if (g.tileSizes.empty())
        specError("grouping.tileSizes is empty");
    for (std::int64_t tau : g.tileSizes)
        if (tau < 1)
            specError("grouping.tileSizes entry ", tau, " is below 1");
    if (!std::isfinite(g.overlapThreshold) || g.overlapThreshold < 0)
        specError("grouping.overlapThreshold ", g.overlapThreshold,
                  " is negative or not finite");
}

} // namespace

CompiledPipeline
compilePipeline(const dsl::PipelineSpec &spec,
                const CompileOptions &opts)
{
    checkTileOptions(opts.grouping);
    // Trace every phase.  When the caller (e.g. Executable::build)
    // already installed a registry, report into it so the compile
    // spans and the caller's own spans (JIT) share one timeline;
    // otherwise use a local registry.
    obs::TraceRegistry local;
    obs::TraceRegistry *reg = obs::currentTrace();
    if (reg == nullptr)
        reg = &local;
    obs::ScopedCurrent install(reg);
    const std::size_t span_base = reg->spans().size();

    CompiledPipeline out{dsl::PipelineSpec(spec.name()), {}, {}, {},
                         {}, {}, {}, {}, {}, {}, {}, {}};
    // Streaming pipelines (dsl::prev taps) lower to a single-frame
    // spec + ring plan first, so every later phase sees an ordinary
    // pipeline.  Runs before inlining: the plan's positional indices
    // are pinned against the pre-clone input/output order, and the
    // synthetic feedback outputs it appends become live-outs the
    // inliner must keep.
    const dsl::PipelineSpec *source = &spec;
    std::optional<dsl::PipelineSpec> lowered;
    if (spec.isStreaming()) {
        obs::ScopedTrace phase(reg, "stream_lower");
        core::StreamLowering sl = core::lowerStream(spec);
        out.stream = std::move(sl.plan);
        lowered.emplace(std::move(sl.spec));
        source = &*lowered;
    } else {
        out.stream.declaredInputs = int(spec.inputs().size());
        out.stream.declaredOutputs = int(spec.outputs().size());
    }
    {
        obs::ScopedTrace phase(reg, "graph_build");
        // Validate the raw specification first: bounds errors should
        // be reported against the user's own stages, before inlining
        // rewrites them.
        pg::PipelineGraph raw = pg::PipelineGraph::build(*source);
        pg::checkBounds(raw);
    }
    {
        obs::ScopedTrace phase(reg, "inline");
        auto inlined = pg::inlinePointwise(*source);
        out.spec = std::move(inlined.spec);
        out.inlined = std::move(inlined.inlined);
        out.graph = pg::PipelineGraph::build(out.spec);
    }
    {
        obs::ScopedTrace phase(reg, "bounds_check");
        out.bounds = pg::checkBounds(out.graph);
    }
    {
        obs::ScopedTrace phase(reg, "tile_model");
        core::GroupingOptions gopts = opts.grouping;
        core::TileModelResult tm;
        tm.tileSizes = gopts.tileSizes;
        tm.overlapThreshold = gopts.overlapThreshold;
        if (!gopts.autoTile) {
            tm.reason = "auto tiling not requested";
        } else {
            tm = core::chooseTileConfig(out.graph, opts.grouping);
            if (tm.applied) {
                gopts.tileSizes = tm.tileSizes;
                gopts.overlapThreshold = tm.overlapThreshold;
            }
        }
        out.effectiveGrouping = std::move(gopts);
        out.tileModel = std::move(tm);
    }
    {
        obs::ScopedTrace phase(reg, "grouping");
        out.grouping =
            core::groupStages(out.graph, out.effectiveGrouping);
    }
    {
        obs::ScopedTrace phase(reg, "range_analysis");
        out.ranges = core::analyzeRanges(out.graph);
    }
    {
        obs::ScopedTrace phase(reg, "storage");
        out.storage = core::planStorage(out.graph, out.grouping,
                                        out.effectiveGrouping,
                                        opts.grouping.enable &&
                                            opts.codegen.storageOpt,
                                        &out.ranges);
    }
    {
        obs::ScopedTrace phase(reg, "codegen");
        out.code = cg::generate(out.graph, out.grouping,
                                out.effectiveGrouping, out.storage,
                                opts.codegen, out.ranges);
    }
    // Keep only this compilation's spans (an outer registry may hold
    // earlier compilations).
    auto all = reg->spans();
    out.trace.assign(all.begin() + std::ptrdiff_t(span_base), all.end());
    return out;
}

} // namespace polymage
