#include "driver/compiler.hpp"

#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace polymage {

namespace {

/** True when a switch value is anything but "" or "0". */
bool
isSet(const std::string &v)
{
    return !v.empty() && v != "0";
}

/** Parse "32,256"-style POLYMAGE_TILE_SIZES; nullopt when malformed. */
std::optional<std::vector<std::int64_t>>
parseTileSizes(const std::string &spec)
{
    std::vector<std::int64_t> out;
    std::string cur;
    auto flush = [&]() {
        if (cur.empty())
            return false;
        char *end = nullptr;
        const long long v = std::strtoll(cur.c_str(), &end, 10);
        if (end == nullptr || *end != '\0' || v <= 0)
            return false;
        out.push_back(v);
        cur.clear();
        return true;
    };
    for (char c : spec) {
        if (c == ',') {
            if (!flush())
                return std::nullopt;
        } else {
            cur += c;
        }
    }
    if (!flush())
        return std::nullopt;
    return out;
}

/**
 * The caller's options after the environment overrides: ablation
 * switches that benches and tests flip without a rebuild.  The tile
 * overrides win over the tile cost model, so they are kept aside and
 * applied after it; the other switches fold into the options or name
 * a driver decision.
 */
struct Effective
{
    CompileOptions opts;
    /** Off under POLYMAGE_NO_TILE_MODEL: the fixed-size behaviour. */
    bool tileModel = true;
    /** Off under POLYMAGE_NARROW=0: declared-type storage and lanes. */
    bool narrow = true;
    std::optional<std::vector<std::int64_t>> tileSizes;
    std::optional<double> overlapThreshold;
};

/** One environment override: its variable and how a value applies.
 * Malformed values are ignored. */
struct EnvOverride
{
    const char *name;
    void (*apply)(const std::string &value, Effective &e);
};

const EnvOverride kEnvOverrides[] = {
    {"POLYMAGE_NO_TILE_MODEL",
     [](const std::string &v, Effective &e) {
         if (isSet(v))
             e.tileModel = false;
     }},
    {"POLYMAGE_TILE_SIZES",
     [](const std::string &v, Effective &e) {
         e.tileSizes = parseTileSizes(v);
     }},
    {"POLYMAGE_OVERLAP_THRESH",
     [](const std::string &v, Effective &e) {
         char *end = nullptr;
         const double f = std::strtod(v.c_str(), &end);
         if (*end == '\0' && f > 0.0 && f <= 1.0)
             e.overlapThreshold = f;
     }},
    {"POLYMAGE_NARROW",
     [](const std::string &v, Effective &e) {
         if (v == "0")
             e.narrow = false;
     }},
    {"POLYMAGE_NO_REUSE",
     [](const std::string &v, Effective &e) {
         if (isSet(v))
             e.opts.codegen.bufferReuse = false;
     }},
    {"POLYMAGE_NO_PARTITION",
     [](const std::string &v, Effective &e) {
         if (isSet(v))
             e.opts.codegen.partition = false;
     }},
    {"POLYMAGE_VECTORIZE",
     [](const std::string &v, Effective &e) {
         if (v == "off")
             e.opts.codegen.vectorize = cg::VectorizeMode::Off;
         else if (v == "explicit")
             e.opts.codegen.vectorize = cg::VectorizeMode::Explicit;
     }},
};

/** Read every override once, before the first compile phase. */
Effective
applyEnvOverrides(const CompileOptions &opts)
{
    Effective e;
    e.opts = opts;
    for (const EnvOverride &o : kEnvOverrides) {
        if (const char *v = std::getenv(o.name))
            o.apply(v, e);
    }
    return e;
}

} // namespace

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
    o.codegen.tile = false;
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

CompiledPipeline
compilePipeline(const dsl::PipelineSpec &spec,
                const CompileOptions &opts_in)
{
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
    const Effective eff = applyEnvOverrides(opts_in);
    const CompileOptions &opts = eff.opts;

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
        auto inlined = pg::inlinePointwise(*source, opts.inlining);
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
        } else if (!eff.tileModel) {
            // Ablation switch: exactly the historical fixed-size
            // behaviour, without a rebuild.
            tm.reason = "disabled (POLYMAGE_NO_TILE_MODEL)";
        } else {
            tm = core::chooseTileConfig(out.graph, opts.grouping);
            if (tm.applied) {
                gopts.tileSizes = tm.tileSizes;
                gopts.overlapThreshold = tm.overlapThreshold;
            }
        }
        // Explicit environment overrides win over the model.
        if (eff.tileSizes)
            gopts.tileSizes = *eff.tileSizes;
        if (eff.overlapThreshold)
            gopts.overlapThreshold = *eff.overlapThreshold;
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
                                        opts.codegen.tile &&
                                            opts.codegen.storageOpt,
                                        opts.codegen.bufferReuse,
                                        eff.narrow ? &out.ranges : nullptr);
    }
    {
        obs::ScopedTrace phase(reg, "codegen");
        out.code = cg::generate(out.graph, out.grouping,
                                out.effectiveGrouping, out.storage,
                                opts.codegen,
                                eff.narrow ? &out.ranges : nullptr);
    }
    // Keep only this compilation's spans (an outer registry may hold
    // earlier compilations).
    auto all = reg->spans();
    out.trace.assign(all.begin() + std::ptrdiff_t(span_base), all.end());
    return out;
}

} // namespace polymage
