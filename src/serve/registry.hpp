/**
 * @file
 * Pipeline registry for the serving engine: owns named pipeline
 * specifications and a bounded LRU cache of compiled variants.  A
 * variant is one `rt::Executable` keyed by (registration generation,
 * spec fingerprint, CompileOptions fingerprint) — the spec
 * fingerprint is a process-portable hash of the pipeline *interface*
 * (name plus parameter/input/output names, dtypes, and ranks) and
 * deliberately excludes estimate values, so one variant entry serves
 * every input shape (docs/SHAPES.md).  Re-registering a name bumps
 * the generation, which invalidates its cached variants.
 *
 * Compilation happens *outside* the registry lock: a miss installs a
 * placeholder future, releases the lock, and compiles, so a request
 * for an already-hot variant never blocks behind a cold one's JIT.
 * prepare() performs the same miss path on a background thread for
 * ahead-of-time warming.
 */
#ifndef POLYMAGE_SERVE_REGISTRY_HPP
#define POLYMAGE_SERVE_REGISTRY_HPP

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "driver/compiler.hpp"
#include "dsl/pipeline_spec.hpp"
#include "pipeline/graph.hpp"
#include "runtime/executor.hpp"
#include "tune/autotuner.hpp"

namespace polymage::serve {

/**
 * Process-portable hash of a specification's *interface*: the
 * pipeline name plus the names, dtypes, and ranks of its parameters,
 * inputs, and outputs.  Two specs built independently from the same
 * source code are equal, and estimate values do not participate (one
 * variant serves every shape -- docs/SHAPES.md).  This is the spec
 * component of the registry's variant keys.
 */
std::uint64_t specInterfaceFingerprint(const dsl::PipelineSpec &spec);

/**
 * Hash of every CompileOptions field that shapes the generated code:
 * the options component of the registry's variant keys.  New fields
 * must be added to it, otherwise distinct variants would alias one
 * cache entry.
 */
std::uint64_t optionsFingerprint(const CompileOptions &opts);

/** Registry knobs. */
struct RegistryOptions
{
    /**
     * Maximum number of *ready* compiled variants retained across all
     * registered pipelines.  Beyond it the least-recently-used ready
     * variant is evicted (in-flight compilations are never evicted;
     * executables still referenced by callers stay alive through their
     * shared_ptr).
     */
    std::size_t variantCapacity = 8;
    /** Flags for the downstream JIT of every compiled variant. */
    rt::JitOptions jit;
};

/** Counters exposed for tests and the serving dashboard. */
struct RegistryStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /** Compilations that failed (their cache entries are dropped). */
    std::uint64_t failures = 0;
    /** Background tunes whose winner was promoted to the defaults. */
    std::uint64_t tunePromotions = 0;
};

/**
 * Thread-safe store of named pipelines and their compiled variants.
 * All public methods may be called concurrently.
 */
class PipelineRegistry
{
  public:
    using ExecutablePtr = std::shared_ptr<const rt::Executable>;

    explicit PipelineRegistry(RegistryOptions opts = {});
    PipelineRegistry(const PipelineRegistry &) = delete;
    PipelineRegistry &operator=(const PipelineRegistry &) = delete;
    /** Joins any still-running background compilations. */
    ~PipelineRegistry();

    /**
     * Register a pipeline under @p name with the options used when a
     * request does not name an explicit variant.  Re-registering a
     * name replaces the spec and invalidates its cached variants.
     */
    void add(const std::string &name, dsl::PipelineSpec spec,
             CompileOptions defaults = CompileOptions::optimized());

    bool has(const std::string &name) const;
    /** Registered names, sorted. */
    std::vector<std::string> names() const;

    /**
     * Compiled executable for the registered default options.
     * Compiles on miss (blocking this caller only); concurrent callers
     * of the same variant share one compilation.
     * @throws SpecError for unknown names or invalid specs.
     */
    ExecutablePtr get(const std::string &name);

    /** Compiled executable for an explicit variant. */
    ExecutablePtr get(const std::string &name,
                      const CompileOptions &opts);

    /**
     * Outcome of a tiered lookup (docs/SHAPES.md): exactly one of
     * `exe` (tier 2, the ready compiled variant) or `graph` (tier 1,
     * the pipeline graph for interp::evaluate while the compile is in
     * flight) is set.
     */
    struct TieredResult
    {
        ExecutablePtr exe;
        std::shared_ptr<const pg::PipelineGraph> graph;
        /** True when this lookup launched the background compile. */
        bool compileStarted = false;
    };

    /**
     * Non-blocking tiered lookup: a ready variant returns tier 2
     * immediately; otherwise the caller gets the (cached) pipeline
     * graph to answer from the reference interpreter, and the variant
     * compile is started in the background on first need.  Once the
     * background build finishes, subsequent calls promote to tier 2
     * atomically (the future flips ready under the registry lock).
     * A ready variant counts a hit; starting a compile counts a miss;
     * tier-1 lookups while in flight count hits (the entry exists).
     */
    TieredResult getTiered(const std::string &name,
                           const CompileOptions *opts = nullptr);

    /**
     * The (cached) pipeline graph of a registered name, built on
     * first need; null for unknown names.  Never compiles.  This is
     * what the serving engine's SLO admission sizes its pre-warmup
     * analytic cost estimate against (docs/SERVING.md "Scheduling").
     */
    std::shared_ptr<const pg::PipelineGraph>
    graphOf(const std::string &name);

    /**
     * Start compiling a variant on a background thread (no-op when it
     * is already cached or compiling).  The returned future yields the
     * executable or rethrows the compile error.
     */
    std::shared_future<ExecutablePtr>
    prepare(const std::string &name, const CompileOptions &opts);

    /**
     * Background-tune a registered pipeline on representative inputs
     * and atomically promote the winner: a guided autotune sweep
     * (tune::autotuneGuided, seeded and pruned by the tile cost model)
     * runs on a background thread against the pipeline's current
     * default options; the winning configuration is compiled into the
     * variant cache and then installed as the pipeline's defaults, so
     * subsequent get(name) calls serve the tuned variant.  Promotion
     * is skipped when the pipeline was re-registered (generation
     * changed) while the tune ran; requests keep being served from the
     * existing defaults throughout.  The future yields the winning
     * options (or the untouched defaults when nothing was measured)
     * and rethrows tuning errors.
     */
    std::shared_future<CompileOptions>
    prepareTuned(const std::string &name,
                 std::vector<std::int64_t> params,
                 std::vector<rt::Buffer> inputs,
                 tune::TuneSpace space = {});

    /** Ready + in-flight variants currently cached. */
    std::size_t variantCount() const;

    RegistryStats stats() const;

  private:
    struct Pipeline
    {
        dsl::PipelineSpec spec;
        CompileOptions defaults;
        /** Bumped on re-registration to invalidate old variants. */
        std::uint64_t generation = 0;
        /** Lazily-built graph serving tier-1 (interpreter) requests. */
        std::shared_ptr<const pg::PipelineGraph> graph;
    };

    struct Variant
    {
        std::shared_future<ExecutablePtr> future;
        /** LRU clock value of the last access. */
        std::uint64_t lastUse = 0;
        /** Set once the future holds a value (eviction candidate). */
        bool ready = false;
    };

    /** Core lookup: find-or-install, compile outside the lock. */
    std::shared_future<ExecutablePtr>
    variantFuture(const std::string &name, const CompileOptions *opts,
                  bool async);

    void evictLocked();

    mutable std::mutex mu_;
    RegistryOptions opts_;
    std::map<std::string, Pipeline> pipelines_;
    std::map<std::string, Variant> variants_;
    /** Background compilation threads started by prepare(). */
    std::vector<std::thread> compileThreads_;
    std::uint64_t tick_ = 0;
    RegistryStats stats_;
};

} // namespace polymage::serve

#endif // POLYMAGE_SERVE_REGISTRY_HPP
