#include "serve/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "support/diagnostics.hpp"

namespace polymage::serve {

namespace {

/** 64-bit FNV-1a over a string (same scheme as the JIT cache key). */
std::uint64_t
fnv1a(const std::string &data, std::uint64_t h = 14695981039346656037ULL)
{
    for (unsigned char c : data) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * Process-portable fingerprint of a specification's *interface*: the
 * pipeline name plus the names, dtypes, and ranks of its parameters,
 * inputs, and outputs.  Deliberately excludes parameter estimate
 * values -- estimates only steer the grouping/storage heuristics of a
 * variant, and every input shape is served by the same variant
 * (docs/SHAPES.md), so folding them in would shatter the cache into
 * one entry per size.  Spec *revisions* (changed estimates or bodies)
 * are invalidated by the registration generation, not the fingerprint.
 */
std::uint64_t
specFingerprint(const dsl::PipelineSpec &spec)
{
    std::ostringstream os;
    os << spec.name() << ';';
    for (const auto &p : spec.params())
        os << p->name << ':' << int(p->dtype) << ',';
    os << ';';
    for (const auto &i : spec.inputs())
        os << i->name() << ':' << int(i->dtype()) << ':' << i->numDims()
           << ',';
    os << ';';
    for (const auto &o : spec.outputs())
        os << o->name() << ':' << int(o->dtype()) << ':' << o->numDims()
           << ',';
    return fnv1a(os.str());
}

constexpr char kKeySep = '\x1f';

/** Cache key of one variant: name, generation, and fingerprints. */
std::string
variantKey(const std::string &name, std::uint64_t gen,
           const dsl::PipelineSpec &spec, const CompileOptions &use)
{
    char hex[48];
    std::snprintf(hex, sizeof hex, "%llu%c%016llx%c%016llx",
                  (unsigned long long)gen, kKeySep,
                  (unsigned long long)specFingerprint(spec), kKeySep,
                  (unsigned long long)optionsFingerprint(use));
    return name + kKeySep + hex;
}

} // namespace

std::uint64_t
specInterfaceFingerprint(const dsl::PipelineSpec &spec)
{
    return specFingerprint(spec);
}

std::uint64_t
optionsFingerprint(const CompileOptions &o)
{
    std::ostringstream os;
    os << o.inlining.enable << ',' << o.inlining.maxBodyNodes << ';';
    os << o.grouping.enable << ',';
    for (std::int64_t t : o.grouping.tileSizes)
        os << t << '/';
    os << ',' << o.grouping.overlapThreshold << ','
       << o.grouping.minSize << ',' << o.grouping.minTiledExtent << ','
       << o.grouping.autoTile << ';';
    const auto &c = o.codegen;
    os << c.tile << ',' << c.storageOpt << ',' << int(c.vectorize) << ','
       << c.maxStackScratchBytes << ',' << c.bufferReuse << ','
       << c.partition;
    return fnv1a(os.str());
}

PipelineRegistry::PipelineRegistry(RegistryOptions opts)
    : opts_(std::move(opts))
{
    if (opts_.variantCapacity == 0)
        opts_.variantCapacity = 1;
}

void
PipelineRegistry::add(const std::string &name, dsl::PipelineSpec spec,
                      CompileOptions defaults)
{
    PM_ASSERT(name.find(kKeySep) == std::string::npos,
              "pipeline name contains a reserved character");
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pipelines_.find(name);
    std::uint64_t gen = 0;
    if (it != pipelines_.end()) {
        gen = it->second.generation + 1;
        // Invalidate the replaced pipeline's cached variants: every
        // key of this name (any generation) becomes unreachable, so
        // drop them now instead of waiting for LRU pressure.
        const std::string prefix = name + kKeySep;
        auto lo = variants_.lower_bound(prefix);
        while (lo != variants_.end() &&
               lo->first.compare(0, prefix.size(), prefix) == 0)
            lo = variants_.erase(lo);
    }
    pipelines_.insert_or_assign(
        name,
        Pipeline{std::move(spec), std::move(defaults), gen, nullptr});
}

bool
PipelineRegistry::has(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return pipelines_.count(name) != 0;
}

std::vector<std::string>
PipelineRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    for (const auto &[name, p] : pipelines_)
        out.push_back(name);
    return out;
}

PipelineRegistry::ExecutablePtr
PipelineRegistry::get(const std::string &name)
{
    return variantFuture(name, nullptr, /*async=*/false).get();
}

PipelineRegistry::ExecutablePtr
PipelineRegistry::get(const std::string &name,
                      const CompileOptions &opts)
{
    return variantFuture(name, &opts, /*async=*/false).get();
}

std::shared_future<PipelineRegistry::ExecutablePtr>
PipelineRegistry::prepare(const std::string &name,
                          const CompileOptions &opts)
{
    return variantFuture(name, &opts, /*async=*/true);
}

std::shared_ptr<const pg::PipelineGraph>
PipelineRegistry::graphOf(const std::string &name)
{
    dsl::PipelineSpec spec{"unset"};
    std::uint64_t gen = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto pit = pipelines_.find(name);
        if (pit == pipelines_.end())
            return nullptr;
        if (pit->second.graph)
            return pit->second.graph;
        spec = pit->second.spec;
        gen = pit->second.generation;
    }
    // Build outside the lock; a racing re-registration wins and this
    // graph is simply dropped.
    auto g = std::make_shared<const pg::PipelineGraph>(
        pg::PipelineGraph::build(spec));
    std::lock_guard<std::mutex> lock(mu_);
    auto pit = pipelines_.find(name);
    if (pit != pipelines_.end() && pit->second.generation == gen) {
        if (!pit->second.graph)
            pit->second.graph = g;
        return pit->second.graph;
    }
    return g;
}

PipelineRegistry::TieredResult
PipelineRegistry::getTiered(const std::string &name,
                            const CompileOptions *opts)
{
    TieredResult res;
    bool in_flight = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto pit = pipelines_.find(name);
        if (pit == pipelines_.end())
            specError("pipeline '", name, "' is not registered");
        const CompileOptions &use =
            opts != nullptr ? *opts : pit->second.defaults;
        const std::string key = variantKey(
            name, pit->second.generation, pit->second.spec, use);
        auto vit = variants_.find(key);
        if (vit != variants_.end()) {
            stats_.hits += 1;
            vit->second.lastUse = ++tick_;
            if (vit->second.ready) {
                res.exe = vit->second.future.get();
                return res;
            }
            in_flight = true;
        }
    }

    // Tier 1 from here on: launch the background compile on first
    // need (the prepare() miss path), then hand back the graph the
    // interpreter evaluates.  Names are never unregistered, so graphOf
    // finds this one.
    if (!in_flight) {
        variantFuture(name, opts, /*async=*/true);
        res.compileStarted = true;
    }
    res.graph = graphOf(name);
    return res;
}

std::shared_future<CompileOptions>
PipelineRegistry::prepareTuned(const std::string &name,
                               std::vector<std::int64_t> params,
                               std::vector<rt::Buffer> inputs,
                               tune::TuneSpace space)
{
    dsl::PipelineSpec spec{"unset"};
    CompileOptions base;
    std::uint64_t gen = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto pit = pipelines_.find(name);
        if (pit == pipelines_.end())
            specError("pipeline '", name, "' is not registered");
        spec = pit->second.spec;
        base = pit->second.defaults;
        gen = pit->second.generation;
    }

    auto prom = std::make_shared<std::promise<CompileOptions>>();
    std::shared_future<CompileOptions> fut =
        prom->get_future().share();
    auto work = [this, prom, name, spec = std::move(spec), base, gen,
                 params = std::move(params), inputs = std::move(inputs),
                 space = std::move(space)]() {
        try {
            std::vector<const rt::Buffer *> ptrs;
            for (const rt::Buffer &b : inputs)
                ptrs.push_back(&b);
            tune::TuneOptions topts;
            topts.base = base;
            const tune::TuneResult res =
                tune::autotuneGuided(spec, params, ptrs, space, topts);
            if (res.best < 0) {
                prom->set_value(base);
                return;
            }
            CompileOptions winner = base;
            winner.grouping.tileSizes = res.bestEntry().config.tiles;
            winner.grouping.overlapThreshold =
                res.bestEntry().config.threshold;
            winner.grouping.autoTile = false;
            // Warm the winner through the normal miss path so the
            // promoted defaults hit a ready variant immediately.
            variantFuture(name, &winner, /*async=*/false).get();
            {
                std::lock_guard<std::mutex> lock(mu_);
                auto pit = pipelines_.find(name);
                // Promote atomically, and only when nobody replaced
                // the pipeline while the sweep ran.
                if (pit != pipelines_.end() &&
                    pit->second.generation == gen) {
                    pit->second.defaults = winner;
                    stats_.tunePromotions += 1;
                }
            }
            prom->set_value(std::move(winner));
        } catch (...) {
            prom->set_exception(std::current_exception());
        }
    };
    {
        std::lock_guard<std::mutex> lock(mu_);
        compileThreads_.emplace_back(std::move(work));
    }
    return fut;
}

std::shared_future<PipelineRegistry::ExecutablePtr>
PipelineRegistry::variantFuture(const std::string &name,
                                const CompileOptions *opts, bool async)
{
    auto prom = std::make_shared<std::promise<ExecutablePtr>>();
    std::shared_future<ExecutablePtr> fut;
    std::string key;
    dsl::PipelineSpec spec{"unset"};
    CompileOptions use;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto pit = pipelines_.find(name);
        if (pit == pipelines_.end())
            specError("pipeline '", name, "' is not registered");
        use = opts != nullptr ? *opts : pit->second.defaults;
        key = variantKey(name, pit->second.generation,
                         pit->second.spec, use);

        auto vit = variants_.find(key);
        if (vit != variants_.end()) {
            stats_.hits += 1;
            vit->second.lastUse = ++tick_;
            return vit->second.future;
        }
        stats_.misses += 1;
        Variant v;
        v.future = prom->get_future().share();
        v.lastUse = ++tick_;
        fut = v.future;
        variants_[key] = std::move(v);
        spec = pit->second.spec;
    }

    auto compile = [this, prom, key, spec = std::move(spec), use]() {
        try {
            auto exe = std::make_shared<rt::Executable>(
                rt::Executable::build(spec, use, opts_.jit));
            prom->set_value(std::move(exe));
            std::lock_guard<std::mutex> lock(mu_);
            auto it = variants_.find(key);
            if (it != variants_.end())
                it->second.ready = true;
            evictLocked();
        } catch (...) {
            prom->set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(mu_);
            stats_.failures += 1;
            // Drop the failed entry so a later request retries the
            // compile instead of replaying a stale error forever.
            variants_.erase(key);
        }
    };

    if (async) {
        // Detached is unsafe (the thread touches the registry); the
        // destructor joins whatever is still compiling.
        std::lock_guard<std::mutex> lock(mu_);
        compileThreads_.emplace_back(compile);
    } else {
        compile();
    }
    return fut;
}

void
PipelineRegistry::evictLocked()
{
    while (true) {
        std::size_t ready = 0;
        auto victim = variants_.end();
        for (auto it = variants_.begin(); it != variants_.end(); ++it) {
            if (!it->second.ready)
                continue;
            ready += 1;
            if (victim == variants_.end() ||
                it->second.lastUse < victim->second.lastUse)
                victim = it;
        }
        if (ready <= opts_.variantCapacity ||
            victim == variants_.end())
            return;
        variants_.erase(victim);
        stats_.evictions += 1;
    }
}

std::size_t
PipelineRegistry::variantCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return variants_.size();
}

RegistryStats
PipelineRegistry::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

PipelineRegistry::~PipelineRegistry()
{
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(mu_);
        threads.swap(compileThreads_);
    }
    for (std::thread &t : threads) {
        if (t.joinable())
            t.join();
    }
}

} // namespace polymage::serve
