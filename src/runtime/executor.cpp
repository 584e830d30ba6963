#include "runtime/executor.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "interp/interpreter.hpp"
#include "runtime/scheduler.hpp"

namespace polymage::rt {

Executable
Executable::build(const dsl::PipelineSpec &spec,
                  const CompileOptions &opts, JitOptions jit)
{
    // One registry for the whole build so the driver's compile phases
    // and the JIT share a single timeline.
    obs::TraceRegistry reg;
    obs::ScopedCurrent install(&reg);

    Executable exe;
    exe.compiled_ = std::make_shared<CompiledPipeline>(
        compilePipeline(spec, opts));
    exe.pool_ = std::make_shared<BufferPool>();
    // Off means *scalar*: suppress the JIT's autovectorisation flags
    // too.  Compare against the generated mode, which folds in the
    // POLYMAGE_VECTORIZE override.
    jit.vectorize =
        jit.vectorize && exe.compiled_->code.vectorizeMode != "off";
    {
        // One translation unit per compiler slot.  A split costs at
        // most the link and pays off from about 150 source lines
        // (EXPERIMENTS.md "Parallel JIT").
        obs::ScopedTrace span(&reg, "jit");
        exe.module_ = std::make_shared<JitModule>(JitModule::compile(
            exe.compiled_->code.translationUnits(JitModule::parallelism()),
            jit));
    }
    exe.entry_ = reinterpret_cast<TaskFn>(
        exe.module_->symbol(exe.compiled_->code.entry));
    exe.trace_ = reg.spans();
    return exe;
}

std::vector<std::vector<std::int64_t>>
Executable::outputShapes(const std::vector<std::int64_t> &params) const
{
    const auto &g = compiled_->graph;
    std::vector<std::vector<std::int64_t>> shapes;
    for (int out : g.outputs())
        shapes.push_back(interp::stageShape(g.stage(out), g, params));
    return shapes;
}

namespace {

void
validateRun(const CompiledPipeline &c,
            const std::vector<std::int64_t> &params,
            const std::vector<const Buffer *> &inputs)
{
    const auto &g = c.graph;
    if (params.size() != g.params().size()) {
        specError("pipeline '", g.name(), "' expects ",
                  g.params().size(), " parameters, got ", params.size());
    }
    if (inputs.size() != g.images().size()) {
        specError("pipeline '", g.name(), "' expects ",
                  g.images().size(), " inputs, got ", inputs.size());
    }
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        PM_ASSERT(inputs[i] != nullptr, "null input buffer");
        const auto &img = *g.images()[i];
        if (inputs[i]->dims() != interp::imageShape(img, g, params)) {
            specError("input image '", img.name(),
                      "' has mismatched dimensions");
        }
        if (inputs[i]->dtype() != img.dtype()) {
            specError("input image '", img.name(),
                      "' has mismatched dtype");
        }
    }
}

/** Bytes of @p s's buffer in its storage type under @p params. */
std::int64_t
stageBytes(const CompiledPipeline &c, int s,
           const std::vector<std::int64_t> &params)
{
    const auto &g = c.graph;
    std::int64_t numel = 1;
    for (std::int64_t d : interp::stageShape(g.stage(s), g, params))
        numel *= d;
    // The plan's allocation type -- the narrowed one when the range
    // analysis proved it -- so the bitwidth narrowing shrinks the lease.
    return numel * std::int64_t(dsl::dtypeSize(c.storage.elemType(s, g)));
}

/**
 * Acquire the storage plan's allocation slots from @p pool, then the
 * sliced reductions' partials slot (GeneratedCode::slicedReductions).
 * Each slot is sized to its largest member stage under the actual
 * parameter values (compile-time estimates only guided the slot
 * *assignment*; sizes are always resolved at call time).
 */
std::vector<void *>
acquireSlots(const CompiledPipeline &c, BufferPool &pool,
             const std::vector<std::int64_t> &params)
{
    std::vector<void *> ptrs;
    ptrs.reserve(c.storage.slots.size() + 1);
    for (const auto &slot : c.storage.slots) {
        std::int64_t bytes = 0;
        for (int s : slot.stages)
            bytes = std::max(bytes, stageBytes(c, s, params));
        ptrs.push_back(pool.acquire(std::size_t(bytes)));
    }
    if (!c.code.slicedReductions.empty()) {
        std::int64_t bytes = 0;
        for (int s : c.code.slicedReductions)
            bytes = std::max(bytes, (cg::kReductionSlices - 1) *
                                        stageBytes(c, s, params));
        ptrs.push_back(pool.acquire(std::size_t(bytes)));
    }
    return ptrs;
}

/**
 * The scheduler of runs given none: created on first use, with one
 * worker per hardware thread but one (the helping caller takes that
 * one), thread-less on a 1-core host.
 */
TileScheduler &
defaultScheduler()
{
    static TileScheduler sched([] {
        SchedulerOptions o;
        o.workers = int(std::thread::hardware_concurrency()) - 1;
        if (o.workers < 1)
            o.workers = -1;
        return o;
    }());
    return sched;
}

} // namespace

void
Executable::runInto(const std::vector<std::int64_t> &params,
                    const std::vector<const Buffer *> &inputs,
                    std::vector<Buffer> &outputs,
                    TileScheduler *sched) const
{
    runInto(params, inputs, outputs, *pool_, sched);
}

void
Executable::runInto(const std::vector<std::int64_t> &params,
                    const std::vector<const Buffer *> &inputs,
                    std::vector<Buffer> &outputs, BufferPool &pool,
                    TileScheduler *sched) const
{
    TileScheduler &s = sched != nullptr ? *sched : defaultScheduler();
    const TaskInvocation inv = prepareTasks(params, inputs, outputs, pool);
    const std::string err = s.run(
        [&inv](long long phase, long long lo, long long hi) {
            inv.run(phase, lo, hi);
        },
        inv.phaseCounts());
    if (!err.empty())
        throw std::runtime_error("pipeline '" + compiled_->graph.name() +
                                 "' failed: " + err);
}

std::vector<Buffer>
Executable::run(const std::vector<std::int64_t> &params,
                const std::vector<const Buffer *> &inputs,
                TileScheduler *sched) const
{
    return run(params, inputs, *pool_, sched);
}

TaskInvocation::TaskInvocation(TaskInvocation &&o) noexcept
    : fn_(o.fn_), params_(std::move(o.params_)),
      ins_(std::move(o.ins_)), outs_(std::move(o.outs_)),
      slots_(std::move(o.slots_)), pool_(o.pool_)
{
    o.slots_.clear();
    o.pool_ = nullptr;
}

TaskInvocation::~TaskInvocation()
{
    if (pool_ != nullptr) {
        for (void *p : slots_)
            pool_->release(p);
    }
}

long long
TaskInvocation::phases() const
{
    return fn_(params_.data(), ins_.data(),
               const_cast<void **>(outs_.data()), slots_.data(), -1,
               -1, -1);
}

long long
TaskInvocation::taskCount(long long phase) const
{
    return fn_(params_.data(), ins_.data(),
               const_cast<void **>(outs_.data()), slots_.data(), phase,
               -1, -1);
}

std::vector<long long>
TaskInvocation::phaseCounts() const
{
    std::vector<long long> counts;
    const long long n = phases();
    counts.reserve(std::size_t(n));
    for (long long p = 0; p < n; ++p)
        counts.push_back(taskCount(p));
    return counts;
}

void
TaskInvocation::run(long long phase, long long lo, long long hi) const
{
    fn_(params_.data(), ins_.data(),
        const_cast<void **>(outs_.data()), slots_.data(), phase, lo,
        hi);
}

TaskInvocation
Executable::prepareTasks(const std::vector<std::int64_t> &params,
                         const std::vector<const Buffer *> &inputs,
                         std::vector<Buffer> &outputs,
                         BufferPool &pool) const
{
    validateRun(*compiled_, params, inputs);
    TaskInvocation inv;
    inv.fn_ = entry_;
    inv.pool_ = &pool;
    for (const Buffer *b : inputs)
        inv.ins_.push_back(const_cast<void *>(b->data()));
    for (Buffer &b : outputs)
        inv.outs_.push_back(b.data());
    inv.params_.assign(params.begin(), params.end());
    inv.slots_ = acquireSlots(*compiled_, pool, params);
    return inv;
}

std::vector<Buffer>
Executable::run(const std::vector<std::int64_t> &params,
                const std::vector<const Buffer *> &inputs,
                BufferPool &pool, TileScheduler *sched) const
{
    validateRun(*compiled_, params, inputs);
    std::vector<Buffer> outputs;
    const auto &g = compiled_->graph;
    for (int out : g.outputs()) {
        outputs.emplace_back(g.stage(out).callable->dtype(),
                             interp::stageShape(g.stage(out), g,
                                                params));
    }
    runInto(params, inputs, outputs, pool, sched);
    return outputs;
}

TaskProfile
Executable::profile(const std::vector<std::int64_t> &params,
                    const std::vector<const Buffer *> &inputs,
                    std::vector<Buffer> *outputs_out) const
{
    validateRun(*compiled_, params, inputs);
    const auto &g = compiled_->graph;
    std::vector<Buffer> outputs;
    for (int out : g.outputs()) {
        outputs.emplace_back(g.stage(out).callable->dtype(),
                             interp::stageShape(g.stage(out), g,
                                                params));
    }

    TaskProfile prof;
    {
        const TaskInvocation inv =
            prepareTasks(params, inputs, outputs, *pool_);
        const std::vector<long long> counts = inv.phaseCounts();
        const std::vector<bool> &serial = compiled_->code.serialPhases;
        for (std::size_t p = 0; p < counts.size(); ++p) {
            if (!serial[p])
                prof.phase.insert(prof.phase.end(), std::size_t(counts[p]),
                                  (long long)p);
        }
        // One serial pass over the entry, one task per call in
        // phase order: parallel phases' tasks land in @p costs, serial
        // phases' single tasks in @p serial_s.
        using Clock = std::chrono::steady_clock;
        auto pass = [&](std::vector<double> &costs, double &serial_s) {
            costs.clear();
            serial_s = 0.0;
            for (std::size_t p = 0; p < counts.size(); ++p) {
                for (long long t = 0; t < counts[p]; ++t) {
                    const auto t0 = Clock::now();
                    inv.run((long long)p, t, t);
                    const double dt =
                        std::chrono::duration<double>(Clock::now() - t0)
                            .count();
                    if (serial[p])
                        serial_s += dt;
                    else
                        costs.push_back(dt);
                }
            }
        };
        prof.costs.reserve(prof.phase.size());
        pass(prof.costs, prof.serialSeconds);

        // The serial run is deterministic, so repeat it and keep the
        // per-task minimum: OS preemption spikes on a shared core
        // would otherwise masquerade as giant tasks and wreck the LPT
        // makespan.  Short pipelines get more repeats -- a
        // sub-millisecond run needs several samples before the minima
        // stop moving -- until ~30ms of measurement accumulates
        // (capped at 9 total runs).
        const double first_total = prof.totalSeconds();
        const int reps =
            first_total >= 0.015
                ? 3
                : std::min(9, 3 + int(0.03 / std::max(first_total, 1e-5)));
        std::vector<double> costs;
        costs.reserve(prof.costs.size());
        for (int rep = 1; rep < reps; ++rep) {
            double serial_s = 0.0;
            pass(costs, serial_s);
            for (std::size_t i = 0; i < costs.size(); ++i)
                prof.costs[i] = std::min(prof.costs[i], costs[i]);
            prof.serialSeconds = std::min(prof.serialSeconds, serial_s);
        }
    }

    // Fold the flat task stream into the per-group rollup using the
    // codegen's phase->group map.  Every group gets an entry, in
    // emission order, even when it recorded no tasks (serial groups).
    const auto &phase_group = compiled_->code.phaseGroup;
    prof.groups.resize(compiled_->grouping.groups.size());
    for (std::size_t gi = 0; gi < prof.groups.size(); ++gi) {
        prof.groups[gi].group = int(gi);
        std::string names;
        for (int s : compiled_->grouping.groups[gi].stages) {
            if (!names.empty())
                names += ' ';
            names += g.stage(s).name();
        }
        prof.groups[gi].stages = std::move(names);
    }
    for (std::size_t i = 0; i < prof.costs.size(); ++i) {
        GroupProfile &gp = prof.groups[std::size_t(
            phase_group[std::size_t(prof.phase[i])])];
        gp.seconds += prof.costs[i];
        gp.tasks += 1;
    }
    if (outputs_out != nullptr)
        *outputs_out = std::move(outputs);
    return prof;
}

MemoryStats
Executable::memoryStats() const
{
    MemoryStats m;
    const auto &st = compiled_->storage;
    m.intermediates = int(st.slot.size());
    m.slots = int(st.slots.size());
    m.estBytesNoReuse = st.estBytesNoReuse;
    m.estBytesWithReuse = st.estBytesWithReuse;
    for (const auto &[s, ss] : st.stages) {
        if (ss.kind == core::StorageKind::Scratchpad) {
            ++m.scratchStages;
            m.scratchBytesPerTile += ss.scratchBytes;
        }
    }
    m.heapArenaBytes = compiled_->code.heapArenaBytes;
    const BufferPool::Stats ps = pool_->stats();
    m.poolBytesAllocated = ps.bytesOwned;
    m.poolPeakBytesInUse = ps.peakBytesInUse;
    m.poolBlockAllocs = ps.blockAllocs;
    m.poolAcquires = ps.acquires;
    return m;
}

std::string
MemoryStats::toJson() const
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("schema").value("polymage-memory-v1");
    w.key("intermediates").value(intermediates);
    w.key("slots").value(slots);
    w.key("est_bytes_no_reuse").value(estBytesNoReuse);
    w.key("est_bytes_with_reuse").value(estBytesWithReuse);
    w.key("est_bytes_saved").value(estBytesSaved());
    w.key("scratch_stages").value(scratchStages);
    w.key("scratch_bytes_per_tile").value(scratchBytesPerTile);
    w.key("heap_arena_bytes").value(heapArenaBytes);
    w.key("pool_bytes_allocated").value(poolBytesAllocated);
    w.key("pool_peak_bytes_in_use").value(poolPeakBytesInUse);
    w.key("pool_block_allocs").value(std::int64_t(poolBlockAllocs));
    w.key("pool_acquires").value(std::int64_t(poolAcquires));
    w.key("ring_buffers").value(ringBuffers);
    w.key("ring_bytes").value(ringBytes);
    w.endObject();
    return w.str();
}

std::string
TaskProfile::toJson() const
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("schema").value("polymage-runtime-v1");
    // serial_seconds only accumulates for pipelines with serial
    // stages; omit the field entirely instead of reporting a
    // misleading 0 for fully parallel pipelines.
    if (serialSeconds > 0.0)
        w.key("serial_seconds").value(serialSeconds);
    w.key("total_seconds").value(totalSeconds());
    w.key("tasks").value(std::int64_t(costs.size()));
    w.key("groups").beginArray();
    for (const auto &gp : groups) {
        w.beginObject();
        w.key("group").value(gp.group);
        w.key("stages").value(gp.stages);
        w.key("seconds").value(gp.seconds);
        w.key("tasks").value(std::int64_t(gp.tasks));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace polymage::rt
