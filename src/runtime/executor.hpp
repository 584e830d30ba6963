/**
 * @file
 * High-level execution of compiled pipelines: ties the compiler driver
 * and JIT together, allocates output buffers, runs the generated
 * entry's phases on a TileScheduler, and exposes the per-task profile
 * used by the multicore scaling model.
 */
#ifndef POLYMAGE_RUNTIME_EXECUTOR_HPP
#define POLYMAGE_RUNTIME_EXECUTOR_HPP

#include <cstdint>
#include <vector>

#include "driver/compiler.hpp"
#include "runtime/buffer.hpp"
#include "runtime/jit.hpp"

namespace polymage::rt {

class TileScheduler;

/**
 * ABI of generated pipeline entry points (GeneratedCode::entry).  The
 * fourth argument carries the intermediate-buffer slots of the storage
 * reuse plan (StoragePlan::slots) and the reductions' partials,
 * 64-byte aligned, serviced by a BufferPool.  The trailing (phase, lo,
 * hi) triple selects what runs.  phase < 0
 * returns the phase count; lo < 0 returns the task count of `phase`
 * under the call's parameters; otherwise tasks [lo, min(hi, count-1)]
 * of `phase` execute serially in the calling thread and 0 is
 * returned.
 */
using TaskFn = long long (*)(const long long *, void *const *, void **,
                             void *const *, long long, long long,
                             long long);

/** Aggregated runtime cost of one group from a profiled run. */
struct GroupProfile
{
    /** Group index (matches CompiledPipeline::grouping.groups). */
    int group = 0;
    /** Space-separated member stage names (post-inlining). */
    std::string stages;
    /** Seconds summed over the group's recorded tasks. */
    double seconds = 0.0;
    /**
     * Number of recorded parallel tasks: outer tile count for a tiled
     * group, outer loop iteration count otherwise, the cell and slice
     * tasks of a sliced reduction; 0 for serial groups (reductions
     * reading their own accumulator, recurrences), whose time lands in
     * TaskProfile::serialSeconds.
     */
    long long tasks = 0;
};

/** Per-task timing profile from a serial run of the entry. */
struct TaskProfile
{
    /** Seconds per parallel task, phase order. */
    std::vector<double> costs;
    /** Task-entry phase (barrier region) of each task. */
    std::vector<long long> phase;
    /** Seconds spent in serial phases (GeneratedCode::serialPhases). */
    double serialSeconds = 0.0;
    /** Per-group rollup, one entry per group in emission order. */
    std::vector<GroupProfile> groups;

    double
    totalSeconds() const
    {
        double t = serialSeconds;
        for (double c : costs)
            t += c;
        return t;
    }

    /** Runtime profile serialized to the polymage-profile-v1 group
     * schema (see docs/OBSERVABILITY.md). */
    std::string toJson() const;
};

/**
 * Memory-system statistics of one Executable: the storage planner's
 * reuse-plan estimates plus the live counters of the backing
 * BufferPool.  Serialized into the `memory` object of
 * polymage-profile-v1 entries (docs/OBSERVABILITY.md).
 */
struct MemoryStats
{
    /** Full-buffer intermediates and the slots they share. */
    int intermediates = 0;
    int slots = 0;
    /** Estimated intermediate bytes without / with slot sharing. */
    std::int64_t estBytesNoReuse = 0;
    std::int64_t estBytesWithReuse = 0;
    std::int64_t estBytesSaved() const
    {
        return estBytesNoReuse - estBytesWithReuse;
    }
    /**
     * Scratchpad storage (paper §3.6).  A fully-fused pipeline can
     * have zero full-buffer intermediates while still carrying every
     * intermediate stage in per-tile scratchpads -- all-zero
     * `intermediates`/`slots` alone would misread as "no intermediate
     * storage at all", so the scratch side is reported explicitly.
     */
    int scratchStages = 0;
    /** Per-tile scratch bytes summed over all scratchpad stages. */
    std::int64_t scratchBytesPerTile = 0;
    /** Largest per-thread heap scratch arena (0: all scratch on stack). */
    std::int64_t heapArenaBytes = 0;
    /** Pool footprint: bytes of every block ever retained (peak). */
    std::int64_t poolBytesAllocated = 0;
    /** High-water mark of bytes simultaneously in use. */
    std::int64_t poolPeakBytesInUse = 0;
    /** Real heap allocations vs. total slot acquisitions; equal counts
     * mean every call allocated, a plateau means steady-state reuse. */
    std::uint64_t poolBlockAllocs = 0;
    std::uint64_t poolAcquires = 0;
    /** Streaming sessions only (docs/STREAMING.md): persistent ring
     * slots held across frames, and their total bytes. */
    int ringBuffers = 0;
    std::int64_t ringBytes = 0;

    /** Serialized to the polymage-memory-v1 schema. */
    std::string toJson() const;
};

/**
 * One prepared task-granular call (docs/SERVING.md "Scheduling"):
 * the resolved graph parameters, input/output pointer tables, and a
 * held slot lease, bound so the pipeline's phases can run as closed
 * task lists.  The lease returns to its pool on destruction; the
 * invocation must not outlive the Executable, the inputs, or the
 * output buffers it was prepared against.
 */
class TaskInvocation
{
  public:
    TaskInvocation(TaskInvocation &&o) noexcept;
    TaskInvocation &operator=(TaskInvocation &&) = delete;
    TaskInvocation(const TaskInvocation &) = delete;
    TaskInvocation &operator=(const TaskInvocation &) = delete;
    ~TaskInvocation();

    /** Parallel phases of the pipeline (== phaseGroup.size()). */
    long long phases() const;
    /** Tasks of @p phase under this call's parameters. */
    long long taskCount(long long phase) const;
    /** All per-phase task counts, phase order. */
    std::vector<long long> phaseCounts() const;
    /**
     * Execute tasks [lo, hi] of @p phase serially in the calling
     * thread.  Tasks of one phase are independent and may run
     * concurrently from many threads; phases must complete in order.
     */
    void run(long long phase, long long lo, long long hi) const;

  private:
    friend class Executable;
    TaskInvocation() = default;

    TaskFn fn_ = nullptr;
    std::vector<long long> params_;
    std::vector<void *> ins_;
    std::vector<void *> outs_;
    std::vector<void *> slots_;
    BufferPool *pool_ = nullptr;
};

/** A compiled, loaded, runnable pipeline. */
class Executable
{
  public:
    /**
     * Compile a specification end to end.  The JIT vectorisation flag
     * follows opts.codegen.vectorize; @p jit names the compiler and
     * whether the object cache is used.
     */
    static Executable build(const dsl::PipelineSpec &spec,
                            const CompileOptions &opts =
                                CompileOptions::optimized(),
                            JitOptions jit = {});

    /** Compiler artefacts (graph, grouping, storage, source). */
    const CompiledPipeline &info() const { return *compiled_; }

    /**
     * Compile-phase spans including the JIT: the driver phases from
     * CompiledPipeline::trace plus a final `jit` span.
     */
    const std::vector<obs::Span> &trace() const { return trace_; }

    /**
     * Allocate outputs and run: prepareTasks(), then the phases'
     * tasks on @p sched, the calling thread helping
     * (TileScheduler::run).  Without @p sched the run uses the
     * process-wide scheduler, created on first use with one worker
     * per hardware thread but one (none on a 1-core host).  Outputs
     * are bitwise the same on any scheduler.  A failed task throws
     * std::runtime_error.
     *
     * Thread-safe: concurrent run()/runInto() calls on one Executable
     * are supported — the compiled artefacts are immutable, slot
     * leases are per call, and the backing BufferPool is internally
     * locked (it grows to the concurrent working-set peak).
     */
    std::vector<Buffer> run(const std::vector<std::int64_t> &params,
                            const std::vector<const Buffer *> &inputs,
                            TileScheduler *sched = nullptr) const;

    /** Run into caller-provided outputs. */
    void runInto(const std::vector<std::int64_t> &params,
                 const std::vector<const Buffer *> &inputs,
                 std::vector<Buffer> &outputs,
                 TileScheduler *sched = nullptr) const;

    /**
     * Allocate outputs and run, servicing intermediate slots from
     * @p pool instead of the Executable's own.  Lets callers with many
     * concurrent invocations (the serving engine's workers) keep one
     * warm pool per thread so steady state stays allocation- and
     * contention-free.
     */
    std::vector<Buffer> run(const std::vector<std::int64_t> &params,
                            const std::vector<const Buffer *> &inputs,
                            BufferPool &pool,
                            TileScheduler *sched = nullptr) const;

    /** Run into caller-provided outputs using an external pool. */
    void runInto(const std::vector<std::int64_t> &params,
                 const std::vector<const Buffer *> &inputs,
                 std::vector<Buffer> &outputs, BufferPool &pool,
                 TileScheduler *sched = nullptr) const;

    /**
     * Prepare a task-granular call against caller-allocated
     * @p outputs: validates the request, binds parameters and pointer
     * tables, and leases the intermediate slots from @p pool.  The
     * returned invocation's run(phase, lo, hi) is what runInto()'s
     * scheduler and profile() execute; the caller must keep
     * inputs/outputs alive until it is destroyed.
     */
    TaskInvocation prepareTasks(const std::vector<std::int64_t> &params,
                                const std::vector<const Buffer *> &inputs,
                                std::vector<Buffer> &outputs,
                                BufferPool &pool) const;

    /**
     * Run the entry serially on the calling thread, one task per
     * call, and collect per-task costs.  The run repeats and keeps each
     * task's minimum.  Its outputs are discarded unless @p outputs is
     * given.
     */
    TaskProfile profile(const std::vector<std::int64_t> &params,
                        const std::vector<const Buffer *> &inputs,
                        std::vector<Buffer> *outputs = nullptr) const;

    /** Shapes of the output buffers under the given parameters. */
    std::vector<std::vector<std::int64_t>>
    outputShapes(const std::vector<std::int64_t> &params) const;

    /**
     * Memory-system statistics: the storage reuse plan plus live
     * counters from the pool backing the intermediate slots.
     */
    MemoryStats memoryStats() const;

    /** The pool servicing this pipeline's intermediate slots. */
    BufferPool &pool() const { return *pool_; }

  private:
    Executable() = default;

    std::shared_ptr<const CompiledPipeline> compiled_;
    std::shared_ptr<JitModule> module_;
    std::shared_ptr<BufferPool> pool_;
    std::vector<obs::Span> trace_;
    TaskFn entry_ = nullptr;
};

} // namespace polymage::rt

#endif // POLYMAGE_RUNTIME_EXECUTOR_HPP
