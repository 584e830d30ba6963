/**
 * @file
 * Shared tile-task scheduler (docs/SERVING.md "Scheduling"): a fixed
 * pool of worker threads executing the phase-ordered task lists that
 * generated pipeline entries expose (GeneratedCode::entry).  Every
 * compiled run goes through one: Executable::run uses the caller's or
 * a process-wide scheduler, and one scheduler serves every in-flight
 * request of a serving engine, so tile tasks from concurrent requests
 * interleave on one thread pool: a long request's tail tiles no longer
 * serialise behind an idle barrier while other requests wait for
 * threads.
 *
 * Execution model: a job is a sequence of phases; every phase is a
 * closed list of independent tasks [0, count).  Each job has one claim
 * cursor, its current phase and next unclaimed task, and a thread
 * claims a chunk of consecutive tasks with one compare-and-swap on it.
 * The thread that retires a phase's last task moves the cursor to the
 * next phase -- the per-job phase barrier costs one atomic decrement
 * per chunk, never a pool-wide join.
 *
 * A job lives in the frame of the run() call that drives it: the
 * caller links it into the scheduler's list of live jobs, helps until
 * it completes, unlinks it and only then returns.  Every thread, the
 * caller included, takes chunks from the oldest job that has one left.
 *
 * Idle threads do not poll: they sleep on a condition variable until a
 * job is linked, a phase of more than one chunk is published or a job
 * completes.
 */
#ifndef POLYMAGE_RUNTIME_SCHEDULER_HPP
#define POLYMAGE_RUNTIME_SCHEDULER_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace polymage::rt {

/** Point-in-time scheduler counters (the `scheduler` object of
 * polymage-serve-v1 entries, docs/OBSERVABILITY.md). */
struct SchedulerStats
{
    /** Individual tasks executed (tile iterations, not chunks). */
    std::uint64_t tasksExecuted = 0;
    /** Chunks run, by any thread: successful claims. */
    std::uint64_t chunksExecuted = 0;
    /** Chunks run by a thread other than the job's run() caller (a
     * pool worker, or the caller of another job helping this one). */
    std::uint64_t steals = 0;
    /** Claims tried by a thread other than the job's run() caller,
     * successful or not: a failed one found the job's current phase
     * fully claimed. */
    std::uint64_t stealAttempts = 0;
    /** Jobs completed (one per run() call). */
    std::uint64_t jobsCompleted = 0;

    double stealFailRate() const
    {
        return stealAttempts == 0
                   ? 0.0
                   : double(stealAttempts - steals) /
                         double(stealAttempts);
    }
};

struct SchedJob;

struct SchedulerOptions
{
    /** Worker threads; 0 means hardware concurrency.  Negative means
     * a thread-less pool: no workers are spawned and run() callers
     * execute every chunk. */
    int workers = 0;
};

/**
 * The shared pool.  run() may be called from any thread; the caller
 * helps the pool's own workers (and other jobs' callers) execute the
 * job's tasks and returns when the job is done.  No job outlives its
 * run() call.
 */
class TileScheduler
{
  public:
    using Options = SchedulerOptions;

    /**
     * Runs tasks [lo, hi] of @p phase serially in the calling worker
     * thread (the task ABI of GeneratedCode::entry).
     */
    using PhaseRunner =
        std::function<void(long long phase, long long lo, long long hi)>;

    explicit TileScheduler(Options opts = {});
    TileScheduler(const TileScheduler &) = delete;
    TileScheduler &operator=(const TileScheduler &) = delete;
    ~TileScheduler();

    /**
     * Run one job and return the first error any of its tasks threw
     * ("" on success); every remaining task of a failed job is drained
     * without running.  Phases execute in order, tasks of each phase
     * spread over the pool; @p phase_counts holds the task count per
     * phase (zero-count phases are skipped).  The runner must be
     * callable concurrently from multiple threads for disjoint task
     * ranges of one phase.
     *
     * The calling thread participates: it claims chunks (of the oldest
     * live job with one left, its own or another caller's) until its
     * own job completes, only blocking when nothing is claimable -- the
     * caller becomes an extra worker instead of paying a cross-thread
     * handoff, and on a thread-less pool it is the only one.  The
     * scheduler borrows @p runner: it is never copied, and nothing
     * refers to it once run() returns.
     */
    std::string run(const PhaseRunner &runner,
                    std::vector<long long> phase_counts);

    int workers() const { return int(threads_.size()); }
    SchedulerStats stats() const;

  private:
    void workerLoop();
    /** Under mu_ (held by @p lock): end the visit to @p left (null:
     * none), then wait for the oldest live job with a chunk left and
     * visit it.  Returns null instead once @p own, the calling run()'s
     * job, is finished or, for a pool worker (@p own null), once the
     * scheduler stops. */
    SchedJob *visitNext(std::unique_lock<std::mutex> &lock, SchedJob *left,
                        const SchedJob *own);
    /** Claim, run and retire chunks of @p job until its current phase
     * has none left to claim; @p caller: whether this thread is the
     * job's run() caller. */
    void drain(SchedJob &job, bool caller);

    std::vector<std::thread> threads_;

    /** Guards live_, every job's visitor count and stopping_; wake_
     * waits on it. */
    std::mutex mu_;
    std::condition_variable wake_;
    /** Jobs of the run() calls in progress, oldest first. */
    std::vector<SchedJob *> live_;
    bool stopping_ = false;

    std::atomic<std::uint64_t> tasksExecuted_{0};
    std::atomic<std::uint64_t> chunksExecuted_{0};
    std::atomic<std::uint64_t> steals_{0};
    std::atomic<std::uint64_t> stealAttempts_{0};
    std::atomic<std::uint64_t> jobsCompleted_{0};
};

} // namespace polymage::rt

#endif // POLYMAGE_RUNTIME_SCHEDULER_HPP
