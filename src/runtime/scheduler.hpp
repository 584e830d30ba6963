/**
 * @file
 * Shared work-stealing tile-task scheduler (docs/SERVING.md
 * "Scheduling"): a fixed pool of worker threads, each owning a
 * Chase-Lev deque of task chunks, executing the phase-ordered task
 * lists that generated pipeline entries expose (GeneratedCode::
 * entry).  Every compiled run goes through one: Executable::run uses
 * the caller's or a process-wide scheduler, and one scheduler serves
 * every in-flight request of a serving engine, so tile tasks from
 * concurrent requests interleave on one thread pool: a long request's
 * tail tiles no longer serialise behind an idle barrier while other
 * requests wait for threads.
 *
 * Execution model: a job is a sequence of phases; every phase is a
 * closed list of independent tasks [0, count).  Tasks are grouped
 * into chunks of consecutive tasks that workers push to
 * their own deque bottom and thieves steal from the top, victim
 * chosen by xorshift.  The worker that finishes a phase's last chunk
 * advances the job to its next phase and seeds the new chunks onto
 * its own deque -- the per-job phase barrier costs one atomic
 * decrement per chunk, never a pool-wide join.
 *
 * A job lives in the frame of the run() call that drives it: the
 * caller seeds its first phase, helps until it completes, and only
 * then returns.
 *
 * Idle threads do not poll.  Every publish (a new job, a next phase
 * seeded for others to take, a spill, a job's completion) bumps a
 * wake epoch under the injection mutex; a worker or helper reads the
 * epoch before its steal sweep and, finding nothing, sleeps untimed
 * until the epoch moves.
 */
#ifndef POLYMAGE_RUNTIME_SCHEDULER_HPP
#define POLYMAGE_RUNTIME_SCHEDULER_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
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
    /** Chunks run (deque pops, steals and injection-queue takes). */
    std::uint64_t chunksExecuted = 0;
    /** Successful steals (a chunk taken from another worker). */
    std::uint64_t steals = 0;
    /** Steal attempts, successful or not. */
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

/** One schedulable unit: tasks [lo, hi] of one job phase. */
struct Chunk
{
    SchedJob *job = nullptr;
    long long phase = 0;
    long long lo = 0;
    long long hi = 0;
};

struct SchedulerOptions
{
    /** Worker threads; 0 means hardware concurrency.  Negative means
     * a thread-less pool: no workers are spawned and run() callers
     * execute every chunk. */
    int workers = 0;
};

/**
 * The shared pool.  run() may be called from any thread; the caller
 * helps the pool's own workers (plus thieves) execute the job's tasks
 * and returns when the job is done.  No job outlives its run() call.
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
     * The calling thread participates: it drains the injection queue
     * and steals chunks (of any running job) until its own job
     * completes, only blocking when nothing is runnable -- the caller
     * becomes an extra worker instead of paying a cross-thread
     * handoff, and on a thread-less pool it is the only one.  The
     * scheduler borrows @p runner: it is never copied, and nothing
     * refers to it once run() returns.
     */
    std::string run(const PhaseRunner &runner,
                    std::vector<long long> phase_counts);

    int workers() const { return int(threads_.size()); }
    SchedulerStats stats() const;

  private:
    struct Worker;

    void workerLoop(int index);
    /** Run one chunk and retire it against its job.  @p self is null
     * for run() callers, whose next-phase seeds go to the injection
     * queue. */
    void runChunk(Chunk c, Worker *self);
    /** Phase bookkeeping once a chunk's tasks finished. */
    void retireChunk(SchedJob &job, long long tasks, Worker *self);
    /** One chunk stolen from the deque of any worker but @p self
     * (-1: a run() caller), victims swept from a random start;
     * null when every deque was empty. */
    Chunk *steal(std::uint64_t &rng, int self);
    /** Wake every sleeper: bump the epoch.  Caller holds injectMu_. */
    void publishLocked();
    /** Chunk descriptors of @p job's current phase. */
    static std::vector<Chunk> chunksOf(SchedJob &job, int workers);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    /** Overflow / injection path: run() and deque-full pushes land
     * here; idle workers drain it before sleeping. */
    std::mutex injectMu_;
    std::deque<Chunk> inject_;
    std::condition_variable wake_;
    /** Wake epoch: written only under injectMu_, read before a steal
     * sweep without it. */
    std::atomic<std::uint64_t> epoch_{0};
    bool stopping_ = false;

    std::atomic<std::uint64_t> tasksExecuted_{0};
    std::atomic<std::uint64_t> chunksExecuted_{0};
    std::atomic<std::uint64_t> steals_{0};
    std::atomic<std::uint64_t> stealAttempts_{0};
    std::atomic<std::uint64_t> jobsCompleted_{0};
};

} // namespace polymage::rt

#endif // POLYMAGE_RUNTIME_SCHEDULER_HPP
