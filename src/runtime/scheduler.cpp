#include "runtime/scheduler.hpp"

#include <algorithm>
#include <exception>

#include "support/diagnostics.hpp"

namespace polymage::rt {

namespace {

/** A claim cursor is (phase << kTaskBits) | next unclaimed task. */
constexpr int kTaskBits = 40;
constexpr std::uint64_t kTaskMask = (std::uint64_t(1) << kTaskBits) - 1;

/** Chunks each worker's share of a phase is split into: a chunk is
 * max(1, count / (workers * this)) tasks. */
constexpr long long kChunksPerWorker = 8;

} // namespace

/**
 * State of one job; it lives in the frame of run().
 *
 * Lifetime: a thread other than the job's run() caller raises
 * `visitors` under the scheduler's mutex before it claims from the job
 * and lowers it, under the same mutex, after its last failed claim.
 * run() returns only after it has unlinked the job from the live list
 * under that mutex (no visit can start after that), waited until
 * `visitors` is 0, and read `error` under `mu`: no other thread
 * touches the job once run() has returned.
 */
struct SchedJob
{
    const TileScheduler::PhaseRunner *run = nullptr;
    std::vector<long long> counts;
    /** Chunks a phase is split into at most: a chunk is
     * max(1, count / split) tasks. */
    long long split = 1;
    /** (phase << kTaskBits) | next unclaimed task of the phase.  Only
     * the thread that retires a phase's last task moves the phase on,
     * to counts.size() once the job is complete. */
    std::atomic<std::uint64_t> cursor{0};
    /** Tasks (not chunks) of the current phase not yet retired. */
    std::atomic<long long> remaining{0};
    std::atomic<bool> failed{false};
    /** Threads other than the caller visiting the job; guarded by the
     * scheduler's mutex. */
    int visitors = 0;

    /** Guards `error`. */
    std::mutex mu;
    std::string error;

    long long chunkOf(long long count) const
    {
        return std::max(1LL, count / split);
    }
    /** First phase at or after @p p with a task; counts.size() if
     * none. */
    std::size_t phaseFrom(std::size_t p) const
    {
        while (p < counts.size() && counts[p] <= 0)
            ++p;
        return p;
    }
    bool finished() const
    {
        return (cursor.load(std::memory_order_acquire) >> kTaskBits) >=
               counts.size();
    }
    bool claimable() const
    {
        const std::uint64_t c = cursor.load(std::memory_order_acquire);
        const std::size_t p = std::size_t(c >> kTaskBits);
        return p < counts.size() && (long long)(c & kTaskMask) < counts[p];
    }
    /** Claim the next chunk of the current phase, tasks [lo, hi);
     * false when the phase has none left. */
    bool claim(std::size_t &phase, long long &lo, long long &hi)
    {
        std::uint64_t c = cursor.load(std::memory_order_acquire);
        for (;;) {
            phase = std::size_t(c >> kTaskBits);
            lo = (long long)(c & kTaskMask);
            if (phase >= counts.size() || lo >= counts[phase])
                return false;
            hi = std::min(counts[phase], lo + chunkOf(counts[phase]));
            if (cursor.compare_exchange_weak(
                    c, (std::uint64_t(phase) << kTaskBits) | std::uint64_t(hi),
                    std::memory_order_acquire, std::memory_order_acquire))
                return true;
        }
    }
};

TileScheduler::TileScheduler(Options opts)
{
    int n = opts.workers;
    if (n < 0) {
        n = 0; // thread-less: run() callers execute everything
    } else if (n == 0) {
        n = int(std::thread::hardware_concurrency());
        if (n <= 0)
            n = 1;
    }
    threads_.reserve(std::size_t(n));
    for (int i = 0; i < n; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

TileScheduler::~TileScheduler()
{
    {
        // Every job ended with its run() call, so none is live.
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
        wake_.notify_all();
    }
    for (std::thread &t : threads_)
        if (t.joinable())
            t.join();
}

std::string
TileScheduler::run(const PhaseRunner &runner,
                   std::vector<long long> phase_counts)
{
    PM_ASSERT(runner != nullptr, "TileScheduler::run without a runner");
    SchedJob job;
    job.run = &runner;
    job.counts = std::move(phase_counts);
    PM_ASSERT(job.counts.size() < (std::size_t(1) << (64 - kTaskBits)),
              "TileScheduler::run: too many phases for the claim cursor");
    for (long long count : job.counts)
        PM_ASSERT(std::uint64_t(std::max(0LL, count)) <= kTaskMask,
                  "TileScheduler::run: too many tasks for the claim cursor");
    const std::size_t first = job.phaseFrom(0);
    if (first >= job.counts.size()) {
        jobsCompleted_.fetch_add(1, std::memory_order_relaxed);
        return "";
    }
    job.split = std::max(1, workers()) * kChunksPerWorker;
    job.remaining.store(job.counts[first], std::memory_order_relaxed);
    job.cursor.store(std::uint64_t(first) << kTaskBits,
                     std::memory_order_relaxed);

    std::unique_lock<std::mutex> lock(mu_);
    live_.push_back(&job);
    if (job.counts[first] > job.chunkOf(job.counts[first]))
        wake_.notify_all();
    SchedJob *visit = nullptr;
    while ((visit = visitNext(lock, visit, &job)) != nullptr) {
        lock.unlock();
        drain(*visit, visit == &job);
        lock.lock();
    }
    live_.erase(std::find(live_.begin(), live_.end(), &job));
    wake_.wait(lock, [&] { return job.visitors == 0; });
    lock.unlock();
    std::lock_guard<std::mutex> errorLock(job.mu);
    return job.error;
}

SchedJob *
TileScheduler::visitNext(std::unique_lock<std::mutex> &lock,
                         SchedJob *left, const SchedJob *own)
{
    // The last visitor to leave a finished job wakes its run() caller,
    // which waits for that before returning.
    if (left != nullptr && left != own && --left->visitors == 0 &&
        left->finished())
        wake_.notify_all();
    for (;;) {
        if (own != nullptr ? own->finished() : stopping_)
            return nullptr;
        for (SchedJob *job : live_) {
            if (job->claimable()) {
                if (job != own)
                    ++job->visitors;
                return job;
            }
        }
        // A claimable job appears only with a publish, which notifies
        // under mu_: the scan above cannot miss one and then sleep.
        wake_.wait(lock);
    }
}

void
TileScheduler::drain(SchedJob &job, bool caller)
{
    std::size_t phase = 0;
    long long lo = 0;
    long long hi = 0;
    for (;;) {
        if (!caller)
            stealAttempts_.fetch_add(1, std::memory_order_relaxed);
        if (!job.claim(phase, lo, hi))
            return;
        if (!caller)
            steals_.fetch_add(1, std::memory_order_relaxed);
        if (!job.failed.load(std::memory_order_relaxed)) {
            try {
                (*job.run)((long long)phase, lo, hi - 1);
                tasksExecuted_.fetch_add(std::uint64_t(hi - lo),
                                         std::memory_order_relaxed);
            } catch (const std::exception &e) {
                if (!job.failed.exchange(true)) {
                    std::lock_guard<std::mutex> lock(job.mu);
                    job.error = e.what();
                }
            } catch (...) {
                if (!job.failed.exchange(true)) {
                    std::lock_guard<std::mutex> lock(job.mu);
                    job.error = "unknown task error";
                }
            }
        }
        chunksExecuted_.fetch_add(1, std::memory_order_relaxed);
        if (job.remaining.fetch_sub(hi - lo, std::memory_order_acq_rel) !=
            hi - lo)
            continue; // the phase still has tasks running elsewhere
        // This chunk retired the phase, so no chunk of it is left
        // anywhere: publish the next phase with tasks, or the job's end.
        const std::size_t next = job.phaseFrom(phase + 1);
        if (next < job.counts.size())
            job.remaining.store(job.counts[next], std::memory_order_relaxed);
        job.cursor.store(std::uint64_t(next) << kTaskBits,
                         std::memory_order_release);
        if (next >= job.counts.size()) {
            jobsCompleted_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        // A single chunk is this thread's next claim; anything more is
        // worth waking idle threads for.
        if (job.counts[next] > job.chunkOf(job.counts[next])) {
            std::lock_guard<std::mutex> lock(mu_);
            wake_.notify_all();
        }
    }
}

void
TileScheduler::workerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    SchedJob *visit = nullptr;
    while ((visit = visitNext(lock, visit, nullptr)) != nullptr) {
        lock.unlock();
        drain(*visit, false);
        lock.lock();
    }
}

SchedulerStats
TileScheduler::stats() const
{
    SchedulerStats s;
    s.tasksExecuted = tasksExecuted_.load(std::memory_order_relaxed);
    s.chunksExecuted = chunksExecuted_.load(std::memory_order_relaxed);
    s.steals = steals_.load(std::memory_order_relaxed);
    s.stealAttempts = stealAttempts_.load(std::memory_order_relaxed);
    s.jobsCompleted = jobsCompleted_.load(std::memory_order_relaxed);
    return s;
}

} // namespace polymage::rt
