#include "runtime/scheduler.hpp"

#include <algorithm>
#include <exception>

#include "support/diagnostics.hpp"

namespace polymage::rt {

/** State of one job; it lives in the frame of run(). */
struct SchedJob
{
    const TileScheduler::PhaseRunner *run = nullptr;
    std::vector<long long> counts;
    /** Current phase index.  Written only by run() and by the
     * worker that retires the phase's last task -- at that moment no
     * other thread holds a live chunk of this job. */
    std::size_t phase = 0;
    /** Tasks (not chunks) outstanding in the current phase. */
    std::atomic<long long> remaining{0};
    /** Chunk descriptors of the current phase; rebuilt at each phase
     * transition by the sole retiring worker. */
    std::vector<Chunk> chunkStore;
    std::atomic<bool> failed{false};
    /** Set by the worker that retires the job's last task. */
    std::atomic<bool> finished{false};

    /** Guards `error`; the retiring worker sets `finished` under it. */
    std::mutex mu;
    std::string error;
};

namespace {

/**
 * Chase-Lev work-stealing deque of chunk pointers.  The owning worker
 * pushes and pops at the bottom; thieves race CAS at the top.  Fixed
 * capacity: a full deque spills to the scheduler's injection queue,
 * which only costs a mutex on pathological fan-out.
 */
class WorkDeque
{
  public:
    explicit WorkDeque(std::size_t log2_cap = 13)
        : buf_(std::size_t(1) << log2_cap),
          mask_(std::int64_t(buf_.size()) - 1)
    {
    }

    /** Owner only.  False when full (caller spills to injection). */
    bool
    push(Chunk *c)
    {
        const std::int64_t b = bottom_.load(std::memory_order_relaxed);
        const std::int64_t t = top_.load(std::memory_order_acquire);
        if (b - t >= std::int64_t(buf_.size()))
            return false;
        buf_[std::size_t(b & mask_)].store(c,
                                           std::memory_order_relaxed);
        // Release on the store itself, not a separate fence: the
        // thread sanitizer does not model fences, and a thief's
        // acquire of bottom_ must order everything the owner did
        // before publishing the chunk.
        bottom_.store(b + 1, std::memory_order_release);
        return true;
    }

    /** Owner only.  Null when empty. */
    Chunk *
    pop()
    {
        const std::int64_t b =
            bottom_.load(std::memory_order_relaxed) - 1;
        bottom_.store(b, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        std::int64_t t = top_.load(std::memory_order_relaxed);
        Chunk *c = nullptr;
        if (t <= b) {
            c = buf_[std::size_t(b & mask_)].load(
                std::memory_order_relaxed);
            if (t == b) {
                // Last element: race thieves for it.
                if (!top_.compare_exchange_strong(
                        t, t + 1, std::memory_order_seq_cst,
                        std::memory_order_relaxed))
                    c = nullptr;
                bottom_.store(b + 1, std::memory_order_relaxed);
            }
        } else {
            bottom_.store(b + 1, std::memory_order_relaxed);
        }
        return c;
    }

    /** Any thread.  Null when empty or the CAS race was lost. */
    Chunk *
    steal()
    {
        std::int64_t t = top_.load(std::memory_order_acquire);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        const std::int64_t b = bottom_.load(std::memory_order_acquire);
        if (t >= b)
            return nullptr;
        Chunk *c =
            buf_[std::size_t(t & mask_)].load(std::memory_order_relaxed);
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed))
            return nullptr;
        return c;
    }

    /** Any thread.  Whether the deque held no chunk (a snapshot). */
    bool
    empty() const
    {
        return top_.load(std::memory_order_acquire) >=
               bottom_.load(std::memory_order_acquire);
    }

  private:
    std::vector<std::atomic<Chunk *>> buf_;
    std::int64_t mask_;
    std::atomic<std::int64_t> top_{0};
    std::atomic<std::int64_t> bottom_{0};
};

/** Chunks each worker's share of a phase is split into: a chunk is
 * max(1, count / (workers * this)) tasks. */
constexpr long long kChunksPerWorker = 8;

std::uint64_t
xorshift(std::uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

} // namespace

struct TileScheduler::Worker
{
    WorkDeque deque;
    std::uint64_t rng;
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
    workers_.reserve(std::size_t(n));
    for (int i = 0; i < n; ++i) {
        auto w = std::make_unique<Worker>();
        w->rng = 0x9E3779B97F4A7C15ull * std::uint64_t(i + 1) ^
                 0xD1B54A32D192ED03ull;
        workers_.push_back(std::move(w));
    }
    threads_.reserve(std::size_t(n));
    for (int i = 0; i < n; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

TileScheduler::~TileScheduler()
{
    {
        // Every job ended with its run() call, so no chunk is left.
        std::lock_guard<std::mutex> lock(injectMu_);
        stopping_ = true;
        wake_.notify_all();
    }
    for (std::thread &t : threads_)
        if (t.joinable())
            t.join();
}

std::vector<Chunk>
TileScheduler::chunksOf(SchedJob &job, int workers)
{
    const long long count = job.counts[job.phase];
    const long long per = std::max(
        1LL, count / (std::max(1, workers) * kChunksPerWorker));
    std::vector<Chunk> out;
    out.reserve(std::size_t((count + per - 1) / per));
    for (long long lo = 0; lo < count; lo += per) {
        Chunk c;
        c.job = &job;
        c.phase = (long long)job.phase;
        c.lo = lo;
        c.hi = std::min(lo + per - 1, count - 1);
        out.push_back(c);
    }
    return out;
}

void
TileScheduler::publishLocked()
{
    epoch_.fetch_add(1, std::memory_order_release);
    wake_.notify_all();
}

Chunk *
TileScheduler::steal(std::uint64_t &rng, int self)
{
    const int n = int(workers_.size());
    if (n == 0)
        return nullptr;
    const int start = int(xorshift(rng) % std::uint64_t(n));
    for (int k = 0; k < n; ++k) {
        const int victim = (start + k) % n;
        if (victim == self)
            continue;
        WorkDeque &d = workers_[std::size_t(victim)]->deque;
        // A lost race means another thread took a chunk: retry while
        // the victim still holds one, so a sweep that finds nothing
        // saw every deque empty.
        do {
            stealAttempts_.fetch_add(1, std::memory_order_relaxed);
            if (Chunk *c = d.steal()) {
                steals_.fetch_add(1, std::memory_order_relaxed);
                return c;
            }
        } while (!d.empty());
    }
    return nullptr;
}

std::string
TileScheduler::run(const PhaseRunner &runner,
                   std::vector<long long> phase_counts)
{
    PM_ASSERT(runner != nullptr, "TileScheduler::run without a runner");
    SchedJob job;
    job.run = &runner;
    job.counts = std::move(phase_counts);
    while (job.phase < job.counts.size() && job.counts[job.phase] <= 0)
        ++job.phase;
    if (job.phase >= job.counts.size()) {
        jobsCompleted_.fetch_add(1, std::memory_order_relaxed);
        return "";
    }

    job.chunkStore = chunksOf(job, workers());
    job.remaining.store(job.counts[job.phase], std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(injectMu_);
        for (Chunk &c : job.chunkStore)
            inject_.push_back(c);
        publishLocked();
    }

    std::uint64_t rng =
        0xA24BAED4963EE407ull ^
        std::uint64_t(reinterpret_cast<std::uintptr_t>(&job));
    for (;;) {
        // Read the epoch before `finished`: a completion between the
        // two loads then still moves the epoch past `seen`, so the wait
        // below cannot sleep through it.
        const std::uint64_t seen = epoch_.load(std::memory_order_acquire);
        if (job.finished.load(std::memory_order_acquire))
            break;
        // Injection queue first: jobs (this one included) seed their
        // first phase there.
        {
            std::unique_lock<std::mutex> lock(injectMu_);
            if (!inject_.empty()) {
                Chunk c = inject_.front();
                inject_.pop_front();
                lock.unlock();
                runChunk(c, nullptr);
                continue;
            }
        }
        if (Chunk *c = steal(rng, -1)) {
            runChunk(*c, nullptr);
            continue;
        }
        // Nothing runnable: sleep until something is published.  The
        // job's completion publishes too, after setting `finished`,
        // and so does a helper that seeds this job's next phase into
        // the injection queue -- on a thread-less pool no one else
        // would pick that up.
        std::unique_lock<std::mutex> lock(injectMu_);
        wake_.wait(lock, [&] {
            return job.finished.load(std::memory_order_acquire) ||
                   epoch_.load(std::memory_order_relaxed) != seen;
        });
    }
    // The retiring worker set `finished` under job.mu and touches
    // nothing of the job after unlocking it: taking the mutex here
    // waits that unlock out, so `job` may leave scope on return.
    std::lock_guard<std::mutex> lock(job.mu);
    return job.error;
}

void
TileScheduler::runChunk(Chunk c, Worker *self)
{
    SchedJob &job = *c.job;
    const long long tasks = c.hi - c.lo + 1;
    if (!job.failed.load(std::memory_order_relaxed)) {
        try {
            (*job.run)(c.phase, c.lo, c.hi);
            tasksExecuted_.fetch_add(std::uint64_t(tasks),
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
    retireChunk(job, tasks, self);
}

void
TileScheduler::retireChunk(SchedJob &job, long long tasks,
                           Worker *self)
{
    if (job.remaining.fetch_sub(tasks, std::memory_order_acq_rel) !=
        tasks)
        return; // phase still has outstanding tasks elsewhere
    // Sole live reference to the job's phase state: advance it.
    ++job.phase;
    while (job.phase < job.counts.size() &&
           job.counts[job.phase] <= 0)
        ++job.phase;
    if (job.phase >= job.counts.size()) {
        // Job complete.  Its run() caller may return, and `job` go out
        // of scope, as soon as this unlock: touch nothing of the job
        // after it.  The publish wakes the caller if it sleeps.
        jobsCompleted_.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(job.mu);
            job.finished.store(true, std::memory_order_release);
        }
        std::lock_guard<std::mutex> lock(injectMu_);
        publishLocked();
        return;
    }
    // Seed the next phase onto this worker's own deque: thieves
    // redistribute it, and the common small phase stays local.
    job.chunkStore = chunksOf(job, workers());
    job.remaining.store(job.counts[job.phase],
                        std::memory_order_release);
    if (self == nullptr) {
        // A run() caller: seed at the injection queue's FRONT so the
        // job being driven continues depth-first.  Appending would
        // park the continuation behind every other in-flight job's
        // chunks -- breadth-first across the batch, with all their
        // working sets thrashing the cache at once.
        std::lock_guard<std::mutex> lock(injectMu_);
        for (auto it = job.chunkStore.rbegin();
             it != job.chunkStore.rend(); ++it)
            inject_.push_front(*it);
        publishLocked();
        return;
    }
    // Once the last chunk is pushed, thieves may finish the phase and
    // the job, whose run() may then return: read nothing of the job
    // after that push.
    Chunk *const chunks = job.chunkStore.data();
    const std::size_t count = job.chunkStore.size();
    bool spilled = false;
    for (std::size_t i = 0; i < count; ++i) {
        if (!self->deque.push(&chunks[i])) {
            std::lock_guard<std::mutex> lock(injectMu_);
            inject_.push_back(chunks[i]);
            spilled = true;
        }
    }
    // A single chunk kept on this deque is this worker's next pop;
    // anything more is published for idle threads to steal.
    if (spilled || count > 1) {
        std::lock_guard<std::mutex> lock(injectMu_);
        publishLocked();
    }
}

void
TileScheduler::workerLoop(int index)
{
    Worker &self = *workers_[std::size_t(index)];
    for (;;) {
        const std::uint64_t seen = epoch_.load(std::memory_order_acquire);
        // Own work first (bottom of the local deque: hot end).
        if (Chunk *c = self.deque.pop()) {
            runChunk(*c, &self);
            continue;
        }
        if (Chunk *c = steal(self.rng, index)) {
            runChunk(*c, &self);
            continue;
        }
        // Injection queue, then sleep until something is published.
        // A publish that raced the unlocked sweep above has moved the
        // epoch, so the wait returns at once.
        std::unique_lock<std::mutex> lock(injectMu_);
        if (!inject_.empty()) {
            Chunk c = inject_.front();
            inject_.pop_front();
            lock.unlock();
            runChunk(c, &self);
            continue;
        }
        if (stopping_)
            return;
        wake_.wait(lock, [&] {
            return stopping_ ||
                   epoch_.load(std::memory_order_relaxed) != seen;
        });
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
