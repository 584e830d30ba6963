/**
 * @file
 * Serving metrics for the `polymage::serve` engine: request counters,
 * queue gauges, and log-bucketed latency histograms with percentile
 * extraction, serialized to the stable `polymage-serve-v1` JSON schema
 * (docs/SERVING.md).  The histogram trades exactness for constant
 * memory: geometric buckets give percentiles within one bucket ratio
 * (~19%) at any request volume, which is the resolution tail-latency
 * dashboards need.
 */
#ifndef POLYMAGE_SERVE_METRICS_HPP
#define POLYMAGE_SERVE_METRICS_HPP

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"

namespace polymage::serve {

/**
 * Fixed-size geometric latency histogram.  Bucket i covers
 * [kMinSeconds * r^i, kMinSeconds * r^(i+1)) with r = 2^(1/4), so 128
 * buckets span 1 microsecond to ~4 hours.  Not internally locked; the
 * owner serialises access (ServeMetrics holds one mutex for all of its
 * state).
 */
class LatencyHistogram
{
  public:
    static constexpr int kBuckets = 128;
    static constexpr double kMinSeconds = 1e-6;

    void record(double seconds);

    std::uint64_t count() const { return count_; }
    double meanSeconds() const
    {
        return count_ == 0 ? 0.0 : sum_ / double(count_);
    }
    double minSeconds() const { return count_ == 0 ? 0.0 : min_; }
    double maxSeconds() const { return count_ == 0 ? 0.0 : max_; }

    /**
     * Quantile in seconds (q in [0, 1]), linearly interpolated inside
     * the covering bucket and clamped to the exact observed min/max.
     */
    double quantileSeconds(double q) const;

  private:
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Summary of one histogram at snapshot time (all in seconds). */
struct HistogramSummary
{
    std::uint64_t count = 0;
    double meanSeconds = 0.0;
    double minSeconds = 0.0;
    double maxSeconds = 0.0;
    double p50Seconds = 0.0;
    double p95Seconds = 0.0;
    double p99Seconds = 0.0;
};

/**
 * Point-in-time state of an Engine, serializable to the
 * `polymage-serve-v1` schema.  Configuration and pool fields are
 * filled in by the Engine before serialization; the counter and
 * histogram fields come from ServeMetrics::snapshot().
 */
struct ServeSnapshot
{
    /// @name Engine configuration
    /// @{
    int workers = 0;
    int queueCapacity = 0;
    std::string policy;
    /** Tiered execution on: first requests are interpreter-served
     * while the compiled variant builds (docs/SHAPES.md). */
    bool tiered = false;
    /// @}

    /// @name Request counters
    /// @{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    /// @}

    /// @name SLO-aware admission (docs/SERVING.md "Scheduling")
    /// @{
    /** Requests shed at admission because the predicted completion
     * time exceeded their deadline (counted in `shed` too). */
    std::uint64_t sloShed = 0;
    /** Requests shed by a tenant's token bucket (in `shed` too). */
    std::uint64_t quotaShed = 0;
    /** Admitted requests that still completed past their deadline --
     * the quantity the admission controller drives to zero. */
    std::uint64_t deadlineMisses = 0;
    /** Sheds per tenant (tenant-tagged requests only). */
    std::map<std::string, std::uint64_t> tenantShed;
    /// @}

    /// @name Request batching
    /// @{
    /** Compiled-tier batches run: each is a dequeued request plus the
     * same-pipeline requests it coalesced (>= 1 request). */
    std::uint64_t batches = 0;
    /** Requests executed through those batches (mean = /batches). */
    std::uint64_t batchedRequests = 0;
    /** Largest batch coalesced so far. */
    std::int64_t maxBatchSize = 0;
    /// @}

    /// @name Shared tile scheduler (filled by the Engine)
    /// @{
    /** Tile-pool worker threads. */
    int schedulerWorkers = 0;
    rt::SchedulerStats scheduler;
    /// @}

    /// @name Tiered-execution counters (docs/SHAPES.md)
    /// @{
    /** Completions answered by the reference interpreter (tier 1). */
    std::uint64_t interpServed = 0;
    /** Completions answered by a compiled variant (tier 2). */
    std::uint64_t compiledServed = 0;
    /** Pipelines whose serving flipped from tier 1 to tier 2. */
    std::uint64_t promotions = 0;
    /// @}

    /// @name Streaming sessions (docs/STREAMING.md)
    /// @{
    std::uint64_t streamSessionsOpened = 0;
    std::uint64_t streamSessionsClosed = 0;
    /** Frames accepted by submitFrame() across all sessions. */
    std::uint64_t framesSubmitted = 0;
    std::uint64_t framesCompleted = 0;
    std::uint64_t framesFailed = 0;
    /** One entry per session ever opened (filled by the Engine). */
    struct StreamSessionSummary
    {
        std::uint64_t id = 0;
        std::string pipeline;
        /** Frames completed (ok + failed). */
        std::uint64_t frames = 0;
        std::uint64_t failed = 0;
        /** Completed frames / (open to last completion). */
        double fps = 0.0;
        /** p99 frame latency (submitFrame to completion). */
        double p99Seconds = 0.0;
        bool closed = false;
    };
    std::vector<StreamSessionSummary> streamSessions;
    /// @}

    /// @name Gauges
    /// @{
    std::int64_t queueDepth = 0;
    std::int64_t inFlight = 0;
    std::int64_t peakQueueDepth = 0;
    /// @}

    /// @name Aggregated per-worker BufferPool counters
    /// @{
    std::uint64_t poolBlockAllocs = 0;
    std::uint64_t poolAcquires = 0;
    std::int64_t poolBytesOwned = 0;
    std::int64_t poolPeakBytesInUse = 0;
    /// @}

    /** End-to-end latency (enqueue to completion). */
    HistogramSummary latency;
    /** Time spent waiting in the queue before a worker picked up. */
    HistogramSummary queueWait;
    /**
     * Queue time of requests that never executed (shed, or rejected
     * after blocking).  Kept apart from queueWait so shed storms do
     * not pollute the admitted-path wait percentiles, and apart from
     * latency so "time wasted queued before eviction" is directly
     * readable (the shed/reject metrics split).
     */
    HistogramSummary shedWait;
    /** Per-pipeline promotion latency: first interpreter-served
     * response to first compiled-tier response. */
    HistogramSummary promotion;
    /** Frame end-to-end latency (submitFrame to completion) pooled
     * across every streaming session; the per-session p99 lives in
     * streamSessions. */
    HistogramSummary frameLatency;

    /** Serialized to the polymage-serve-v1 schema. */
    std::string toJson() const;
};

/**
 * Thread-safe metrics collector shared by the Engine's submit path and
 * its workers.  One mutex guards everything: serving rates are far
 * below the contention point of a single uncontended lock, and a
 * single lock keeps counter/histogram snapshots mutually consistent.
 */
class ServeMetrics
{
  public:
    /** A request arrived at submit(). */
    void onSubmit();
    /** The request was admitted to the queue. */
    void onEnqueue();
    /** The request was refused (queue full or engine stopped) after
     * waiting @p waited_seconds (0 for immediate rejection). */
    void onReject(double waited_seconds);
    /** A queued request was evicted by ShedOldest after waiting
     * @p waited_seconds in the queue. */
    void onShed(double waited_seconds);
    /** A request was shed at admission: predicted deadline miss. */
    void onSloShed(const std::string &tenant);
    /** A request was shed at admission: tenant quota exhausted. */
    void onQuotaShed(const std::string &tenant);
    /** An admitted request completed after its deadline. */
    void onDeadlineMiss();
    /** A worker coalesced @p size same-pipeline requests. */
    void onBatch(int size);
    /** A queued request was failed by shutdown() after waiting
     * @p waited_seconds in the queue. */
    void onShutdownOrphan(double waited_seconds);
    /** A worker popped a queued request and started executing it. */
    void onDequeue(double queue_wait_seconds);
    void onComplete(double total_seconds);
    void onFail(double total_seconds);
    /** A completion was answered by the interpreter (tier 1). */
    void onInterpServed();
    /** A completion was answered by a compiled variant (tier 2). */
    void onCompiledServed();
    /** A pipeline's serving flipped from tier 1 to tier 2 after
     * @p seconds (first interpreted to first compiled response). */
    void onPromotion(double seconds);
    /** A streaming session was opened. */
    void onStreamOpen();
    /** A streaming session was closed. */
    void onStreamClose();
    /** A frame was accepted by submitFrame(). */
    void onFrameSubmit();
    /** A frame finished after @p total_seconds (@p ok = no error).
     * Frames bypass the request counters and queue gauges entirely:
     * they never pass admission, so mixing them in would break the
     * submitted == completed + ... snapshot invariant. */
    void onFrameDone(double total_seconds, bool ok);

    /**
     * Counters, gauges, and histograms (config/pool fields left
     * default).  Tracking the queue-depth and in-flight gauges here,
     * under the same mutex as the counters, keeps every snapshot
     * internally consistent: at any instant
     * submitted == completed + failed + rejected + shed
     *              + queueDepth + inFlight.
     */
    ServeSnapshot snapshot() const;

  private:
    mutable std::mutex mu_;
    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t shed_ = 0;
    std::uint64_t interpServed_ = 0;
    std::uint64_t compiledServed_ = 0;
    std::uint64_t promotions_ = 0;
    std::uint64_t sloShed_ = 0;
    std::uint64_t quotaShed_ = 0;
    std::uint64_t deadlineMisses_ = 0;
    std::map<std::string, std::uint64_t> tenantShed_;
    std::uint64_t batches_ = 0;
    std::uint64_t batchedRequests_ = 0;
    std::int64_t maxBatchSize_ = 0;
    std::int64_t queueDepth_ = 0;
    std::int64_t inFlight_ = 0;
    std::int64_t peakQueueDepth_ = 0;
    std::uint64_t streamOpened_ = 0;
    std::uint64_t streamClosed_ = 0;
    std::uint64_t framesSubmitted_ = 0;
    std::uint64_t framesCompleted_ = 0;
    std::uint64_t framesFailed_ = 0;
    LatencyHistogram latency_;
    LatencyHistogram queueWait_;
    LatencyHistogram shedWait_;
    LatencyHistogram promotion_;
    LatencyHistogram frameLatency_;
};

} // namespace polymage::serve

#endif // POLYMAGE_SERVE_METRICS_HPP
