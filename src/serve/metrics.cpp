#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "support/trace.hpp"

namespace polymage::serve {

namespace {

/** Geometric bucket ratio: 2^(1/4) per bucket. */
constexpr double kLogRatio = 0.25 * 0.6931471805599453; // ln(2)/4

int
bucketOf(double seconds)
{
    if (seconds <= LatencyHistogram::kMinSeconds)
        return 0;
    const int b = int(std::log(seconds /
                               LatencyHistogram::kMinSeconds) /
                      kLogRatio);
    return std::clamp(b, 0, LatencyHistogram::kBuckets - 1);
}

double
bucketLowerSeconds(int b)
{
    return LatencyHistogram::kMinSeconds * std::exp(kLogRatio * b);
}

} // namespace

void
LatencyHistogram::record(double seconds)
{
    if (seconds < 0)
        seconds = 0;
    buckets_[std::size_t(bucketOf(seconds))] += 1;
    if (count_ == 0) {
        min_ = max_ = seconds;
    } else {
        min_ = std::min(min_, seconds);
        max_ = std::max(max_, seconds);
    }
    count_ += 1;
    sum_ += seconds;
}

double
LatencyHistogram::quantileSeconds(double q) const
{
    if (count_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the requested quantile (1-based, nearest-rank).
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, std::uint64_t(std::ceil(q * double(count_))));
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
        const std::uint64_t n = buckets_[std::size_t(b)];
        if (n == 0)
            continue;
        if (seen + n >= rank) {
            // Interpolate inside the bucket by rank position.
            const double lo = bucketLowerSeconds(b);
            const double hi = bucketLowerSeconds(b + 1);
            const double frac = double(rank - seen) / double(n);
            const double v = lo + (hi - lo) * frac;
            return std::clamp(v, min_, max_);
        }
        seen += n;
    }
    return max_;
}

void
ServeMetrics::onSubmit()
{
    std::lock_guard<std::mutex> lock(mu_);
    submitted_ += 1;
}

void
ServeMetrics::onEnqueue()
{
    std::lock_guard<std::mutex> lock(mu_);
    queueDepth_ += 1;
    peakQueueDepth_ = std::max(peakQueueDepth_, queueDepth_);
}

void
ServeMetrics::onReject(double waited_seconds)
{
    std::lock_guard<std::mutex> lock(mu_);
    rejected_ += 1;
    if (waited_seconds > 0.0)
        shedWait_.record(waited_seconds);
}

void
ServeMetrics::onShed(double waited_seconds)
{
    std::lock_guard<std::mutex> lock(mu_);
    shed_ += 1;
    queueDepth_ -= 1;
    shedWait_.record(waited_seconds);
}

void
ServeMetrics::onSloShed(const std::string &tenant)
{
    std::lock_guard<std::mutex> lock(mu_);
    shed_ += 1;
    sloShed_ += 1;
    if (!tenant.empty())
        tenantShed_[tenant] += 1;
}

void
ServeMetrics::onQuotaShed(const std::string &tenant)
{
    std::lock_guard<std::mutex> lock(mu_);
    shed_ += 1;
    quotaShed_ += 1;
    if (!tenant.empty())
        tenantShed_[tenant] += 1;
}

void
ServeMetrics::onDeadlineMiss()
{
    std::lock_guard<std::mutex> lock(mu_);
    deadlineMisses_ += 1;
}

void
ServeMetrics::onBatch(int size)
{
    std::lock_guard<std::mutex> lock(mu_);
    batches_ += 1;
    batchedRequests_ += std::uint64_t(size);
    maxBatchSize_ = std::max(maxBatchSize_, std::int64_t(size));
}

void
ServeMetrics::onShutdownOrphan(double waited_seconds)
{
    std::lock_guard<std::mutex> lock(mu_);
    rejected_ += 1;
    queueDepth_ -= 1;
    shedWait_.record(waited_seconds);
}

void
ServeMetrics::onDequeue(double queue_wait_seconds)
{
    std::lock_guard<std::mutex> lock(mu_);
    queueWait_.record(queue_wait_seconds);
    queueDepth_ -= 1;
    inFlight_ += 1;
}

void
ServeMetrics::onComplete(double total_seconds)
{
    std::lock_guard<std::mutex> lock(mu_);
    completed_ += 1;
    inFlight_ -= 1;
    latency_.record(total_seconds);
}

void
ServeMetrics::onFail(double total_seconds)
{
    std::lock_guard<std::mutex> lock(mu_);
    failed_ += 1;
    inFlight_ -= 1;
    latency_.record(total_seconds);
}

void
ServeMetrics::onInterpServed()
{
    std::lock_guard<std::mutex> lock(mu_);
    interpServed_ += 1;
}

void
ServeMetrics::onCompiledServed()
{
    std::lock_guard<std::mutex> lock(mu_);
    compiledServed_ += 1;
}

void
ServeMetrics::onPromotion(double seconds)
{
    std::lock_guard<std::mutex> lock(mu_);
    promotions_ += 1;
    promotion_.record(seconds);
}

void
ServeMetrics::onStreamOpen()
{
    std::lock_guard<std::mutex> lock(mu_);
    streamOpened_ += 1;
}

void
ServeMetrics::onStreamClose()
{
    std::lock_guard<std::mutex> lock(mu_);
    streamClosed_ += 1;
}

void
ServeMetrics::onFrameSubmit()
{
    std::lock_guard<std::mutex> lock(mu_);
    framesSubmitted_ += 1;
}

void
ServeMetrics::onFrameDone(double total_seconds, bool ok)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (ok)
        framesCompleted_ += 1;
    else
        framesFailed_ += 1;
    frameLatency_.record(total_seconds);
}

namespace {

HistogramSummary
summarize(const LatencyHistogram &h)
{
    HistogramSummary s;
    s.count = h.count();
    s.meanSeconds = h.meanSeconds();
    s.minSeconds = h.minSeconds();
    s.maxSeconds = h.maxSeconds();
    s.p50Seconds = h.quantileSeconds(0.50);
    s.p95Seconds = h.quantileSeconds(0.95);
    s.p99Seconds = h.quantileSeconds(0.99);
    return s;
}

void
writeSummary(obs::JsonWriter &w, const HistogramSummary &s)
{
    w.beginObject();
    w.key("count").value(std::int64_t(s.count));
    w.key("mean_seconds").value(s.meanSeconds);
    w.key("min_seconds").value(s.minSeconds);
    w.key("max_seconds").value(s.maxSeconds);
    w.key("p50_seconds").value(s.p50Seconds);
    w.key("p95_seconds").value(s.p95Seconds);
    w.key("p99_seconds").value(s.p99Seconds);
    w.endObject();
}

} // namespace

ServeSnapshot
ServeMetrics::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    ServeSnapshot s;
    s.submitted = submitted_;
    s.completed = completed_;
    s.failed = failed_;
    s.rejected = rejected_;
    s.shed = shed_;
    s.interpServed = interpServed_;
    s.compiledServed = compiledServed_;
    s.promotions = promotions_;
    s.sloShed = sloShed_;
    s.quotaShed = quotaShed_;
    s.deadlineMisses = deadlineMisses_;
    s.tenantShed = tenantShed_;
    s.batches = batches_;
    s.batchedRequests = batchedRequests_;
    s.maxBatchSize = maxBatchSize_;
    s.queueDepth = queueDepth_;
    s.inFlight = inFlight_;
    s.peakQueueDepth = peakQueueDepth_;
    s.streamSessionsOpened = streamOpened_;
    s.streamSessionsClosed = streamClosed_;
    s.framesSubmitted = framesSubmitted_;
    s.framesCompleted = framesCompleted_;
    s.framesFailed = framesFailed_;
    s.latency = summarize(latency_);
    s.queueWait = summarize(queueWait_);
    s.shedWait = summarize(shedWait_);
    s.promotion = summarize(promotion_);
    s.frameLatency = summarize(frameLatency_);
    return s;
}

std::string
ServeSnapshot::toJson() const
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("schema").value("polymage-serve-v1");
    w.key("workers").value(workers);
    w.key("queue_capacity").value(queueCapacity);
    w.key("policy").value(policy);
    w.key("tiered").value(tiered);
    w.key("submitted").value(std::int64_t(submitted));
    w.key("completed").value(std::int64_t(completed));
    w.key("failed").value(std::int64_t(failed));
    w.key("rejected").value(std::int64_t(rejected));
    w.key("shed").value(std::int64_t(shed));
    w.key("interp_served").value(std::int64_t(interpServed));
    w.key("compiled_served").value(std::int64_t(compiledServed));
    w.key("promotions").value(std::int64_t(promotions));
    w.key("queue_depth").value(queueDepth);
    w.key("in_flight").value(inFlight);
    w.key("peak_queue_depth").value(peakQueueDepth);
    w.key("scheduler").beginObject();
    w.key("workers").value(schedulerWorkers);
    w.key("tasks_executed")
        .value(std::int64_t(scheduler.tasksExecuted));
    w.key("chunks_executed")
        .value(std::int64_t(scheduler.chunksExecuted));
    w.key("steals").value(std::int64_t(scheduler.steals));
    w.key("steal_attempts")
        .value(std::int64_t(scheduler.stealAttempts));
    w.key("steal_fail_rate").value(scheduler.stealFailRate());
    w.key("jobs_completed")
        .value(std::int64_t(scheduler.jobsCompleted));
    w.key("batches").value(std::int64_t(batches));
    w.key("batched_requests").value(std::int64_t(batchedRequests));
    w.key("mean_batch_size")
        .value(batches == 0
                   ? 0.0
                   : double(batchedRequests) / double(batches));
    w.key("max_batch_size").value(maxBatchSize);
    w.endObject();
    w.key("slo").beginObject();
    w.key("shed").value(std::int64_t(sloShed));
    w.key("quota_shed").value(std::int64_t(quotaShed));
    w.key("deadline_misses").value(std::int64_t(deadlineMisses));
    w.key("tenant_shed").beginObject();
    for (const auto &[tenant, n] : tenantShed)
        w.key(tenant).value(std::int64_t(n));
    w.endObject();
    w.endObject();
    w.key("pool").beginObject();
    w.key("block_allocs").value(std::int64_t(poolBlockAllocs));
    w.key("acquires").value(std::int64_t(poolAcquires));
    w.key("bytes_owned").value(poolBytesOwned);
    w.key("peak_bytes_in_use").value(poolPeakBytesInUse);
    w.endObject();
    w.key("stream").beginObject();
    w.key("sessions_opened")
        .value(std::int64_t(streamSessionsOpened));
    w.key("sessions_closed")
        .value(std::int64_t(streamSessionsClosed));
    w.key("sessions_active")
        .value(std::int64_t(streamSessionsOpened -
                            streamSessionsClosed));
    w.key("frames_submitted").value(std::int64_t(framesSubmitted));
    w.key("frames_completed").value(std::int64_t(framesCompleted));
    w.key("frames_failed").value(std::int64_t(framesFailed));
    w.key("frame_latency");
    writeSummary(w, frameLatency);
    w.key("sessions").beginArray();
    for (const auto &sess : streamSessions) {
        w.beginObject();
        w.key("id").value(std::int64_t(sess.id));
        w.key("pipeline").value(sess.pipeline);
        w.key("frames").value(std::int64_t(sess.frames));
        w.key("failed").value(std::int64_t(sess.failed));
        w.key("fps").value(sess.fps);
        w.key("p99_seconds").value(sess.p99Seconds);
        w.key("closed").value(sess.closed);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.key("latency");
    writeSummary(w, latency);
    w.key("queue_wait");
    writeSummary(w, queueWait);
    w.key("shed_wait");
    writeSummary(w, shedWait);
    w.key("promotion");
    writeSummary(w, promotion);
    w.endObject();
    return w.str();
}

} // namespace polymage::serve
