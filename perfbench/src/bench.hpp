/**
 * @file
 * Shared pieces of the repository benchmark (pmbench): run
 * configuration, timing statistics, the in-memory span log of a traced
 * run, output checks against the reference interpreter, and the metric
 * sets a workload body returns.
 */
#ifndef PMBENCH_BENCH_HPP
#define PMBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/buffer.hpp"
#include "support/trace.hpp"

namespace pmbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline Clock::time_point
offsetFrom(Clock::time_point t0, double seconds)
{
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
}

/** Command-line settings of one benchmark process. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measurement budget of the workload body. */
    double seconds = 10.0;
    bool trace = false;
    /** Root of the benchmark's private scratch space in the checkout. */
    std::string workDir = ".bench_build";
};

/**
 * Timing samples: median, quartiles, a tail percentile, and n.  All
 * quantiles interpolate linearly between order statistics.
 */
class Samples
{
  public:
    void add(double x) { v_.push_back(x); sorted_ = false; }
    std::size_t n() const { return v_.size(); }
    const std::vector<double> &values() const { return v_; }
    bool empty() const { return v_.empty(); }

    double quantile(double q) const;
    double median() const { return quantile(0.5); }
    double q1() const { return quantile(0.25); }
    double q3() const { return quantile(0.75); }

    /**
     * The highest of p99, p95, p90, p75 and p50 that has at least ten
     * samples beyond it (p50 when there are fewer than 20 samples).
     */
    double tailLevel() const;

    /** "p50 x | p95 y | q1 a q3 b | n N" with values scaled by @p scale
     * (the tail part only when tailLevel() is above p50). */
    std::string summary(double scale, const char *unit) const;

  private:
    mutable std::vector<double> v_;
    mutable bool sorted_ = false;
};

/** Geometric mean of positive values (0 when empty). */
double geomean(const std::vector<double> &values);

/** Peak resident set size of this process in MB (VmHWM). */
double peakRssMb();

/** Cumulative CPU time of the machine, from /proc/stat (jiffies). */
struct CpuTimes
{
    double total = 0.0;
    /** Time the hypervisor ran something else on our virtual CPUs. */
    double steal = 0.0;
};
CpuTimes cpuTimes();

/**
 * Start a new peak-RSS window: return freed heap to the system and
 * reset VmHWM to the current RSS, so peakRssMb() leaves out the
 * repeated set-ups.  Best effort: without kernel support the peak
 * covers the whole process.
 */
void resetPeakRss();

/**
 * In-memory spans of a traced run: name, layer, start, end, parent and
 * request id.  Spans are appended from any thread and written out once
 * at exit.  A null log disables tracing; every helper accepts null.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::string layer;
        Clock::time_point start;
        Clock::time_point end;
        /** Index of the parent span; -1 for roots. */
        long long parent = -1;
        /** Request or frame id; -1 outside a request. */
        long long request = -1;
    };

    SpanLog() : epoch_(Clock::now()) {}

    /** Record a closed span; returns its index. */
    long long add(std::string name, std::string layer,
                  Clock::time_point start, Clock::time_point end,
                  long long parent = -1, long long request = -1);
    /** Open a span starting now; returns its index (pass to end()). */
    long long begin(std::string name, std::string layer,
                    long long parent = -1, long long request = -1);
    /** Close span @p id now. */
    void end(long long id);

    /**
     * Per layer, the summed self time in ms: each span's duration minus
     * the part of it its child spans cover.
     */
    std::map<std::string, double> selfMsByLayer() const;

    std::size_t size() const;

    /** Write every span as JSON; false when the file cannot be written. */
    bool write(const std::string &path) const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    Clock::time_point epoch_;
};

/** RAII span recorded into a log (no-op when the log is null). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, std::string name, std::string layer,
               long long parent = -1, long long request = -1)
        : log_(log),
          id_(log ? log->begin(std::move(name), std::move(layer), parent,
                               request)
                  : -1)
    {}
    ~ScopedSpan()
    {
        if (log_)
            log_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Index of the span, to parent child spans on (-1 untraced). */
    long long id() const { return id_; }

  private:
    SpanLog *log_;
    long long id_;
};

/**
 * Record the program's own compile spans (Executable::trace(): driver
 * phases plus the final `jit` span) as children of @p parent, laid out
 * from @p start in their recorded order.
 */
void addCompileSpans(SpanLog *log, const std::vector<polymage::obs::Span>
                                       &program_spans,
                     Clock::time_point start, long long parent);

/** One metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** What a workload body measured. */
struct BodyResult
{
    /** End-to-end metrics (setup_s, p50_ms, tail_ms). */
    Metrics e2e;
    /** Per-layer metrics. */
    Metrics layers;
    /** Operations attempted: runs, requests, frames and checks. */
    std::uint64_t attempted = 0;
    /** Errors, rejections, sheds and output mismatches. */
    std::uint64_t failed = 0;
    /** Output mismatches against the reference interpreter. */
    std::uint64_t mismatches = 0;
    /** Outputs compared against the reference interpreter. */
    std::uint64_t checked = 0;
};

/**
 * Compare outputs against the reference interpreter's.  Shapes must
 * match exactly and values within @p tol (relative to the output's
 * magnitude for float outputs), except for isolated threshold flips:
 * at most one element in 10^4.  Mismatches are described on stderr.
 */
bool outputsMatch(const std::vector<polymage::rt::Buffer> &got,
                  const std::vector<polymage::rt::Buffer> &ref, double tol);

/** Non-owning shared_ptr view of a buffer that outlives its use. */
inline std::shared_ptr<const polymage::rt::Buffer>
borrow(const polymage::rt::Buffer &b)
{
    return {std::shared_ptr<const polymage::rt::Buffer>(), &b};
}

/** Median over setup repetitions: each workload sets up this often. */
constexpr int kSetupRepeats = 3;

/** Image scale of `batch` (of the paper's sizes). */
constexpr double kBatchScale = 0.5;
/** Image scale of `serve-mixed` and `cold-start` requests. */
constexpr double kServeScale = 0.125;
/** temporal_denoise stream frame size (a quarter of 720p). */
constexpr std::int64_t kStreamRows = 176;
constexpr std::int64_t kStreamCols = 320;
/** Name of the stream pipeline in the serving registry. */
constexpr const char *kStreamPipeline = "temporal_denoise";

/**
 * Build every variant the warm workloads load into the JIT cache (the
 * tuned `batch` builds and the serving builds), @p threads at a time.
 */
void fillJitCache(int threads);

/// @name Workload bodies
/// @{
BodyResult runBatch(const RunConfig &cfg, SpanLog *trace);
BodyResult runServeMixed(const RunConfig &cfg, SpanLog *trace);
BodyResult runColdStart(const RunConfig &cfg, SpanLog *trace);
/// @}

} // namespace pmbench

#endif // PMBENCH_BENCH_HPP
