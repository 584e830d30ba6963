#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <sstream>

namespace pmbench {

using namespace polymage;

double
Samples::quantile(double q) const
{
    if (v_.empty())
        return 0.0;
    if (!sorted_) {
        std::sort(v_.begin(), v_.end());
        sorted_ = true;
    }
    const double pos = q * double(v_.size() - 1);
    const auto lo = std::size_t(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v_.size() - 1);
    return v_[lo] + (v_[hi] - v_[lo]) * (pos - double(lo));
}

double
Samples::tailLevel() const
{
    for (double q : {0.99, 0.95, 0.9, 0.75})
        if (double(v_.size()) * (1.0 - q) >= 10.0)
            return q;
    return 0.5;
}

std::string
Samples::summary(double scale, const char *unit) const
{
    const double t = tailLevel();
    char tail[64] = "";
    if (t > 0.5)
        std::snprintf(tail, sizeof tail, " | p%g %.4g %s", t * 100,
                      quantile(t) * scale, unit);
    char buf[200];
    std::snprintf(buf, sizeof buf, "p50 %.4g %s%s | q1 %.4g q3 %.4g | n %zu",
                  median() * scale, unit, tail, q1() * scale, q3() * scale,
                  n());
    return buf;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / double(values.size()));
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

CpuTimes
cpuTimes()
{
    // "cpu user nice system idle iowait irq softirq steal guest ..."
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;
    CpuTimes t;
    for (int field = 0; field < 8; ++field) {
        double v = 0.0;
        if (!(in >> v))
            break;
        t.total += v;
        if (field == 7)
            t.steal = v;
    }
    return t;
}

void
resetPeakRss()
{
    ::malloc_trim(0);
    // "5" resets the peak RSS (Documentation/filesystems/proc.rst).
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5" << std::flush;
}

long long
SpanLog::add(std::string name, std::string layer, Clock::time_point start,
             Clock::time_point end, long long parent, long long request)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), std::move(layer), start, end,
                      parent, request});
    return (long long)spans_.size() - 1;
}

long long
SpanLog::begin(std::string name, std::string layer, long long parent,
               long long request)
{
    const Clock::time_point now = Clock::now();
    return add(std::move(name), std::move(layer), now, now, parent,
               request);
}

void
SpanLog::end(long long id)
{
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[std::size_t(id)].end = now;
}

std::size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

std::map<std::string, double>
SpanLog::selfMsByLayer() const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Child intervals per parent, merged so overlapping children (tasks
    // of one request running in parallel) are not subtracted twice.
    std::vector<std::vector<std::pair<Clock::time_point,
                                      Clock::time_point>>>
        children(spans_.size());
    for (const Span &s : spans_)
        if (s.parent >= 0 && std::size_t(s.parent) < spans_.size())
            children[std::size_t(s.parent)].push_back({s.start, s.end});

    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        Clock::time_point cur_lo{}, cur_hi{};
        bool open = false;
        for (auto [lo, hi] : kids) {
            lo = std::max(lo, s.start);
            hi = std::min(hi, s.end);
            if (hi <= lo)
                continue;
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                covered += secondsBetween(cur_lo, cur_hi);
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            covered += secondsBetween(cur_lo, cur_hi);
        self[s.layer] += (secondsBetween(s.start, s.end) - covered) * 1e3;
    }
    return self;
}

bool
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mu_);
    obs::JsonWriter w;
    w.beginObject();
    w.key("schema").value("pmbench-spans-v1");
    w.key("spans").beginArray();
    for (const Span &s : spans_) {
        w.beginObject();
        w.key("name").value(s.name);
        w.key("layer").value(s.layer);
        w.key("start_us").value(secondsBetween(epoch_, s.start) * 1e6);
        w.key("dur_us").value(secondsBetween(s.start, s.end) * 1e6);
        w.key("parent").value(std::int64_t(s.parent));
        w.key("request").value(std::int64_t(s.request));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::ofstream os(path);
    os << w.str() << "\n";
    return bool(os);
}

void
addCompileSpans(SpanLog *log, const std::vector<obs::Span> &program_spans,
                Clock::time_point start, long long parent)
{
    if (log == nullptr)
        return;
    Clock::time_point t = start;
    for (const obs::Span &s : program_spans) {
        if (s.parent >= 0 || s.durationNs < 0)
            continue;
        const Clock::time_point end =
            t + std::chrono::nanoseconds(s.durationNs);
        log->add(s.name, s.name == "jit" ? "jit" : "driver", t, end,
                 parent);
        t = end;
    }
}

bool
outputsMatch(const std::vector<rt::Buffer> &got,
             const std::vector<rt::Buffer> &ref, double tol)
{
    if (got.size() != ref.size())
        return false;
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (!got[i].valid() || got[i].dims() != ref[i].dims()) {
            std::fprintf(stderr, "output %zu: shape differs from the "
                                 "interpreter's\n", i);
            return false;
        }
        // Float tolerances are per unit of output magnitude, so
        // large-valued outputs (Harris responses) get the same relative
        // slack as unit-range images; integer outputs compare absolutely.
        const rt::Buffer &r = ref[i];
        const bool is_float = r.dtype() == dsl::DType::Float ||
                              r.dtype() == dsl::DType::Double;
        double scale = 1.0;
        if (is_float)
            for (std::int64_t k = 0; k < r.numel(); ++k)
                scale = std::max(scale, std::fabs(r.loadAsDouble(k)));
        const double limit = tol * scale;
        // Comparison stages (Unsharp's threshold, Camera's hot-pixel
        // test) flip where compiled and reference rounding straddle the
        // threshold; such flips hit isolated elements, so up to one in
        // 10^4 may exceed the tolerance.  A wrong row, column or tile
        // exceeds that.
        const std::int64_t allowed = r.numel() / 10000;
        std::int64_t over = 0;
        double worst = 0.0;
        for (std::int64_t k = 0; k < r.numel(); ++k) {
            const double d =
                std::fabs(got[i].loadAsDouble(k) - r.loadAsDouble(k));
            worst = std::max(worst, d);
            over += d <= limit ? 0 : 1;
        }
        if (over > allowed) {
            std::fprintf(stderr, "output %zu: %lld of %lld elements differ "
                                 "by more than %g (max %g)\n",
                         i, (long long)over, (long long)r.numel(), limit,
                         worst);
            return false;
        }
    }
    return true;
}

} // namespace pmbench
