/**
 * @file
 * The benchmark's measurement arithmetic, kept free of the simulator
 * so tests.cc can check it on hand-made inputs: the percentile rule,
 * the in-memory span recorder and its self-time reduction, failure
 * accounting, and the named-metric report.
 */

#ifndef LATRBENCH_REPORT_HH_
#define LATRBENCH_REPORT_HH_

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace latrbench
{

/// @name Percentiles
/// @{

/**
 * A percentile level as its count of nines: 1 is p50 (one sample in
 * 2 beyond it), 2 is p90, 3 is p99, 4 is p99.9 and so on. Level k
 * leaves floor(n / 2) samples beyond it for k = 1 and floor(n /
 * 10^(k-1)) otherwise, which is what the nearest-rank rule gives.
 */
inline std::uint64_t
samplesBeyond(std::uint64_t n, unsigned level)
{
    if (level <= 1)
        return n / 2;
    std::uint64_t div = 1;
    for (unsigned k = 1; k < level; ++k)
        div *= 10;
    return n / div;
}

/**
 * The highest level that still leaves at least ten samples beyond
 * it. Fewer than 20 samples qualify for no level; the median is then
 * the only figure given, at level 1.
 */
inline unsigned
topLevel(std::uint64_t n)
{
    unsigned level = 1;
    while (level < 18 && samplesBeyond(n, level + 1) >= 10)
        ++level;
    return level;
}

/** The quantile in [0, 1) a level names: 0.5, 0.9, 0.99, ... */
inline double
levelQuantile(unsigned level)
{
    return level <= 1 ? 0.5 : 1.0 - std::pow(10.0, -double(level - 1));
}

/** "p50", "p90", "p99", "p99.9", ... */
inline std::string
levelName(unsigned level)
{
    if (level <= 1)
        return "p50";
    if (level == 2)
        return "p90";
    return level == 3 ? "p99" : "p99." + std::string(level - 3, '9');
}

/**
 * Nearest-rank quantile of @p sorted (ascending): the sample at
 * 1-based rank ceil(q * n), clamped to [1, n]. The same rule as
 * latr::Distribution and latr::LatencyHistogram. 0 when empty.
 */
inline double
nearestRank(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double n = double(sorted.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

/** Median, top percentile (by topLevel) and sample count. */
struct Summary
{
    double p50 = 0.0;
    double top = 0.0;
    unsigned topLevel = 1;
    std::uint64_t count = 0;
};

inline Summary
summarize(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    Summary s;
    s.count = samples.size();
    s.topLevel = topLevel(s.count);
    s.p50 = nearestRank(samples, 0.5);
    s.top = nearestRank(samples, levelQuantile(s.topLevel));
    return s;
}

/** Median of a handful of per-round values (mean of the middle two). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// @}

/// @name Spans
/// @{

/** One timed call: [start, end) in host ns, and the span that caused it. */
struct Span
{
    std::uint32_t name = 0;
    /** Spans of one bigbox iteration, fuzz script or replay share it. */
    std::uint32_t group = 0;
    /** Index of the enclosing span, or -1 for a root. */
    std::int32_t parent = -1;
    /** Recorded while the timed run phase (not set-up) was open. */
    bool run = false;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval that its children cover. Children may nest further and
 * may overlap each other; each covered nanosecond is taken off once,
 * and a child running past its parent's end is clipped.
 */
inline std::vector<std::uint64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            children.at(std::size_t(spans[i].parent)).push_back(i);

    std::vector<std::uint64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
        for (std::size_t c : children[i]) {
            const std::uint64_t lo = std::max(spans[c].start, p.start);
            const std::uint64_t hi = std::min(spans[c].end, p.end);
            if (lo < hi)
                cover.emplace_back(lo, hi);
        }
        std::sort(cover.begin(), cover.end());
        std::uint64_t covered = 0;
        std::uint64_t reach = p.start;
        for (auto [lo, hi] : cover) {
            lo = std::max(lo, reach);
            if (lo < hi) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[i] = (p.end - p.start) - covered;
    }
    return self;
}

/**
 * Spans kept in memory for the whole run and reduced when it ends.
 * Recording is a clock read at each end and a vector append; nothing
 * is written out mid-run.
 */
class SpanRecorder
{
  public:
    SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

    /** Open a span under the innermost open one; returns its index. */
    std::size_t
    begin(std::uint32_t name)
    {
        Span s;
        s.name = name;
        s.group = group_;
        s.parent = open_.empty() ? -1 : std::int32_t(open_.back());
        s.run = run_;
        spans_.push_back(s);
        open_.push_back(spans_.size() - 1);
        spans_.back().start = nowNs();
        return spans_.size() - 1;
    }

    void
    end(std::size_t index)
    {
        // Scoped closes spans in reverse order of opening, so the
        // innermost open span is always the one ending.
        spans_[index].end = nowNs();
        open_.pop_back();
    }

    /** Intern @p name; the id is stable for the recorder's life. */
    std::uint32_t
    intern(const std::string &name)
    {
        auto [it, fresh] = ids_.try_emplace(name, names_.size());
        if (fresh)
            names_.push_back(name);
        return it->second;
    }

    /** Start a new group: later spans share its id. */
    void nextGroup() { ++group_; }
    void setRunPhase(bool run) { run_ = run; }

    const std::vector<Span> &spans() const { return spans_; }
    const std::string &name(std::uint32_t id) const { return names_[id]; }
    void
    clear()
    {
        spans_.clear();
        open_.clear();
    }

  private:
    std::uint64_t
    nowNs() const
    {
        return std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }

    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
    std::vector<std::string> names_;
    std::map<std::string, std::uint32_t> ids_;
    std::uint32_t group_ = 0;
    bool run_ = false;
};

/**
 * A span around one call, or nothing when @p rec is null: the
 * untraced run pays one branch per call site.
 */
class Scoped
{
  public:
    Scoped(SpanRecorder *rec, std::uint32_t name)
        : rec_(rec), index_(rec ? rec->begin(name) : 0)
    {
    }
    ~Scoped()
    {
        if (rec_)
            rec_->end(index_);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    SpanRecorder *rec_;
    std::size_t index_;
};

/** The layer a span belongs to: its name up to the first '.'. */
inline std::string
layerOf(const std::string &span_name)
{
    return span_name.substr(0, span_name.find('.'));
}

/// @}

/// @name Failures
/// @{

/**
 * Operations attempted and failed. An operation is one policy run or
 * one fuzz script; it fails when any of its checks fails, and counts
 * once however many checks fail.
 */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }

    double
    failedFrac() const
    {
        return attempted ? double(failed) / double(attempted) : 0.0;
    }
};

/// @}

/// @name Metrics
/// @{

/**
 * True when @p name is 1 to 64 characters of [A-Za-z0-9_.-] and
 * starts with a letter or digit.
 */
inline bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    for (char ch : name)
        if (!std::isalnum(static_cast<unsigned char>(ch)) &&
            ch != '_' && ch != '.' && ch != '-')
            return false;
    return true;
}

/** One reported figure. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Sample count and percentile level, shown on the text line. */
    std::string note;
};

/** Render @p v with all its significant digits (JSON-safe). */
inline std::string
number(double v)
{
    if (!std::isfinite(v))
        throw std::domain_error("metric value is not finite");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** One "metric NAME VALUE UNIT [NOTE]" line. */
inline std::string
textLine(const Metric &m)
{
    std::string s = "metric " + m.name + " " + number(m.value) + " " +
                    m.unit;
    if (!m.note.empty())
        s += " " + m.note;
    return s;
}

/** The contract's result line: {"correct":..,"attempted":..,...}. */
inline std::string
resultJson(const Outcome &o, const std::vector<Metric> &metrics)
{
    std::string s = "{\"correct\": ";
    s += o.failed == 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(o.attempted);
    s += ", \"failed\": " + std::to_string(o.failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            s += ", ";
        s += "\"" + metrics[i].name + "\": {\"value\": " +
             number(metrics[i].value) + ", \"unit\": \"" +
             metrics[i].unit + "\"}";
    }
    return s + "}}";
}

/// @}

} // namespace latrbench

#endif // LATRBENCH_REPORT_HH_
