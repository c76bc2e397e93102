/**
 * @file
 * Statistics collection: counters, means, and histograms with
 * percentile queries, plus a named registry so machines and benches
 * can dump everything at once. Modeled on (a small slice of) the gem5
 * stats package.
 */

#ifndef LATR_SIM_STATS_HH_
#define LATR_SIM_STATS_HH_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace latr
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Tracks the distribution of a sampled quantity: count, sum, min,
 * max, mean, and percentiles via a bounded reservoir of raw samples.
 */
class Distribution
{
  public:
    /** @param max_samples reservoir size for percentile queries. */
    explicit Distribution(std::size_t max_samples = 1 << 16);

    /** Record one sample. */
    void sample(double value);

    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const;
    double max() const;
    double mean() const;

    /**
     * Value at quantile @p q in [0, 1], inclusive nearest rank: the
     * sample at 1-based index ceil(q * n) of the sorted reservoir
     * (clamped to [1, n], so q = 0 is the minimum and q = 1 the
     * maximum). Exact over the reservoir; statistical over the full
     * stream once the reservoir is full. Matches
     * LatencyHistogram::percentile bit-for-bit on common inputs.
     */
    double percentile(double q) const;

  private:
    std::size_t maxSamples_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    // Reservoir sampling state; mutable so percentile() can sort.
    mutable std::vector<double> reservoir_;
    mutable bool sorted_ = true;
    std::uint64_t seen_ = 0;
    std::uint64_t rngState_;
};

/**
 * A rate meter: events per second of simulated time, given a counter
 * value and an elapsed duration in nanoseconds.
 */
double ratePerSecond(std::uint64_t events, std::uint64_t elapsed_ns);

/**
 * A named registry of counters and distributions. Modules register
 * their stats under dotted names ("tlb.c3.misses"); dump() renders a
 * sorted report.
 */
class StatRegistry
{
  public:
    /** Get (creating if needed) the counter named @p name. */
    Counter &counter(const std::string &name);

    /** Get (creating if needed) the distribution named @p name. */
    Distribution &distribution(const std::string &name);

    /**
     * The counter named @p name, looked up on the first call only and
     * kept in @p slot (a caller's member, initially null) for later
     * calls: a hot path pays a null check instead of a string-keyed
     * map lookup. Binding on first use, not in a constructor, keeps a
     * stat that never fires out of dump().
     */
    Counter &cachedCounter(Counter *&slot, const char *name)
    {
        if (!slot)
            slot = &counter(name);
        return *slot;
    }

    /** cachedCounter() for a distribution. */
    Distribution &cachedDistribution(Distribution *&slot, const char *name)
    {
        if (!slot)
            slot = &distribution(name);
        return *slot;
    }

    /** True if a counter named @p name exists. */
    bool hasCounter(const std::string &name) const;

    /** Value of counter @p name, or 0 if absent. */
    std::uint64_t counterValue(const std::string &name) const;

    /** Reset every stat to zero. */
    void resetAll();

    /** Render all stats, one per line, sorted by name. */
    std::string dump() const;

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Distribution> distributions_;
};

} // namespace latr

#endif // LATR_SIM_STATS_HH_
