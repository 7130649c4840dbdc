/**
 * @file
 * Statistics registry (stats-v2).
 *
 * Components own plain Counter and Histogram members (hot-path
 * updates are a single add / a bucket increment) and register them by
 * hierarchical dotted name with the System's StatRegistry at
 * construction time.  Benches snapshot the registry into a
 * name→value map to compare configurations, or export the whole
 * registry as JSON for machine-readable trajectories (BENCH_*.json).
 *
 * Naming convention: "<component>.<event>" for counters (e.g.
 * "l3.misses", "hmc0.vault3.dram_reads") and
 * "<component>.<quantity>_ticks" for latency histograms (e.g.
 * "pmu.pei_latency_ticks").
 *
 * The registry also holds *invariants*: named cross-checks over
 * related counters (e.g. "hits + misses == lookups") registered by
 * the components that own the counters and evaluated by audit() at
 * the end of a simulation.  Tests fail on any violation, which turns
 * silent double-count / dead-counter bugs into hard errors.
 */

#ifndef PEISIM_COMMON_STATS_HH
#define PEISIM_COMMON_STATS_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace pei
{

/** A 64-bit event counter with negligible increment overhead. */
class Counter
{
  public:
    Counter() = default;

    Counter &
    operator+=(std::uint64_t v)
    {
        value_ += v;
        return *this;
    }

    Counter &
    operator++()
    {
        ++value_;
        return *this;
    }

    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A log2-bucketed histogram of 64-bit samples.  record() is cheap
 * enough for simulator hot paths: one bit_width, one bucket
 * increment, a running sum and min/max.  Bucket b holds value 0 for
 * b == 0 and the range [2^(b-1), 2^b) for b >= 1.
 */
class Histogram
{
  public:
    static constexpr unsigned num_buckets = 65;

    Histogram() = default;

    void
    record(std::uint64_t v)
    {
        ++buckets_[std::bit_width(v)];
        ++count_;
        sum_ += v;
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }

    /** Smallest recorded sample (0 if empty). */
    std::uint64_t min() const { return count_ ? min_ : 0; }

    /** Largest recorded sample (0 if empty). */
    std::uint64_t max() const { return max_; }

    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }

    /** Samples in bucket @p b (see class comment for ranges). */
    std::uint64_t bucketCount(unsigned b) const { return buckets_[b]; }

    /** Inclusive lower bound of bucket @p b. */
    static std::uint64_t
    bucketLow(unsigned b)
    {
        return b == 0 ? 0 : 1ULL << (b - 1);
    }

    /** Inclusive upper bound of bucket @p b. */
    static std::uint64_t
    bucketHigh(unsigned b)
    {
        if (b == 0)
            return 0;
        if (b >= 64)
            return ~0ULL;
        return (1ULL << b) - 1;
    }

    /**
     * Interpolated percentile (p in [0, 1], clamped).  Semantics:
     * the target is the fractional rank r = p * (count - 1) over the
     * samples in ascending order; the bucket holding rank r is found
     * by cumulative count, and the samples inside that log2 bucket
     * are assumed uniformly spread over [bucketLow(b),
     * bucketHigh(b) + 1), so the result is
     *     bucketLow(b) + span * (r - ranks_before) / bucket_count.
     * The result is clamped to [min(), max()], which makes the
     * estimate exact at p = 0 and p = 1 and prevents a sparse top
     * bucket from inflating the tail.  Returns 0.0 when empty.
     * With samples 1..8, percentile(0.5) == 4.5 and
     * percentile(0.95) == 7.65 (see Stats.PercentileInterpolates).
     */
    double percentile(double p) const;

  private:
    std::uint64_t buckets_[num_buckets] = {};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~0ULL;
    std::uint64_t max_ = 0;
};

/**
 * Registry of named counters, histograms, and invariants.  Names are
 * dotted paths, e.g. "l3.misses" or "hmc0.vault3.dram_reads".
 */
class StatRegistry
{
  public:
    /**
     * An invariant check: returns an empty string when the invariant
     * holds, or a human-readable violation message (with the actual
     * values) when it does not.
     */
    using InvariantFn = std::function<std::string()>;

    /** Register @p counter under @p name; the counter must outlive
     *  the registry.  Duplicate names are a simulator bug. */
    void add(const std::string &name, Counter *counter);

    /** Register @p histogram under @p name (same contract as add). */
    void add(const std::string &name, Histogram *histogram);

    /**
     * Register an end-of-simulation invariant over this registry's
     * stats (or the owning component's state); evaluated by audit().
     * The objects the check reads must outlive the registry.
     */
    void addInvariant(const std::string &name, InvariantFn check);

    /** Value of the counter registered as @p name (fatal if absent). */
    std::uint64_t get(const std::string &name) const;

    /** True if a counter is registered under @p name. */
    bool has(const std::string &name) const;

    /** The histogram registered as @p name (fatal if absent). */
    const Histogram &histogram(const std::string &name) const;

    /** True if a histogram is registered under @p name. */
    bool hasHistogram(const std::string &name) const;

    /** Snapshot every counter into a name→value map. */
    std::map<std::string, std::uint64_t> snapshot() const;

    /**
     * Evaluate every registered invariant; returns the violation
     * messages (empty vector = all invariants hold).
     */
    std::vector<std::string> audit() const;

    /** JSON object of every counter: {"name": value, ...}. */
    std::string countersJson() const;

    /**
     * JSON object of every histogram:
     * {"name": {"count", "sum", "min", "max", "mean", "buckets":
     * [[lo, hi, n], ...nonzero buckets...]}, ...}.
     */
    std::string histogramsJson() const;

    /** {"counters": countersJson(), "histograms": histogramsJson()}. */
    std::string toJson() const;

  private:
    std::map<std::string, Counter *> counters;
    std::map<std::string, Histogram *> histograms;
    std::vector<std::pair<std::string, InvariantFn>> invariants;
};

} // namespace pei

#endif // PEISIM_COMMON_STATS_HH
