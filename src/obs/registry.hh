/**
 * @file
 * Unified metrics registry: counters, gauges and log-bucketed
 * histograms with cheap tail percentiles.
 *
 * This is the model-layer successor of the ad-hoc structs that used
 * to live in core/metrics.hh: subsystems publish named metrics here
 * (and the Tracer feeds one histogram sample per finished span), so
 * experiment harnesses and tools/trace_report read everything from
 * one place. sim/stats.hh keeps its exact-sample Histogram for small
 * test fixtures; this Histogram buckets geometrically (~9% relative
 * resolution, 8 buckets per octave) so million-invocation runs stay
 * O(#buckets) in memory while p50/p95/p99 remain honest.
 */

#ifndef MOLECULE_OBS_REGISTRY_HH
#define MOLECULE_OBS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.hh"

namespace molecule::obs {

/**
 * Frozen bucket state of a Histogram at one instant. Snapshots are
 * values: subtract an older snapshot from a newer one and the result
 * is the distribution of exactly the samples recorded in between —
 * the windowed-percentile primitive of the telemetry plane (a window
 * close diffs two snapshots instead of re-walking the histogram).
 * Buckets are index-sorted, so all derived output is deterministic.
 */
struct HistogramSnapshot
{
    /** (bucket index, cumulative count), ascending by index. */
    std::vector<std::pair<int, std::uint64_t>> buckets;
    std::uint64_t count = 0;
    double sum = 0.0;

    double mean() const { return count ? sum / double(count) : 0.0; }

    /**
     * Bucketed percentile over the snapshot's own counts; @p p in
     * [0, 100]. Resolution is the bucket width (~9%); unlike
     * Histogram::percentile there is no observed-range clamp (deltas
     * do not carry min/max).
     */
    double percentile(double p) const;

    /**
     * Samples that landed in buckets strictly above the one holding
     * @p v — the deterministic "requests over the SLO threshold"
     * count (within one bucket of the exact answer).
     */
    std::uint64_t countAbove(double v) const;

    /** Samples recorded between @p older and this snapshot. Bucket
     * counts are monotone, so the precondition is simply that @p
     * older was taken earlier on the same histogram. */
    HistogramSnapshot minus(const HistogramSnapshot &older) const;

    /** Fold @p other into this snapshot (cross-shard aggregation). */
    void merge(const HistogramSnapshot &other);
};

/** Monotonic counter. */
class Counter
{
  public:
    void inc(std::int64_t by = 1) { value_ += by; }

    std::int64_t value() const { return value_; }

    void reset() { value_ = 0; }

  private:
    std::int64_t value_ = 0;
};

/** Last-write-wins level (queue depths, pool sizes). */
class Gauge
{
  public:
    void set(double v) { value_ = v; }

    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * Log-bucketed distribution: bucket index = floor(log2(v) * 8), i.e.
 * 8 buckets per octave (~9% bucket width), counted in a flat array up
 * to the largest index seen. Memory is O(octaves), not O(samples);
 * percentiles interpolate the geometric midpoint of the bucket holding
 * the requested rank, clamped to the observed range.
 */
class Histogram
{
  public:
    void add(double v);

    /** Convenience for latency samples (microseconds, like stats). */
    void addTime(sim::SimTime t) { add(t.toMicroseconds()); }

    std::uint64_t count() const { return count_; }

    double sum() const { return sum_; }

    double mean() const { return count_ ? sum_ / double(count_) : 0.0; }

    double min() const { return count_ ? min_ : 0.0; }

    double max() const { return count_ ? max_ : 0.0; }

    /** Bucketed percentile; @p p in [0, 100]. */
    double percentile(double p) const;

    void clear();

    /** "n=... avg=... p50=... p95=... p99=..." reporting line. */
    std::string summaryLine() const;

    /** Freeze the bucket state (see HistogramSnapshot). */
    HistogramSnapshot snapshotBuckets() const;

    /** @name Bucket geometry (shared with HistogramSnapshot) */
    ///@{
    static int bucketOf(double v);

    static double bucketMid(int idx);
    ///@}

    /** Sub-unity and non-positive samples share the floor bucket. */
    static constexpr int kFloorBucket = -1024;

    /** Infinities share the top bucket (past DBL_MAX's 8191). */
    static constexpr int kTopBucket = 8192;

  private:
    std::uint64_t floorCount_ = 0;
    /** buckets_[i]: samples in bucket i >= 0, grown on demand. */
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Named metrics, ordered (std::map) so iteration order — and any
 * digest or report built from it — is deterministic.
 *
 * Lookups are heterogeneous (string_view against std::less<>), so the
 * per-span hot path — histogram(rec.name) with a string-literal name —
 * allocates nothing once the metric exists. Returned references are
 * address-stable for the life of the registry (map nodes never move),
 * so callers may cache them across pushes; clear() invalidates caches.
 */
class Registry
{
  public:
    template <typename T>
    using NamedMap = std::map<std::string, T, std::less<>>;

    Counter &counter(std::string_view name)
    {
        return lookup(counters_, name);
    }

    Gauge &gauge(std::string_view name) { return lookup(gauges_, name); }

    Histogram &histogram(std::string_view name)
    {
        return lookup(hists_, name);
    }

    const NamedMap<Counter> &counters() const { return counters_; }

    const NamedMap<Gauge> &gauges() const { return gauges_; }

    const NamedMap<Histogram> &histograms() const { return hists_; }

    void clear();

  private:
    template <typename T>
    static T &
    lookup(NamedMap<T> &m, std::string_view name)
    {
        auto it = m.find(name);
        if (it == m.end())
            it = m.emplace(std::string(name), T{}).first;
        return it->second;
    }

    NamedMap<Counter> counters_;
    NamedMap<Gauge> gauges_;
    NamedMap<Histogram> hists_;
};

} // namespace molecule::obs

#endif // MOLECULE_OBS_REGISTRY_HH
