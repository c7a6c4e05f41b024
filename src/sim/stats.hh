/**
 * @file
 * Measurement collection: summaries and sample histograms.
 *
 * Experiments record per-invocation latencies into Histogram objects and
 * report percentiles like the paper's harness (avg/50/75/90/95/99).
 */

#ifndef MOLECULE_SIM_STATS_HH
#define MOLECULE_SIM_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hh"

namespace molecule::sim {

/**
 * Exact-sample distribution.
 *
 * Stores every sample (experiments are small: 10^2..10^5 samples) so
 * percentiles are exact rather than bucketed.
 */
class Histogram
{
  public:
    void add(double v);

    /** Convenience for latency samples. */
    void addTime(SimTime t) { add(t.toMicroseconds()); }

    std::size_t count() const { return samples_.size(); }

    double mean() const;
    double min() const;
    double max() const;
    double stddev() const;

    /** Exact percentile via nearest-rank; @p p in [0, 100]. */
    double percentile(double p) const;

    void clear();

    const std::vector<double> &samples() const { return samples_; }

    /** "avg p50 p75 p90 p95 p99" line used by bench output. */
    std::string summaryLine() const;

  private:
    /** Sort lazily: adds are hot, queries are rare. */
    void ensureSorted() const;

    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
};

/**
 * Order-sensitive 64-bit digest (FNV-1a) over a stream of values.
 *
 * The golden-trace determinism tests fold every latency sample of a
 * scenario into a Fingerprint and compare digests across runs, seeds
 * and kernel rewrites: identical seed => identical digest, bit for bit.
 */
class Fingerprint
{
  public:
    /** Fold one 64-bit value into the digest (order matters). */
    void mix(std::uint64_t v);

    void mixDouble(double v);

    std::uint64_t digest() const { return state_; }

  private:
    static constexpr std::uint64_t kOffsetBasis = 14695981039346656037ULL;

    std::uint64_t state_ = kOffsetBasis;
};

} // namespace molecule::sim

#endif // MOLECULE_SIM_STATS_HH
