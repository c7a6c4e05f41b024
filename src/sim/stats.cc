#include "sim/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "sim/logging.hh"

namespace molecule::sim {

void
Histogram::add(double v)
{
    samples_.push_back(v);
    sorted_ = false;
    sum_ += v;
    sumSq_ += v * v;
}

double
Histogram::mean() const
{
    return samples_.empty() ? 0.0 : sum_ / double(samples_.size());
}

void
Histogram::ensureSorted() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
Histogram::min() const
{
    ensureSorted();
    return samples_.empty() ? 0.0 : samples_.front();
}

double
Histogram::max() const
{
    ensureSorted();
    return samples_.empty() ? 0.0 : samples_.back();
}

double
Histogram::stddev() const
{
    const auto n = double(samples_.size());
    if (n < 2)
        return 0.0;
    const double var = (sumSq_ - sum_ * sum_ / n) / (n - 1);
    return var > 0 ? std::sqrt(var) : 0.0;
}

double
Histogram::percentile(double p) const
{
    MOLECULE_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range");
    if (samples_.empty())
        return 0.0;
    ensureSorted();
    const auto n = samples_.size();
    // Nearest-rank (ceil) definition; p=0 maps to the minimum.
    std::size_t rank = std::size_t(std::ceil(p / 100.0 * double(n)));
    if (rank == 0)
        rank = 1;
    return samples_[rank - 1];
}

void
Histogram::clear()
{
    samples_.clear();
    sorted_ = true;
    sum_ = 0.0;
    sumSq_ = 0.0;
}

std::string
Histogram::summaryLine() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "avg %.2f  p50 %.2f  p75 %.2f  p90 %.2f  p95 %.2f  "
                  "p99 %.2f",
                  mean(), percentile(50), percentile(75), percentile(90),
                  percentile(95), percentile(99));
    return buf;
}

void
Fingerprint::mix(std::uint64_t v)
{
    // FNV-1a, one byte at a time, little-endian byte order.
    constexpr std::uint64_t prime = 1099511628211ULL;
    for (int shift = 0; shift < 64; shift += 8) {
        state_ ^= (v >> shift) & 0xffULL;
        state_ *= prime;
    }
}

void
Fingerprint::mixDouble(double v)
{
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
}

void
Fingerprint::mixHistogram(const Histogram &h)
{
    for (double s : h.samples())
        mixDouble(s);
}

} // namespace molecule::sim
