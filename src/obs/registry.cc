#include "obs/registry.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace molecule::obs {

int
Histogram::bucketOf(double v)
{
    if (!(v >= 1.0)) // negatives, zero, NaN: the shared floor bucket
        return kFloorBucket;
    return int(std::min(std::floor(std::log2(v) * 8.0),
                        double(kTopBucket)));
}

double
Histogram::bucketMid(int idx)
{
    if (idx <= kFloorBucket)
        return 0.0;
    // Geometric midpoint of [2^(idx/8), 2^((idx+1)/8)).
    return std::exp2((double(idx) + 0.5) / 8.0);
}

void
Histogram::add(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    const int idx = bucketOf(v);
    if (idx == kFloorBucket) {
        ++floorCount_;
        return;
    }
    if (std::size_t(idx) >= buckets_.size())
        buckets_.resize(std::size_t(idx) + 1, 0);
    ++buckets_[std::size_t(idx)];
}

double
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    // Nearest-rank over the cumulative bucket counts, floor first.
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, std::uint64_t(std::ceil(p / 100.0 * double(count_))));
    std::uint64_t seen = floorCount_;
    if (seen >= rank)
        return std::clamp(bucketMid(kFloorBucket), min_, max_);
    for (std::size_t idx = 0; idx < buckets_.size(); ++idx) {
        seen += buckets_[idx];
        if (seen >= rank)
            return std::clamp(bucketMid(int(idx)), min_, max_);
    }
    return max_;
}

void
Histogram::clear()
{
    floorCount_ = 0;
    buckets_.clear();
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

std::string
Histogram::summaryLine() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "n=%llu avg=%.1f p50=%.1f p95=%.1f p99=%.1f",
                  static_cast<unsigned long long>(count_), mean(),
                  percentile(50), percentile(95), percentile(99));
    return buf;
}

HistogramSnapshot
Histogram::snapshotBuckets() const
{
    HistogramSnapshot s;
    if (floorCount_ > 0)
        s.buckets.emplace_back(kFloorBucket, floorCount_);
    for (std::size_t idx = 0; idx < buckets_.size(); ++idx)
        if (buckets_[idx] > 0)
            s.buckets.emplace_back(int(idx), buckets_[idx]);
    s.count = count_;
    s.sum = sum_;
    return s;
}

double
HistogramSnapshot::percentile(double p) const
{
    if (count == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, std::uint64_t(std::ceil(p / 100.0 * double(count))));
    std::uint64_t seen = 0;
    for (const auto &[idx, n] : buckets) {
        seen += n;
        if (seen >= rank)
            return Histogram::bucketMid(idx);
    }
    return buckets.empty() ? 0.0
                           : Histogram::bucketMid(buckets.back().first);
}

std::uint64_t
HistogramSnapshot::countAbove(double v) const
{
    const int limit = Histogram::bucketOf(v);
    std::uint64_t above = 0;
    for (const auto &[idx, n] : buckets)
        if (idx > limit)
            above += n;
    return above;
}

HistogramSnapshot
HistogramSnapshot::minus(const HistogramSnapshot &older) const
{
    HistogramSnapshot d;
    d.count = count - older.count;
    d.sum = sum - older.sum;
    // Both bucket lists are index-sorted; a single merge walk pairs
    // them up. A bucket absent from `older` existed only in `this`.
    std::size_t j = 0;
    for (const auto &[idx, n] : buckets) {
        std::uint64_t old = 0;
        while (j < older.buckets.size() && older.buckets[j].first < idx)
            ++j;
        if (j < older.buckets.size() && older.buckets[j].first == idx)
            old = older.buckets[j].second;
        if (n > old)
            d.buckets.emplace_back(idx, n - old);
    }
    return d;
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    count += other.count;
    sum += other.sum;
    std::vector<std::pair<int, std::uint64_t>> merged;
    merged.reserve(buckets.size() + other.buckets.size());
    std::size_t i = 0, j = 0;
    while (i < buckets.size() || j < other.buckets.size()) {
        if (j == other.buckets.size() ||
            (i < buckets.size() &&
             buckets[i].first < other.buckets[j].first)) {
            merged.push_back(buckets[i++]);
        } else if (i == buckets.size() ||
                   other.buckets[j].first < buckets[i].first) {
            merged.push_back(other.buckets[j++]);
        } else {
            merged.emplace_back(buckets[i].first,
                                buckets[i].second +
                                    other.buckets[j].second);
            ++i;
            ++j;
        }
    }
    buckets = std::move(merged);
}

void
Registry::clear()
{
    counters_.clear();
    gauges_.clear();
    hists_.clear();
}

} // namespace molecule::obs
