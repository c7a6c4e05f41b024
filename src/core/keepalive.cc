#include "core/keepalive.hh"

#include <algorithm>
#include <cmath>

namespace molecule::core {

double
LruKeepAlive::score(const WarmEntryView &entry, sim::SimTime now) const
{
    (void)now;
    return double(entry.lastUsed.raw());
}

double
GreedyDualKeepAlive::parkPriority(const WarmEntryView &entry)
{
    const double clock = entry.fnId != kNoFn ? clockOf(entry) : 0.0;
    return clock + double(entry.freq) * entry.costMs /
                       std::max(1.0, entry.sizeMb);
}

double &
GreedyDualKeepAlive::clockOf(const WarmEntryView &entry)
{
    if (entry.fnId >= clock_.size())
        clock_.resize(std::size_t(entry.fnId) + 1);
    std::vector<double> &row = clock_[entry.fnId];
    if (std::size_t(entry.pu) >= row.size())
        row.resize(std::size_t(entry.pu) + 1, 0.0);
    return row[std::size_t(entry.pu)];
}

double
GreedyDualKeepAlive::score(const WarmEntryView &entry,
                           sim::SimTime now) const
{
    (void)now;
    return entry.parkPriority;
}

void
GreedyDualKeepAlive::onEvict(const WarmEntryView &entry)
{
    if (entry.fnId != kNoFn)
        clockOf(entry) = entry.parkPriority;
}

namespace {

/** Reuse-interval percentile that sets the histogram window. */
constexpr double kPercentile = 95.0;
/** Safety margin on the predicted window. */
constexpr double kMarginFactor = 1.25;
/** Window until enough intervals are observed, ms. */
constexpr double kDefaultWindowMs = 250.0;
/** Observations needed before predictions kick in. */
constexpr std::int64_t kMinSamples = 4;

} // namespace

void
HistogramKeepAlive::onRequest(std::string_view fn, int pu,
                              sim::SimTime now)
{
    // Only the first request of a (fn, pu) pair copies the name.
    auto it = intervals_.lower_bound(PoolKeyView{fn, pu});
    if (it == intervals_.end() ||
        intervals_.key_comp()(PoolKeyView{fn, pu}, it->first))
        it = intervals_.emplace_hint(it, PoolKey{std::string(fn), pu},
                                     Intervals{});
    Intervals &iv = it->second;
    if (iv.seen && now > iv.lastSeen) {
        const std::int64_t us = (now - iv.lastSeen).raw() / 1000;
        std::size_t bucket = 0;
        for (std::int64_t v = us; v > 0 && bucket + 1 < iv.buckets.size();
             v >>= 1)
            ++bucket;
        ++iv.buckets[bucket];
        ++iv.count;
    }
    iv.lastSeen = now;
    iv.seen = true;
}

sim::SimTime
HistogramKeepAlive::windowOf(const Intervals &iv) const
{
    if (iv.count < kMinSamples)
        return sim::SimTime::fromMilliseconds(kDefaultWindowMs);
    // Walk the log buckets up to the target percentile; the bucket's
    // upper bound (2^i us) is the interval estimate.
    const std::int64_t target = std::max<std::int64_t>(
        1, std::int64_t(std::ceil(double(iv.count) *
                                  kPercentile / 100.0)));
    std::int64_t seen = 0;
    std::size_t bucket = iv.buckets.size() - 1;
    for (std::size_t i = 0; i < iv.buckets.size(); ++i) {
        seen += iv.buckets[i];
        if (seen >= target) {
            bucket = i;
            break;
        }
    }
    const double us = double(std::int64_t(1) << bucket);
    return sim::SimTime::fromMilliseconds(us * kMarginFactor /
                                          1000.0);
}

sim::SimTime
HistogramKeepAlive::window(std::string_view fn, int pu) const
{
    const auto it = intervals_.find(PoolKeyView{fn, pu});
    if (it == intervals_.end())
        return sim::SimTime::fromMilliseconds(kDefaultWindowMs);
    return windowOf(it->second);
}

double
HistogramKeepAlive::score(const WarmEntryView &entry,
                          sim::SimTime now) const
{
    const sim::SimTime w = window(entry.fn, entry.pu);
    const sim::SimTime reuseBy = entry.lastUsed + w;
    if (now > reuseBy) {
        // Past the predicted window: prime victim, most overdue first.
        return -double((now - reuseBy).raw());
    }
    // Inside the window: protected tier, LRU order among themselves.
    // Any protected score must exceed any overdue score (>= 0 > any
    // overdue negative).
    return double(entry.lastUsed.raw());
}

std::unique_ptr<KeepAliveStrategy>
KeepAliveConfig::make() const
{
    switch (kind) {
    case Kind::Lru:
        return std::make_unique<LruKeepAlive>();
    case Kind::GreedyDual:
        return std::make_unique<GreedyDualKeepAlive>();
    case Kind::Histogram:
        return std::make_unique<HistogramKeepAlive>();
    }
    return std::make_unique<LruKeepAlive>();
}

const char *
toString(KeepAliveConfig::Kind kind)
{
    switch (kind) {
    case KeepAliveConfig::Kind::Lru:
        return "lru";
    case KeepAliveConfig::Kind::GreedyDual:
        return "greedy-dual";
    case KeepAliveConfig::Kind::Histogram:
        return "histogram";
    }
    return "?";
}

} // namespace molecule::core
