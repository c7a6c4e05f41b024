#include "obs/slo.hh"

#include <algorithm>
#include <cmath>

namespace molecule::obs {

namespace {

/** The ClusterStats per-tenant series the monitor reads. */
constexpr std::string_view kLatencyMetric = "tenant.e2e_us";
constexpr std::string_view kCompletedMetric = "tenant.completed";
constexpr std::string_view kErrorMetric = "tenant.errors";

} // namespace

SloMonitor::SloMonitor(TimeSeries &ts, SloSpec spec)
    : ts_(ts), spec_(std::move(spec))
{
    latencyIds_.reserve(spec_.tenants);
    completedIds_.reserve(spec_.tenants);
    errorIds_.reserve(spec_.tenants);
    for (std::uint32_t t = 0; t < spec_.tenants; ++t) {
        latencyIds_.push_back(ts_.histogramId(kLatencyMetric, int(t)));
        completedIds_.push_back(ts_.counterId(kCompletedMetric, int(t)));
        errorIds_.push_back(ts_.counterId(kErrorMetric, int(t)));
    }
    for (const SloObjective &o : spec_.objectives)
        if (o.kind == SloObjective::Kind::Latency)
            for (std::uint32_t t = 0; t < spec_.tenants; ++t)
                ts_.setThreshold(latencyIds_[t], o.thresholdUs);
    cells_.resize(std::size_t(spec_.tenants) *
                  spec_.objectives.size());
    ts_.addListener(this);
}

void
SloMonitor::addSink(AlertSink *sink)
{
    sinks_.push_back(sink);
}

double
SloMonitor::burnOver(const Cell &c, std::size_t n, double budget)
{
    std::int64_t good = 0;
    std::int64_t bad = 0;
    const std::size_t take = std::min(n, c.ring.size());
    for (std::size_t i = c.ring.size() - take; i < c.ring.size(); ++i) {
        good += c.ring[i].first;
        bad += c.ring[i].second;
    }
    const std::int64_t total = good + bad;
    if (total == 0)
        return 0.0;
    return (double(bad) / double(total)) / budget;
}

void
SloMonitor::onWindow(const TimeSeries &ts, const WindowRecord &w)
{
    for (std::uint32_t t = 0; t < spec_.tenants; ++t) {
        const WindowPoint *lat = w.find(latencyIds_[t]);
        const WindowPoint *done = w.find(completedIds_[t]);
        const WindowPoint *err = w.find(errorIds_[t]);

        for (std::uint32_t oi = 0;
             oi < std::uint32_t(spec_.objectives.size()); ++oi) {
            const SloObjective &o = spec_.objectives[oi];
            std::int64_t good = 0;
            std::int64_t bad = 0;
            if (o.kind == SloObjective::Kind::Latency) {
                if (lat != nullptr) {
                    bad = lat->above;
                    good = lat->count - lat->above;
                }
            } else {
                good = done != nullptr ? done->count : 0;
                bad = err != nullptr ? err->count : 0;
            }

            Cell &c = cell(t, oi);
            c.ring.emplace_back(good, bad);
            while (c.ring.size() > std::max<std::size_t>(
                                       1, o.longWindows))
                c.ring.pop_front();
            c.totalGood += good;
            c.totalBad += bad;

            const double budget =
                std::max(1.0 - o.targetFraction, 1e-9);
            const double burnShort =
                burnOver(c, std::max<std::size_t>(1, o.shortWindows),
                         budget);
            const double burnLong = burnOver(
                c, std::max<std::size_t>(1, o.longWindows), budget);

            const bool above = burnShort >= o.burnThreshold &&
                               burnLong >= o.burnThreshold;
            if (above == c.firing)
                continue;
            c.firing = above;

            AlertEvent a;
            a.at = w.end;
            a.window = w.index;
            a.tenant = t;
            a.objective = oi;
            a.fired = above;
            a.burnShort = burnShort;
            a.burnLong = burnLong;
            alerts_.push_back(a);

            fp_.mix(a.window);
            fp_.mix(a.tenant);
            fp_.mix(a.objective);
            fp_.mix(a.fired ? 1u : 0u);
            fp_.mix(std::uint64_t(std::llround(a.burnShort * 1000.0)));
            fp_.mix(std::uint64_t(std::llround(a.burnLong * 1000.0)));

            for (AlertSink *sink : sinks_)
                sink->onAlert(a);
        }
    }
    (void)ts;
}

} // namespace molecule::obs
