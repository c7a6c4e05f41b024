#include "obs/timeseries.hh"

#include <algorithm>

namespace molecule::obs {

const char *
toString(SeriesKind k)
{
    switch (k) {
    case SeriesKind::Counter:
        return "counter";
    case SeriesKind::Gauge:
        return "gauge";
    case SeriesKind::Histogram:
        return "histogram";
    }
    return "?";
}

const WindowPoint *
WindowRecord::find(std::uint32_t series) const
{
    const auto it = std::lower_bound(
        points.begin(), points.end(), series,
        [](const WindowPoint &p, std::uint32_t id) {
            return p.series < id;
        });
    if (it == points.end() || it->series != series)
        return nullptr;
    return &*it;
}

namespace {

/** FNV-1a over the series identity (digest stability across id
 * renumbering: the hash names the series, not its creation order). */
std::uint64_t
keyHash(const SeriesDesc &d)
{
    std::uint64_t h = 14695981039346656037ULL;
    const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    for (const char c : d.metric)
        mix(std::uint64_t(static_cast<unsigned char>(c)));
    mix(std::uint64_t(std::uint32_t(d.tenant)) + 1);
    mix(std::uint64_t(std::uint32_t(d.node)) + 1);
    return h;
}

} // namespace

TimeSeries::TimeSeries(sim::Simulation &sim, TimeSeriesOptions options)
    : sim_(sim), opts_(options)
{
    if (opts_.window.raw() <= 0)
        opts_.window = sim::SimTime::seconds(1);
    // Grid-aligned start: the window holding the current instant.
    const std::int64_t w = opts_.window.raw();
    winStart_ = sim::SimTime((sim_.now().raw() / w) * w);
}

std::uint32_t
TimeSeries::makeSeries(std::string_view metric, int tenant, int node,
                       SeriesKind kind)
{
    Key key{std::string(metric), tenant, node};
    const auto it = index_.find(key);
    if (it != index_.end())
        return it->second;
    const auto id = std::uint32_t(series_.size());
    SeriesDesc d;
    d.metric = key.metric;
    d.tenant = tenant;
    d.node = node;
    d.kind = kind;
    series_.push_back(std::move(d));
    state_.emplace_back();
    index_.emplace(std::move(key), id);
    return id;
}

std::uint32_t
TimeSeries::counterId(std::string_view metric, int tenant, int node)
{
    return makeSeries(metric, tenant, node, SeriesKind::Counter);
}

std::uint32_t
TimeSeries::gaugeId(std::string_view metric, int tenant, int node)
{
    return makeSeries(metric, tenant, node, SeriesKind::Gauge);
}

std::uint32_t
TimeSeries::histogramId(std::string_view metric, int tenant, int node)
{
    return makeSeries(metric, tenant, node, SeriesKind::Histogram);
}

void
TimeSeries::setThreshold(std::uint32_t id, double v)
{
    series_[id].threshold = v;
}

void
TimeSeries::count(std::uint32_t id, std::int64_t by)
{
    roll();
    state_[id].counter += by;
}

void
TimeSeries::set(std::uint32_t id, double v)
{
    roll();
    State &s = state_[id];
    if (!s.gaugeTouched) {
        s.gaugeTouched = true;
        s.gaugeMax = v;
    } else {
        s.gaugeMax = std::max(s.gaugeMax, v);
    }
    s.gaugeLast = v;
}

void
TimeSeries::observe(std::uint32_t id, double v)
{
    roll();
    state_[id].hist.add(v);
}

void
TimeSeries::watch(const Registry &reg)
{
    watched_.push_back(&reg);
}

void
TimeSeries::addListener(WindowListener *l)
{
    listeners_.push_back(l);
}

void
TimeSeries::roll()
{
    while (sim_.now() >= winStart_ + opts_.window)
        closeWindow();
}

void
TimeSeries::flush()
{
    roll();
    closeWindow();
}

void
TimeSeries::emitRegistry(const Registry &reg)
{
    // Adopt any metric not yet seen; Registry nodes are address-
    // stable, so the adopted pointer stays valid for the registry's
    // life and window deltas read it directly (no copy per close).
    for (const auto &[name, c] : reg.counters()) {
        State &s = state_[counterId(name)];
        if (s.extCounter == nullptr)
            s.extCounter = &c;
    }
    for (const auto &[name, g] : reg.gauges()) {
        State &s = state_[gaugeId(name)];
        if (s.extGauge == nullptr) {
            s.extGauge = &g;
            s.gaugeTouched = true;
        }
    }
    for (const auto &[name, h] : reg.histograms()) {
        State &s = state_[histogramId(name)];
        if (s.extHist == nullptr)
            s.extHist = &h;
    }
}

void
TimeSeries::emitPoint(std::uint32_t id, std::vector<WindowPoint> &out)
{
    const SeriesDesc &d = series_[id];
    State &s = state_[id];
    switch (d.kind) {
    case SeriesKind::Counter: {
        const std::int64_t cur =
            s.extCounter ? s.extCounter->value() : s.counter;
        const std::int64_t delta = cur - s.counterBase;
        s.counterBase = cur;
        if (delta == 0)
            return;
        WindowPoint p;
        p.series = id;
        p.kind = d.kind;
        p.count = delta;
        out.push_back(p);
        return;
    }
    case SeriesKind::Gauge: {
        if (s.extGauge != nullptr) {
            // Watched gauges are sampled at close: last == max.
            s.gaugeLast = s.extGauge->value();
            s.gaugeMax = s.gaugeLast;
        }
        if (!s.gaugeTouched)
            return;
        WindowPoint p;
        p.series = id;
        p.kind = d.kind;
        p.value = s.gaugeLast;
        p.maxValue = s.gaugeMax;
        out.push_back(p);
        // The next window inherits the level, not the excursion.
        s.gaugeMax = s.gaugeLast;
        return;
    }
    case SeriesKind::Histogram: {
        const HistogramSnapshot snap = s.extHist
                                           ? s.extHist->snapshotBuckets()
                                           : s.hist.snapshotBuckets();
        HistogramSnapshot delta = snap.minus(s.histBase);
        s.histBase = snap;
        if (delta.count == 0)
            return;
        WindowPoint p;
        p.series = id;
        p.kind = d.kind;
        p.count = std::int64_t(delta.count);
        p.sum = delta.sum;
        p.p50 = delta.percentile(50);
        p.p99 = delta.percentile(99);
        if (d.threshold > 0.0)
            p.above = std::int64_t(delta.countAbove(d.threshold));
        out.push_back(p);
        return;
    }
    }
}

void
TimeSeries::closeWindow()
{
    for (const Registry *reg : watched_)
        emitRegistry(*reg);

    WindowRecord w;
    w.index = std::uint64_t(winStart_.raw() / opts_.window.raw());
    w.start = winStart_;
    w.end = winStart_ + opts_.window;
    const auto n = std::uint32_t(series_.size());
    for (std::uint32_t id = 0; id < n; ++id)
        emitPoint(id, w.points);

    mixWindow(w);
    windows_.push_back(std::move(w));
    ++closed_;
    winStart_ = winStart_ + opts_.window;

    // Listeners run inside the closing instant, on the retained copy.
    for (WindowListener *l : listeners_)
        l->onWindow(*this, windows_.back());

    if (opts_.keepWindows > 0)
        while (windows_.size() > opts_.keepWindows)
            windows_.pop_front();
}

void
TimeSeries::mixWindow(const WindowRecord &w)
{
    fp_.mix(w.index);
    fp_.mix(std::uint64_t(w.points.size()));
    for (const WindowPoint &p : w.points) {
        fp_.mix(keyHash(series_[p.series]));
        fp_.mix(std::uint64_t(p.kind));
        fp_.mix(std::uint64_t(p.count));
        fp_.mixDouble(p.value);
        fp_.mixDouble(p.maxValue);
        fp_.mixDouble(p.sum);
        fp_.mixDouble(p.p50);
        fp_.mixDouble(p.p99);
        fp_.mix(std::uint64_t(p.above));
    }
}

} // namespace molecule::obs
