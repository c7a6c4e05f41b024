/**
 * @file
 * Windowed telemetry: registry snapshots and labeled series in fixed
 * sim-time windows.
 *
 * ClusterStats answers "what happened over the run"; the TimeSeries
 * answers "what happened in second N, to tenant T, on node K" — the
 * time-resolved view the SLO engine, the flight recorder and future
 * scheduling policies read. Two feeds land in the same window grid:
 *
 *  - *Labeled series* created via counterId()/gaugeId()/histogramId()
 *    with optional tenant and node label dimensions, fed directly by
 *    the gateway and fleet (per-tenant completions and latency,
 *    per-node execution, queue depth).
 *  - *Watched registries* (watch()): at every window close, each
 *    counter/gauge/histogram registered in an obs::Registry is
 *    snapshotted and the delta since the previous close is emitted —
 *    counters as window deltas, gauges as last value, histograms as
 *    per-window p50/p99 from bucket deltas (HistogramSnapshot::minus,
 *    never a re-walk of the full histogram).
 *
 * Window model: the grid is aligned to sim time zero with a fixed
 * width; a sample at instant t belongs to window floor(t / width).
 * Windows close lazily — every feed call first closes any window the
 * clock has moved past — so the collector schedules no events of its
 * own and cannot perturb the simulation (the golden digests hold with
 * a TimeSeries attached, enforced by test). flush() closes the final
 * partial window at end of run so window sums equal run totals
 * exactly (count conservation, enforced by tools/slo_report --check).
 *
 * Determinism: windows and points are products of sim time and feed
 * order only; the running digest() is bit-identical serial, re-run,
 * or on any sim::SweepRunner thread. Listeners (SloMonitor,
 * FlightRecorder) fire at window close in registration order, *inside*
 * the simulation instant that closed the window — a policy reacting
 * to an alert schedules follow-up events at deterministic times.
 *
 * Runtime gate: producers hold a `TimeSeries *` that stays null
 * unless a collector is attached, so the feed paths cost one branch
 * and the golden digests hold with or without one.
 */

#ifndef MOLECULE_OBS_TIMESERIES_HH
#define MOLECULE_OBS_TIMESERIES_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/time.hh"

namespace molecule::obs {

class TimeSeries;

/** What a labeled series accumulates. */
enum class SeriesKind : std::uint8_t { Counter, Gauge, Histogram };

const char *toString(SeriesKind k);

/**
 * Identity of one series: metric name plus optional label dimensions.
 * Label cardinality rule (DESIGN.md): labels are small dense integer
 * ids (tenant index, node index), never free-form strings — the
 * series population must stay O(tenants x nodes), not O(requests).
 */
struct SeriesDesc
{
    std::string metric;
    /** Tenant label (-1: unlabeled). */
    std::int32_t tenant = -1;
    /** Node label (-1: unlabeled). */
    std::int32_t node = -1;
    SeriesKind kind = SeriesKind::Counter;
    /**
     * Histogram only: samples above this value are counted into
     * WindowPoint::above at window close (0 = disabled). Set by the
     * SLO engine for its latency thresholds.
     */
    double threshold = 0.0;
};

/** One series' contribution to one closed window. */
struct WindowPoint
{
    /** Index into TimeSeries::series(). */
    std::uint32_t series = 0;
    SeriesKind kind = SeriesKind::Counter;
    /** Counter: window delta. Histogram: window sample count. */
    std::int64_t count = 0;
    /** Gauge: last value set in (or carried into) the window. */
    double value = 0.0;
    /** Gauge: maximum value set within the window. */
    double maxValue = 0.0;
    /** Histogram: sum of the window's samples. */
    double sum = 0.0;
    /** Histogram: percentiles of the window's bucket delta. */
    double p50 = 0.0;
    double p99 = 0.0;
    /** Histogram: window samples above the series threshold. */
    std::int64_t above = 0;
};

/** One closed window of the grid. */
struct WindowRecord
{
    /** Window number: start == index * width. */
    std::uint64_t index = 0;
    sim::SimTime start;
    sim::SimTime end;
    /** Points sorted by series id; series with no activity in the
     * window emit nothing (gauges emit every window once touched). */
    std::vector<WindowPoint> points;

    /** Point of @p series, or nullptr (binary search). */
    const WindowPoint *find(std::uint32_t series) const;
};

/** Window-close subscriber (SLO engine, flight recorder, policies). */
class WindowListener
{
  public:
    virtual ~WindowListener() = default;

    /** Called at the sim instant that closed @p w, oldest first. */
    virtual void onWindow(const TimeSeries &ts,
                          const WindowRecord &w) = 0;
};

struct TimeSeriesOptions
{
    /** Window width on the sim-time grid. */
    sim::SimTime window = sim::SimTime::seconds(1);
    /** Closed windows retained for export (0 = all). The digest and
     * listeners always see every window regardless. */
    std::size_t keepWindows = 0;
};

/**
 * The windowed collector. One per Simulation replica, like Tracer.
 */
class TimeSeries
{
  public:
    explicit TimeSeries(sim::Simulation &sim,
                        TimeSeriesOptions options = {});

    TimeSeries(const TimeSeries &) = delete;
    TimeSeries &operator=(const TimeSeries &) = delete;

    /** @name Series creation (idempotent: same key, same id) */
    ///@{
    std::uint32_t counterId(std::string_view metric, int tenant = -1,
                            int node = -1);

    std::uint32_t gaugeId(std::string_view metric, int tenant = -1,
                          int node = -1);

    std::uint32_t histogramId(std::string_view metric, int tenant = -1,
                              int node = -1);
    ///@}

    /** Arm the threshold counter of a histogram series. */
    void setThreshold(std::uint32_t id, double v);

    /** @name Feeds (stamped with the simulation clock) */
    ///@{
    void count(std::uint32_t id, std::int64_t by = 1);

    void set(std::uint32_t id, double v);

    void observe(std::uint32_t id, double v);

    void
    observeTime(std::uint32_t id, sim::SimTime t)
    {
        observe(id, t.toMicroseconds());
    }
    ///@}

    /**
     * Snapshot every metric of @p reg at each window close and emit
     * the deltas as unlabeled series. @p reg must outlive this
     * collector; metrics appearing later are picked up as they do.
     */
    void watch(const Registry &reg);

    /** Subscribe to window closes (notification in add order). */
    void addListener(WindowListener *l);

    /**
     * Close the in-progress window (end of run). Without a flush the
     * tail of the stream — everything after the last full window
     * boundary — would be invisible, and window sums would not
     * conserve against run totals.
     */
    void flush();

    /** @name Introspection */
    ///@{
    const SeriesDesc &series(std::uint32_t id) const
    {
        return series_[id];
    }

    std::uint32_t seriesCount() const
    {
        return std::uint32_t(series_.size());
    }

    /** Retained closed windows, oldest first (ring per options). */
    const std::deque<WindowRecord> &windows() const { return windows_; }

    /** All-time closed-window count (ring drops don't subtract). */
    std::uint64_t windowsClosed() const { return closed_; }

    sim::SimTime windowWidth() const { return opts_.window; }

    /** Cumulative counter value of @p id (conservation checks). */
    std::int64_t counterValue(std::uint32_t id) const
    {
        const State &s = state_[id];
        return s.extCounter ? s.extCounter->value() : s.counter;
    }

    double gaugeValue(std::uint32_t id) const
    {
        const State &s = state_[id];
        return s.extGauge ? s.extGauge->value() : s.gaugeLast;
    }

    /** Cumulative distribution of a histogram series. */
    HistogramSnapshot histogramTotal(std::uint32_t id) const
    {
        const State &s = state_[id];
        return s.extHist ? s.extHist->snapshotBuckets()
                         : s.hist.snapshotBuckets();
    }

    /**
     * Order-sensitive FNV-1a digest over every closed window (index,
     * series identity, point payloads). The alert goldens pin this
     * next to the SloMonitor's alert digest.
     */
    std::uint64_t digest() const { return fp_.digest(); }
    ///@}

  private:
    /** Cumulative state of one series. Direct feeds accumulate into
     * the members; watched-registry series instead adopt a pointer to
     * the registry's (address-stable) metric and read it at close. */
    struct State
    {
        std::int64_t counter = 0;
        std::int64_t counterBase = 0;
        double gaugeLast = 0.0;
        double gaugeMax = 0.0;
        bool gaugeTouched = false;
        Histogram hist;
        HistogramSnapshot histBase;
        const Counter *extCounter = nullptr;
        const Gauge *extGauge = nullptr;
        const Histogram *extHist = nullptr;
    };

    /** Ordered key so series ids and iteration are deterministic. */
    struct Key
    {
        std::string metric;
        std::int32_t tenant;
        std::int32_t node;

        bool
        operator<(const Key &o) const
        {
            if (metric != o.metric)
                return metric < o.metric;
            if (tenant != o.tenant)
                return tenant < o.tenant;
            return node < o.node;
        }
    };

    std::uint32_t makeSeries(std::string_view metric, int tenant,
                             int node, SeriesKind kind);

    /** Close every window the clock has moved past. */
    void roll();

    /** Close [winStart, winStart + width) and advance the grid. */
    void closeWindow();

    /** Emit the window-delta point of series @p id, if any. */
    void emitPoint(std::uint32_t id, std::vector<WindowPoint> &out);

    /** Adopt any new metrics of one watched registry. */
    void emitRegistry(const Registry &reg);

    void mixWindow(const WindowRecord &w);

    sim::Simulation &sim_;
    TimeSeriesOptions opts_;
    /** Start of the in-progress window (grid-aligned). */
    sim::SimTime winStart_{0};
    std::uint64_t closed_ = 0;

    std::vector<SeriesDesc> series_;
    std::vector<State> state_;
    std::map<Key, std::uint32_t> index_;

    std::vector<const Registry *> watched_;

    std::deque<WindowRecord> windows_;
    std::vector<WindowListener *> listeners_;
    sim::Fingerprint fp_;
};

} // namespace molecule::obs

#endif // MOLECULE_OBS_TIMESERIES_HH
