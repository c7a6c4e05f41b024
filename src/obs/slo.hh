/**
 * @file
 * Per-tenant SLO engine with multi-window burn-rate alerts.
 *
 * An SloObjective is declarative: "fraction of requests under X us
 * must be >= target" (latency) or "error fraction must stay within
 * 1 - target" (error rate). The target leaves an *error budget* of
 * 1 - target; the *burn rate* of a window set is
 *
 *     burn = (bad / total) / (1 - target)
 *
 * — burn 1.0 spends the budget exactly at the sustainable rate, burn
 * N spends it N times too fast. Following the multi-window burn-rate
 * pattern (Google SRE workbook, ch. 5), an alert fires only when BOTH
 * a short window (fast signal, noisy alone) and a long window
 * (evidence the burn is sustained) exceed the objective's threshold,
 * and resolves when both drop back below — windows of calm traffic
 * cannot flap the alert.
 *
 * The monitor is a WindowListener: it evaluates at every TimeSeries
 * window close, *inside the simulation*, so AlertSinks (future
 * keep-alive/placement policies, the flight recorder, tests) observe
 * alerts at deterministic sim instants and may schedule reactions.
 * The alert stream folds into an order-sensitive digest that the
 * golden tests pin serial vs rerun vs SweepRunner.
 */

#ifndef MOLECULE_OBS_SLO_HH
#define MOLECULE_OBS_SLO_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/timeseries.hh"
#include "sim/stats.hh"
#include "sim/time.hh"

namespace molecule::obs {

/** One declarative objective, evaluated per tenant per window. */
struct SloObjective
{
    enum class Kind : std::uint8_t {
        /** Good = samples at or under thresholdUs. */
        Latency,
        /** Good = completions; bad = typed errors. */
        ErrorRate,
    };

    std::string name;
    Kind kind = Kind::Latency;
    /** Latency objectives: the "good" threshold, microseconds. */
    double thresholdUs = 20'000.0;
    /** Target good fraction; the error budget is 1 - target. */
    double targetFraction = 0.99;
    /** Both burn rates must reach this to fire (and both must drop
     * below it to resolve). */
    double burnThreshold = 4.0;
    /** Fast-signal window count. */
    std::size_t shortWindows = 3;
    /** Sustained-evidence window count (ring capacity). */
    std::size_t longWindows = 12;
};

/** Objectives per tenant. The monitor reads ClusterStats' per-tenant
 * series (tenant.e2e_us, tenant.completed, tenant.errors). */
struct SloSpec
{
    std::vector<SloObjective> objectives;
    /** Tenants to track: labels [0, tenants). */
    std::uint32_t tenants = 1;
};

/** One alert-state transition. */
struct AlertEvent
{
    /** Sim instant of the window close that transitioned the state. */
    sim::SimTime at;
    /** Window index that tipped the decision. */
    std::uint64_t window = 0;
    std::uint32_t tenant = 0;
    /** Index into SloSpec::objectives. */
    std::uint32_t objective = 0;
    /** true = fired, false = resolved. */
    bool fired = true;
    double burnShort = 0.0;
    double burnLong = 0.0;
};

/** Alert subscriber (policies, recorders, tests). */
class AlertSink
{
  public:
    virtual ~AlertSink() = default;

    virtual void onAlert(const AlertEvent &a) = 0;
};

/**
 * The evaluator. Construct after the producer has attached its
 * series (ids are created here for every (tenant, objective) pair —
 * creation is idempotent, so order against the producer is free).
 */
class SloMonitor final : public WindowListener
{
  public:
    /** Registers itself as a listener of @p ts; @p ts must outlive
     * the monitor. Latency objectives arm their threshold on the
     * tenant latency series (last objective wins per series). */
    SloMonitor(TimeSeries &ts, SloSpec spec);

    SloMonitor(const SloMonitor &) = delete;
    SloMonitor &operator=(const SloMonitor &) = delete;

    void addSink(AlertSink *sink);

    void onWindow(const TimeSeries &ts, const WindowRecord &w) override;

    const SloSpec &spec() const { return spec_; }

    /** Every transition so far, in emission order. */
    const std::vector<AlertEvent> &alerts() const { return alerts_; }

    bool
    firing(std::uint32_t tenant, std::uint32_t objective) const
    {
        return cell(tenant, objective).firing;
    }

    /** All-time good/bad totals of one (tenant, objective) pair. */
    struct Totals
    {
        std::int64_t good = 0;
        std::int64_t bad = 0;
    };

    Totals
    totals(std::uint32_t tenant, std::uint32_t objective) const
    {
        const Cell &c = cell(tenant, objective);
        return {c.totalGood, c.totalBad};
    }

    /** Transitions emitted (alerts().size(), survives no retention
     * policy since alerts are unbounded by design: transitions are
     * rare by construction of the dual-window rule). */
    std::size_t alertCount() const { return alerts_.size(); }

    /**
     * Order-sensitive FNV-1a digest of the alert stream (window,
     * tenant, objective, direction, milli-burn rates) — the golden
     * the determinism tests pin across serial/rerun/SweepRunner.
     */
    std::uint64_t alertDigest() const { return fp_.digest(); }

  private:
    /** Rolling per-window (good, bad) history of one pair. */
    struct Cell
    {
        std::deque<std::pair<std::int64_t, std::int64_t>> ring;
        std::int64_t totalGood = 0;
        std::int64_t totalBad = 0;
        bool firing = false;
    };

    const Cell &
    cell(std::uint32_t tenant, std::uint32_t objective) const
    {
        return cells_[tenant * spec_.objectives.size() + objective];
    }

    Cell &
    cell(std::uint32_t tenant, std::uint32_t objective)
    {
        return cells_[tenant * spec_.objectives.size() + objective];
    }

    /** Burn rate over the trailing @p n ring entries. */
    static double burnOver(const Cell &c, std::size_t n, double budget);

    TimeSeries &ts_;
    SloSpec spec_;
    /** Per-tenant series ids: [tenant] -> id. */
    std::vector<std::uint32_t> latencyIds_;
    std::vector<std::uint32_t> completedIds_;
    std::vector<std::uint32_t> errorIds_;
    std::vector<Cell> cells_;
    std::vector<AlertSink *> sinks_;
    std::vector<AlertEvent> alerts_;
    sim::Fingerprint fp_;
};

} // namespace molecule::obs

#endif // MOLECULE_OBS_SLO_HH
