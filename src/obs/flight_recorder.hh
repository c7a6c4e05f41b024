/**
 * @file
 * Fault-triggered flight recorder: a bounded black box of recent
 * telemetry that dumps a post-mortem bundle when something breaks.
 *
 * The recorder subscribes to TimeSeries window closes and keeps the
 * last N closed windows (copies — the ring survives the collector's
 * own retention policy), plus a bounded tail of recent SLO alerts.
 * When a trigger fires — the fault::Injector on every injected
 * `fault.*` event, the cluster gateway on an Errc::Hang completion,
 * or any caller with a reason string — it freezes the rings, appends
 * the tail of the Tracer's span buffer (when one is attached),
 * and serializes the whole bundle to a deterministic JSON document.
 *
 * Bundles accumulate in memory up to maxDumps (first-triggers win:
 * the interesting dump is the one closest to the root cause, not the
 * cascade that follows); triggerCount() keeps counting past the cap
 * so tests can assert suppression. writeLast() persists the newest
 * bundle for CI artifact upload.
 *
 * Determinism: everything in a bundle derives from sim time, feed
 * order and fixed-format printing — two runs of the same seed produce
 * byte-identical dumps, which is what makes them diffable evidence.
 */

#ifndef MOLECULE_OBS_FLIGHT_RECORDER_HH
#define MOLECULE_OBS_FLIGHT_RECORDER_HH

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "obs/slo.hh"
#include "obs/timeseries.hh"
#include "sim/time.hh"

namespace molecule::obs {

class Tracer;

struct FlightRecorderOptions
{
    /** Closed windows retained in the black-box ring. */
    std::size_t keepWindows = 32;
    /** Newest finished spans included in a bundle (0 = none). */
    std::size_t spanTail = 256;
    /** Recent alert transitions retained for bundles. */
    std::size_t keepAlerts = 64;
    /** Bundles kept; later triggers only count, they don't dump. */
    std::size_t maxDumps = 4;
};

class FlightRecorder final : public WindowListener, public AlertSink
{
  public:
    /** Registers as a window listener of @p ts (which must outlive
     * the recorder). Subscribe to a monitor's alerts separately via
     * SloMonitor::addSink(recorder). */
    explicit FlightRecorder(TimeSeries &ts,
                            FlightRecorderOptions options = {});

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /** Source of the span tail; pass the simulation's tracer. The
     * spans are read (and copied out) only at trigger time. */
    void attachTracer(const Tracer &tracer) { tracer_ = &tracer; }

    void onWindow(const TimeSeries &ts, const WindowRecord &w) override;

    void onAlert(const AlertEvent &a) override;

    /**
     * Freeze the black box into a JSON bundle. @p reason names the
     * cause ("fault.pu_crash", "errc.hang", ...); @p at is the sim
     * instant of the trigger (callers pass their simulation's now()).
     */
    void trigger(std::string_view reason, sim::SimTime at);

    /** Triggers seen, including those suppressed past maxDumps. */
    std::uint64_t triggerCount() const { return triggers_; }

    std::size_t dumpCount() const { return dumps_.size(); }

    /** Bundles in trigger order, each a complete JSON document. */
    const std::vector<std::string> &dumps() const { return dumps_; }

    /** Write the newest bundle to @p path; false if none or I/O
     * failed. */
    bool writeLast(const std::string &path) const;

  private:
    TimeSeries &ts_;
    FlightRecorderOptions opts_;
    const Tracer *tracer_ = nullptr;
    std::deque<WindowRecord> ring_;
    std::deque<AlertEvent> alerts_;
    std::vector<std::string> dumps_;
    std::uint64_t triggers_ = 0;
};

} // namespace molecule::obs

#endif // MOLECULE_OBS_FLIGHT_RECORDER_HH
