/**
 * @file
 * Scenario: the one cluster-scenario harness.
 *
 * A ScenarioSpec describes a whole open-loop cluster run: the fleet,
 * the seeded arrival stream and the gateway's admission knobs, plus
 * three optional attachments:
 *
 *  - the $-cost model (ClusterStats then costs every completion);
 *  - the telemetry plane: 1 s TimeSeries windows, an SloMonitor over
 *    the given objectives and a flight recorder behind it;
 *  - a fault InjectionPlan, armed on a fault plane and a tracer that
 *    every node shares.
 *
 * Building a Scenario boots the fleet (every stream function on host
 * CPUs and DPUs, least-outstanding dispatch) and wires stats,
 * attachments, gateway and generator in one fixed order; drive() runs
 * the stream to completion; result() folds the scoreboard and the
 * digests. Build and drive are separate steps so a bench can time the
 * drive alone: no wall clock enters src/.
 *
 * @code
 *   cluster::ScenarioSpec spec;
 *   spec.fleet.nodes = 4;
 *   spec.trace = trace;              // its seed seeds the simulation
 *   spec.admission.tokensPerSecond = 300.0;
 *   const cluster::ScenarioResult r = cluster::run(spec);
 * @endcode
 */

#ifndef MOLECULE_CLUSTER_SCENARIO_HH
#define MOLECULE_CLUSTER_SCENARIO_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/gateway.hh"
#include "fault/plan.hh"
#include "load/spec.hh"
#include "obs/slo.hh"

namespace molecule::obs {
class FlightRecorder;
class TimeSeries;
} // namespace molecule::obs

namespace molecule::cluster {

/** One cluster run, as a value. */
struct ScenarioSpec
{
    FleetSpec fleet;
    /** The open-loop stream; its seed also seeds the simulation. */
    load::TraceSpec trace;
    AdmissionOptions admission;
    /** Attach the default price card (moves the stats digest domain). */
    bool cost = false;
    /** Attach the telemetry plane with these objectives; the tenant
     * count is taken from the trace. */
    std::optional<obs::SloSpec> telemetry;
    /** Arm this plan on a fault plane and tracer shared by every
     * node (a PU index fails on every node at once). */
    std::optional<fault::InjectionPlan> faults;
};

/** Everything a replay must reproduce bit for bit. */
struct ScenarioDigests
{
    std::uint64_t stats = 0;
    /** Placement and eviction digests folded over the nodes. */
    std::uint64_t place = 0;
    std::uint64_t evict = 0;
    /** Window and alert digests; 0 without telemetry. */
    std::uint64_t windows = 0;
    std::uint64_t alerts = 0;

    bool operator==(const ScenarioDigests &) const = default;
};

struct ScenarioResult
{
    ClusterSummary summary;
    ScenarioDigests digests;
    /** Arrivals the generator emitted. */
    std::uint64_t emitted = 0;
};

/** A built scenario: a booted fleet with everything wired to it. */
class Scenario
{
  public:
    explicit Scenario(const ScenarioSpec &spec);
    ~Scenario();

    Scenario(const Scenario &) = delete;
    Scenario &operator=(const Scenario &) = delete;

    /** Run the whole stream and let the fleet drain. Once only. */
    void drive();

    /** Scoreboard and digests of the drive so far. */
    ScenarioResult result();

    /** @name The telemetry plane (the spec must attach it) */
    ///@{
    obs::TimeSeries &timeSeries();

    obs::SloMonitor &monitor();

    obs::FlightRecorder &recorder();
    ///@}

  private:
    struct Parts;
    std::unique_ptr<Parts> parts_;
};

/** Build, drive and summarize @p spec. */
ScenarioResult run(const ScenarioSpec &spec);

/** Every spec run serially, re-run, and run on a SweepRunner. */
struct Replays
{
    std::vector<ScenarioResult> serial;
    std::vector<ScenarioDigests> rerun;
    std::vector<ScenarioDigests> swept;

    /** True when spec @p i's three runs agree on every digest. */
    bool
    agree(std::size_t i) const
    {
        return serial[i].digests == rerun[i] &&
               serial[i].digests == swept[i];
    }
};

Replays replay(const std::vector<ScenarioSpec> &specs);

} // namespace molecule::cluster

#endif // MOLECULE_CLUSTER_SCENARIO_HH
