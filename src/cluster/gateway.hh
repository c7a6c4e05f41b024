/**
 * @file
 * ClusterGateway: the cluster front door.
 *
 * Every arrival of the open-loop stream passes three stages:
 *
 *  1. admission — a token bucket polices the aggregate rate; arrivals
 *     that find the bucket empty are *shed* immediately (the client
 *     sees a fast rejection, the cluster sees no work);
 *  2. backlog — admitted arrivals that find every node at its
 *     outstanding cap wait in one bounded FIFO; an arrival that finds
 *     the FIFO full is *dropped* (tail drop: the newest loses);
 *  3. dispatch — a DispatchPolicy (least-outstanding by default)
 *     picks the serving node among those with a free slot; the
 *     invocation then runs the full per-node Molecule pipeline
 *     (scheduling, startup, execution).
 *
 * Shed and dropped arrivals consume no node resources — that is the
 * point of admission control: under saturation the cluster keeps
 * serving the admitted fraction at bounded tail latency instead of
 * letting the backlog (and p999) grow without bound.
 *
 * The DispatchPolicy interface is the seam where a caller wraps or
 * replaces the node pick: policies see arrivals and per-node
 * outstanding work, nothing else, so a policy cannot break
 * determinism.
 */

#ifndef MOLECULE_CLUSTER_GATEWAY_HH
#define MOLECULE_CLUSTER_GATEWAY_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/fleet.hh"
#include "cluster/stats.hh"
#include "load/generator.hh"
#include "sim/spares.hh"
#include "sim/task.hh"

namespace molecule::obs {
class FlightRecorder;
}

namespace molecule::cluster {

/** Gateway admission knobs. */
struct AdmissionOptions
{
    /** Token-bucket refill rate; 0 disables rate policing. */
    double tokensPerSecond = 0.0;
    /** Token-bucket burst allowance. */
    double bucketCapacity = 64.0;
    /** Bounded-backlog capacity (0 = no queue: full cluster drops).
     * An arrival that finds the backlog full is dropped. */
    std::size_t queueCapacity = 1024;
    /** Concurrency cap per node (in-flight invocations). */
    int maxOutstandingPerNode = 64;
    /** Per-invocation resilience knobs forwarded to the nodes. */
    core::InvokeOptions invoke;
};

/**
 * Node-selection seam. Implementations must be pure functions of
 * their inputs and their own deterministic state — no wall clock, no
 * global RNG — so gateway runs stay bit-for-bit replayable.
 */
class DispatchPolicy
{
  public:
    virtual ~DispatchPolicy() = default;

    virtual const char *name() const = 0;

    /**
     * Pick the serving node for @p a. @p outstanding holds per-node
     * in-flight counts; nodes at @p cap are ineligible.
     * @return node index, or -1 when every node is at cap.
     */
    virtual int pick(const load::Arrival &a,
                     std::span<const int> outstanding, int cap) = 0;

    /** Completion feedback (optional; default ignores it). */
    virtual void
    onComplete(const load::Arrival &a, int node)
    {
        (void)a;
        (void)node;
    }
};

/** Join the shortest queue: fewest in-flight wins, lowest id ties. */
class LeastOutstandingPolicy final : public DispatchPolicy
{
  public:
    const char *name() const override { return "least-outstanding"; }

    int pick(const load::Arrival &a, std::span<const int> outstanding,
             int cap) override;
};

/**
 * Everything a ClusterGateway needs, in one validated aggregate —
 * the knobs that used to sprawl across constructor arguments.
 * Pointers are non-owning and must outlive the gateway.
 */
struct GatewayConfig
{
    /** Maps Arrival::fn indices to registered function names. */
    std::vector<std::string> functions;
    /** Rate policing / backlog / concurrency knobs. */
    AdmissionOptions admission;
    /** Node-selection policy; null installs a gateway-owned
     * least-outstanding default. */
    DispatchPolicy *dispatch = nullptr;
    /** Scoreboard every event lands on (required). */
    ClusterStats *stats = nullptr;
    /** Post-mortem bundle dump on Errc::Hang (optional). */
    obs::FlightRecorder *recorder = nullptr;

    /** Structural sanity: required fields present, knobs in range. */
    core::Status validate() const;

    /** The common case: functions + scoreboard, default admission,
     * default (least-outstanding) dispatch. */
    static GatewayConfig forFunctions(std::vector<std::string> fns,
                                      ClusterStats &stats);
};

/**
 * The front door, fed by load::drive (it is an ArrivalSink).
 *
 * @code
 *   cluster::Fleet fleet(sim, fleetSpec);
 *   fleet.registerCpuFunction("helloworld", kinds);
 *   fleet.start();
 *   cluster::ClusterStats stats(registry);
 *   cluster::GatewayConfig cfg =
 *       cluster::GatewayConfig::forFunctions(spec.functions, stats);
 *   cfg.admission.tokensPerSecond = 300.0;
 *   cluster::ClusterGateway gw(fleet, cfg);
 *   load::OpenLoopGenerator gen(spec);
 *   sim.spawn(load::drive(sim, gen, gw));
 *   sim.run();
 * @endcode
 */
class ClusterGateway final : public load::ArrivalSink
{
  public:
    /** Asserts config.validate() — fix the config, not the crash. */
    ClusterGateway(Fleet &fleet, GatewayConfig config);

    void onArrival(const load::Arrival &a) override;

    int outstanding(int node) const
    {
        return outstanding_.at(std::size_t(node));
    }

    /** True when no work is queued or in flight. */
    bool idle() const;

    const AdmissionOptions &options() const { return opts_; }

    DispatchPolicy &policy() { return *policy_; }

    /** Per-dispatch records made so far. One is reused as soon as its
     * invocation completes, so this stays within the in-flight cap,
     * nodes × maxOutstandingPerNode. */
    std::size_t dispatchRecords() const { return dispatches_.size(); }

  private:
    /** One dispatched invocation, from dispatch to completion: the
     * sink its invoke task finishes into. */
    class Dispatch final
        : public sim::detail::ResultSink<
              core::Expected<obs::InvocationRecord>>
    {
      public:
        explicit Dispatch(ClusterGateway &gateway) : gateway_(gateway) {}

        load::Arrival arrival;
        int node = 0;
        const core::FunctionDef *def = nullptr;

      private:
        void
        taskDone(core::Expected<obs::InvocationRecord> &&result) noexcept
            override
        {
            gateway_.complete(*this, result);
        }

        ClusterGateway &gateway_;
    };

    /** Lazy token-bucket refill up to the burst capacity. */
    void refill();

    /** Dispatch queued arrivals while any node has a free slot. */
    void pump();

    /** Start @p a's invocation on @p node; complete() runs as it
     * finishes. */
    void dispatch(const load::Arrival &a, int node);

    /** Score @p d's finished invocation, free its slot and pump. */
    void complete(Dispatch &d,
                  const core::Expected<obs::InvocationRecord> &result);

    /** Definition of function @p fn on @p node, resolved once. */
    const core::FunctionDef *definition(int node, std::uint32_t fn);

    Fleet &fleet_;
    std::vector<std::string> functions_;
    /** defs_[node * functions_.size() + fn]; null until resolved. */
    std::vector<const core::FunctionDef *> defs_;
    AdmissionOptions opts_;
    /** Set only when the config left dispatch null. */
    std::unique_ptr<DispatchPolicy> ownedPolicy_;
    DispatchPolicy *policy_;
    ClusterStats &stats_;
    obs::FlightRecorder *recorder_ = nullptr;

    double tokens_;
    sim::SimTime lastRefill_{0};
    std::deque<load::Arrival> queue_;
    std::vector<int> outstanding_;
    /** Every Dispatch made; a deque, so in-flight ones never move. */
    std::deque<Dispatch> dispatches_;
    /** Dispatches with no invocation in flight (DESIGN.md §4b). */
    sim::Spares<Dispatch *> spareDispatches_;
};

} // namespace molecule::cluster

#endif // MOLECULE_CLUSTER_GATEWAY_HH
