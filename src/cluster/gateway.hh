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
 *     outstanding cap wait in one bounded FIFO; overflow *drops*
 *     per the configured policy (newest or oldest first);
 *  3. dispatch — a pluggable DispatchPolicy picks the serving node
 *     among those with a free slot; the invocation then runs the full
 *     per-node Molecule pipeline (scheduling, startup, execution).
 *
 * Shed and dropped arrivals consume no node resources — that is the
 * point of admission control: under saturation the cluster keeps
 * serving the admitted fraction at bounded tail latency instead of
 * letting the backlog (and p999) grow without bound.
 *
 * The DispatchPolicy interface is the seam where cluster-level
 * scheduling research plugs in (ROADMAP item "scheduling-policy
 * comparison harness"): policies see arrivals and per-node outstanding
 * work, nothing else, so new policies cannot break determinism.
 */

#ifndef MOLECULE_CLUSTER_GATEWAY_HH
#define MOLECULE_CLUSTER_GATEWAY_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/fleet.hh"
#include "cluster/stats.hh"
#include "load/generator.hh"

namespace molecule::obs {
class FlightRecorder;
}

namespace molecule::cluster {

/** What the bounded queue evicts when it overflows. */
enum class DropPolicy {
    /** Reject the arriving request (classic tail drop). */
    DropNewest,
    /** Evict the stalest queued request to make room. */
    DropOldest,
};

const char *toString(DropPolicy p);

/** Gateway admission knobs. */
struct AdmissionOptions
{
    /** Token-bucket refill rate; 0 disables rate policing. */
    double tokensPerSecond = 0.0;
    /** Token-bucket burst allowance. */
    double bucketCapacity = 64.0;
    /** Bounded-backlog capacity (0 = no queue: full cluster drops). */
    std::size_t queueCapacity = 1024;
    DropPolicy dropPolicy = DropPolicy::DropNewest;
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

/** Rotate through the nodes, skipping full ones. */
class RoundRobinPolicy final : public DispatchPolicy
{
  public:
    const char *name() const override { return "round-robin"; }

    int pick(const load::Arrival &a, std::span<const int> outstanding,
             int cap) override;

  private:
    std::size_t cursor_ = 0;
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
 * Warm affinity: keep a function on the node that served it last so
 * its warm instances (cfork templates, keep-alive pools) get reused;
 * fall back to least-outstanding when the home node is full — and
 * adopt the fallback as the new home (the warm pool follows).
 */
class WarmAffinityPolicy final : public DispatchPolicy
{
  public:
    const char *name() const override { return "warm-affinity"; }

    int pick(const load::Arrival &a, std::span<const int> outstanding,
             int cap) override;

  private:
    /** function index -> home node. */
    std::map<std::uint32_t, int> home_;
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

    std::size_t queueDepth() const { return queue_.size(); }

    int outstanding(int node) const
    {
        return outstanding_.at(std::size_t(node));
    }

    /** True when no work is queued or in flight. */
    bool idle() const;

    const AdmissionOptions &options() const { return opts_; }

    DispatchPolicy &policy() { return *policy_; }

  private:
    /** Lazy token-bucket refill up to the burst capacity. */
    void refill();

    /** Dispatch queued arrivals while any node has a free slot. */
    void pump();

    void dispatch(const load::Arrival &a, int node);

    /** Serve one invocation on @p node (copies its arguments). */
    sim::Task<> serve(load::Arrival a, int node);

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
};

} // namespace molecule::cluster

#endif // MOLECULE_CLUSTER_GATEWAY_HH
