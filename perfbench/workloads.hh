/**
 * @file
 * The fleet benchmark's three workloads and the fleet they run on.
 *
 * Every workload drives the same 4-node fleet (one host CPU plus two
 * BlueField-2 DPUs per node) with a seeded open-loop Poisson stream.
 * The stream is the only input the simulator sees; the seed picks it.
 *
 *  - warm_saturated : the policy_report saturated rung. Four functions,
 *                     two Zipf tenants, 768/s behind an open gateway.
 *                     Nearly every request is a warm hit, so host time
 *                     goes to the per-request control path.
 *  - cold_churn     : sixteen functions at near-uniform popularity with
 *                     tiny warm pools and greedy-dual keep-alive, 400/s.
 *                     Two thirds of requests cold-start and evict.
 *  - chain_nipc     : Alexa (5 functions) and MapReduce (3) chains at
 *                     100/s, spread round-robin over the nodes through
 *                     Molecule::invokeChain, one PU per chain node in
 *                     turn, so edges cross PUs over XPU-FIFOs (nIPC).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cost.hh"
#include "cluster/fleet.hh"
#include "cluster/gateway.hh"
#include "core/dag.hh"
#include "load/spec.hh"

namespace perfbench {

using namespace molecule;

/** How arrivals reach the fleet. */
enum class Front : std::uint8_t {
    /** Through a ClusterGateway (admission, backlog, dispatch). */
    Gateway,
    /** Through the benchmark's own round-robin chain front door. */
    Chains,
};

struct Workload
{
    const char *name;
    Front front;
    /** Catalog CPU functions registered on every node. */
    std::vector<std::string> functions;
    /** What Arrival::fn indexes: function names (gateway) or chain
     * names (chains). */
    std::vector<std::string> streamEntries;
    /** Tenant mix. permuteSalt here is the tenant's ranking key: the
     * stream's salt is seed ^ key, so the generator ranks the catalog
     * the same way for every seed (the popular functions are part of
     * the workload; the seed only draws the stream). */
    std::vector<load::TenantSpec> tenants;
    double ratePerSecond;
    /** Sim seconds run before the measured window opens. */
    double warmupSeconds;
    /** Sim seconds of arrivals inside the measured window. */
    double measuredSeconds;
    core::PlacementConfig placement;
    core::KeepAliveConfig keepAlive;
    std::size_t warmCapacity;
    std::size_t globalWarmCapacityPerPu;
};

/** The workload called @p name, or null. */
const Workload *findWorkload(const std::string &name);

/** Names of every workload, in definition order. */
std::vector<std::string> workloadNames();

/** The workload's stream for @p seed (warm-up plus measured window). */
load::TraceSpec traceSpec(const Workload &wl, std::uint64_t seed);

/** Fleet shape shared by every workload (policies from @p wl). */
cluster::FleetSpec fleetSpec(const Workload &wl);

/** Register @p wl's functions on every node of @p fleet. */
void registerFunctions(const Workload &wl, cluster::Fleet &fleet);

/** Gateway admission: open (no rate policing), queue 2048, cap 96
 * in flight per node, two attempts per invocation. */
cluster::AdmissionOptions admission();

/** Chain spec and per-node PU placement of stream entry @p index. */
struct ChainPlan
{
    core::ChainSpec spec;
    std::vector<int> placement;
};

/** One plan per stream entry: chain node i runs on general PU
 * i mod (number of general PUs), so consecutive nodes sit on
 * different PUs. */
std::vector<ChainPlan> chainPlans(const Workload &wl,
                                  core::Molecule &node);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
