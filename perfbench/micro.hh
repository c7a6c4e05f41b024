/**
 * @file
 * Wall-ns per call of public functions that have no swappable seam,
 * measured by calling them directly on a freshly booted one-node
 * fleet of the workload's shape (or on scratch objects).
 *
 * The policy rows (placement, dispatch, keep-alive score) are also
 * probed in the run itself; these direct calls stand in for a workload
 * that never reaches the seam.
 *
 * Calls that advance simulated time (acquire, exec, transfers) run
 * inside a coroutine driven by Simulation::step(); the kernel's own
 * cost for the events they fire (events x scheduleFireNs) is taken
 * out, so these rows and the ledger's kernel row do not overlap.
 */

#ifndef PERFBENCH_MICRO_HH
#define PERFBENCH_MICRO_HH

#include <cstdint>

#include "workloads.hh"

namespace perfbench {

struct MicroCosts
{
    /** Simulation::schedule + firing one empty callback. */
    double scheduleFireNs = 0.0;
    /** Scheduler::place: view build + policy + digest fold. */
    double schedPlaceNs = 0.0;
    /** The workload's PlacementPolicy::place on a Scheduler::view. */
    double policyPlaceNs = 0.0;
    /** LeastOutstandingPolicy::pick over the fleet's four nodes. */
    double dispatchPickNs = 0.0;
    /** The workload's KeepAliveStrategy::score of one entry. */
    double keepAliveScoreNs = 0.0;
    /** Warm StartupManager::acquire alone (no simulated time). */
    double warmAcquireNs = 0.0;
    /** Warm acquire followed by release into the keep-alive pool. */
    double warmAcquireReleaseNs = 0.0;
    /** StartupManager::acquire with an empty pool (cfork start). */
    double coldAcquireNs = 0.0;
    /** RuncRuntime::invoke of a warm instance. */
    double runcInvokeNs = 0.0;
    /** XpuShimNetwork::transfer, manager PU to a DPU. */
    double transferNs = 0.0;
    /** One XPUcall of a cross-PU xfifo write/read pair (nIPC hop). */
    double xpucallNs = 0.0;
    /** ClusterStats::onCompleted. */
    double statsOnCompletedNs = 0.0;
    /** obs::Histogram::add. */
    double histogramAddNs = 0.0;
    /** obs::Tracer::push into a ring-bounded tracer. */
    double tracerPushNs = 0.0;
};

/** Measure every row once for @p wl (cost model attached to the stats
 * row when the workload goes through the gateway). */
MicroCosts measureMicros(const Workload &wl, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_MICRO_HH
