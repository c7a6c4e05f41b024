/**
 * @file
 * Containers: namespaces + cgroups, with the cpuset contention model.
 *
 * cfork's ablation (Fig 11-a) isolates three container costs:
 *  - starting a fresh container (mounts, pivot_root, hooks);
 *  - reconfiguring a forked child's namespaces into the container;
 *  - attaching the child to the container's cpuset cgroup. The stock
 *    kernel serializes cpuset updates behind a long-held semaphore;
 *    the paper's patch replaces it with a mutex ("Cpuset opt"). Both
 *    are modelled with a real lock so concurrent startups contend.
 */

#ifndef MOLECULE_OS_CONTAINER_HH
#define MOLECULE_OS_CONTAINER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hh"
#include "os/process.hh"
#include "sim/spares.hh"
#include "sim/sync.hh"

namespace molecule::os {

class LocalOs;

/** Which cpuset locking discipline the kernel uses (§6.4). */
enum class CpusetMode { StockSemaphore, MutexPatch };

/** Lifecycle state of a container. */
enum class ContainerState { Created, Running, Stopped };

/**
 * One container: identity plus the processes settled inside it.
 * Construction is only via ContainerManager.
 */
class Container
{
  public:
    const std::string &id() const { return id_; }

    ContainerState state() const { return state_; }

    const std::vector<Process *> &processes() const { return procs_; }

  private:
    friend class ContainerManager;

    std::string id_;
    ContainerState state_ = ContainerState::Created;
    std::vector<Process *> procs_;
    /** In-flight attaches and deletes that touch the record again. */
    int holds_ = 0;
    /** Dropped by retire(): never reused. */
    bool retired_ = false;
};

/**
 * Per-OS container runtime state: creation, process attach (namespace
 * reconfig + cpuset attach under the kernel lock), destruction.
 */
class ContainerManager
{
  public:
    explicit ContainerManager(LocalOs &os);

    /** Kernel configuration knob (the Fig 11-a "Cpuset opt" patch). */
    void setCpusetMode(CpusetMode mode) { cpusetMode_ = mode; }

    /** Start a fresh container (full runc create+start path). */
    sim::Task<Container *> create(const std::string &id);

    /**
     * Attach @p proc to @p container: namespace reconfiguration plus
     * cpuset cgroup attach under the kernel's cpuset lock.
     */
    sim::Task<> attach(Container &container, Process &proc,
                       obs::SpanContext ctx = {});

    /** Tear a container down. */
    sim::Task<> destroy(Container &container);

    /** @name create(), attach() and destroy() in steps
     * For a caller that already owns a frame (DESIGN.md §4b): await
     * each cost, then run the bookkeeping after it at once. An attach
     * is reconfigureCost(), lockCpuset(), cpusetHoldCost(),
     * unlockCpuset(), settle(). */
    ///@{

    /** The container start; then add(). */
    sim::Simulation::DelayAwaiter startCost();

    /** Record a started container (reusing a deleted one's record). */
    Container &add(std::string_view id);

    /** Namespace reconfiguration; asserts @p container is running.
     * Holds the record until settle(). */
    sim::Simulation::DelayAwaiter reconfigureCost(Container &container);

    auto lockCpuset() { return cpusetLock_.acquire(); }

    /** How long the lock is held: the Cpuset-opt ablation knob. */
    sim::Simulation::DelayAwaiter cpusetHoldCost();

    void unlockCpuset() { cpusetLock_.release(); }

    /** Settle @p proc in @p container, unless it was retired while
     * the attach ran. */
    void settle(Container &container, Process &proc);

    /** The delete of @p container; then reap(). Holds the record
     * until reap(). */
    sim::Simulation::DelayAwaiter deleteCost(Container &container);

    /** Drop @p container's row now, spending no sim time; its record
     * is reused by a later add(). A retired record is freed instead,
     * once nothing holds it. */
    void reap(Container &container);
    ///@}

    /**
     * Drop @p container's row for good, spending no sim time: its
     * cgroup died with a crash or an OOM kill. The record goes to a
     * graveyard, is never reused, and is freed as soon as no in-flight
     * attach or delete holds it.
     */
    void retire(Container &container);

    /** Live containers (retired ones are not counted). */
    std::size_t containerCount() const { return containers_.size(); }

    Container *find(const std::string &id);

  private:
    LocalOs &os_;
    CpusetMode cpusetMode_ = CpusetMode::StockSemaphore;
    /** The kernel's global cpuset update lock. */
    sim::Semaphore cpusetLock_;
    /** Live containers in creation order. */
    std::vector<std::unique_ptr<Container>> containers_;
    /** Records of deleted containers. */
    sim::Spares<std::unique_ptr<Container>> spare_;
    /** Retired records an in-flight attach or delete still holds. */
    sim::Graveyard<Container> graveyard_;
};

} // namespace molecule::os

#endif // MOLECULE_OS_CONTAINER_HH
