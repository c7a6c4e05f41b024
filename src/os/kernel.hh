/**
 * @file
 * The per-PU local operating system.
 *
 * Heterogeneous computers are multi-OS systems (§2.1.1): every
 * general-purpose PU (host CPU, each DPU) runs its own OS instance.
 * LocalOs provides what the upper layers need from Linux: processes
 * with COW fork, named FIFOs, containers/cgroups, and the primitive
 * syscall cost model, all scaled by the PU's performance factors.
 */

#ifndef MOLECULE_OS_KERNEL_HH
#define MOLECULE_OS_KERNEL_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hw/pu.hh"
#include "obs/trace.hh"
#include "os/container.hh"
#include "os/fifo.hh"
#include "os/process.hh"
#include "sim/analysis.hh"

namespace molecule::os {

/**
 * One OS instance on one PU.
 */
class LocalOs
{
  public:
    explicit LocalOs(hw::ProcessingUnit &pu);

    LocalOs(const LocalOs &) = delete;
    LocalOs &operator=(const LocalOs &) = delete;

    hw::ProcessingUnit &pu() { return pu_; }

    sim::Simulation &simulation() { return pu_.simulation(); }

    ContainerManager &containers() { return containers_; }

    /** @name Cost helpers (host-reference costs scaled to this PU). */
    ///@{

    /** Charge one syscall worth of time. */
    sim::Simulation::DelayAwaiter syscall();

    /** Charge an arbitrary software-path cost. */
    sim::Simulation::DelayAwaiter swDelay(sim::SimTime hostCost);

    sim::SimTime
    scaledSw(sim::SimTime hostCost) const
    {
        return pu_.swCost(hostCost);
    }
    ///@}

    /** @name Processes */
    ///@{

    /**
     * Spawn a brand-new process (fork+exec path).
     * @p privateBytes is mapped as a fresh private region.
     * @return nullptr when memory admission fails.
     */
    sim::Task<Process *> spawnProcess(const std::string &name,
                                      std::uint64_t privateBytes,
                                      obs::SpanContext ctx = {});

    /**
     * COW-fork @p parent. The child shares all parent regions; extra
     * private memory can be mapped by the caller afterwards.
     * @return nullptr when memory admission fails.
     */
    sim::Task<Process *> fork(Process &parent,
                              const std::string &childName,
                              obs::SpanContext ctx = {});

    /** Terminate and reap a process, releasing its memory. */
    void exitProcess(Process &proc);

    Process *findProcess(Pid pid);

    std::size_t processCount() const { return procs_.size(); }

    /** Build an address space whose physical charge hits this PU. */
    AddressSpace makeAddressSpace();

    /** Physical bytes resident on this PU (admission accounting). */
    std::uint64_t physicalUsed() const { return pu_.memoryUsed(); }
    ///@}

    /** @name Named FIFOs */
    ///@{

    /** Create a FIFO; fatal if the name exists. */
    LocalFifo *createFifo(const std::string &name);

    /** Look up a FIFO (nullptr when absent). */
    LocalFifo *findFifo(const std::string &name);

    void removeFifo(const std::string &name);

    /** Live named FIFOs. */
    std::size_t fifoCount() const { return fifos_.size(); }
    ///@}

    /**
     * Injected PU crash: the OS loses all volatile state. Every
     * process is reaped (releasing its memory back to the PU) and all
     * named FIFOs disappear. Pid allocation continues monotonically —
     * a rebooted OS must not reuse pids that peers may still hold in
     * XpuPid handles.
     */
    void crashReset();

  private:
    hw::ProcessingUnit &pu_;
    ContainerManager containers_;
    std::map<Pid, std::unique_ptr<Process>> procs_;
    std::map<std::string, std::unique_ptr<LocalFifo>> fifos_;
    /** FIFOs retired by crashReset(); kept alive (not reachable by
     * name) because poisoned readers still resume against them. */
    std::vector<std::unique_ptr<LocalFifo>> deadFifos_;
    /** Pid allocation order is visible in results (tracked: two
     * same-tick spawns would race on it via the seq tie-break). */
    sim::analysis::Tracked<Pid> nextPid_{100, "os.nextPid"};
};

} // namespace molecule::os

#endif // MOLECULE_OS_KERNEL_HH
