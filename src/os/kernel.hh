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
#include <string_view>
#include <vector>

#include "hw/pu.hh"
#include "obs/trace.hh"
#include "os/container.hh"
#include "os/fifo.hh"
#include "os/process.hh"
#include "sim/analysis.hh"
#include "sim/spares.hh"

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

    /** @name spawnProcess() and fork() in steps
     * For a caller that already owns a frame (DESIGN.md §4b): await
     * the cost, then finish at once. The caller opens the span. */
    ///@{
    sim::Simulation::DelayAwaiter spawnCost();

    /** @return nullptr when memory admission fails. */
    Process *finishSpawn(std::string_view name,
                         std::uint64_t privateBytes);

    /** Asserts that @p parent has merged its threads. */
    sim::Simulation::DelayAwaiter forkCost(const Process &parent);

    Process &finishFork(Process &parent, std::string_view childName);
    ///@}

    /** Terminate and reap a process, releasing its memory. Its record
     * is reused by a later spawn or fork. */
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

    /** Create a FIFO; fatal if the name exists. An idle removed
     * FIFO's record, name buffers and queue are reused. */
    LocalFifo *createFifo(const std::string &name);

    /** Look up a FIFO (nullptr when absent). */
    LocalFifo *findFifo(const std::string &name);

    void removeFifo(const std::string &name);

    /** Live named FIFOs. */
    std::size_t fifoCount() const { return fifos_.size(); }
    ///@}

    /**
     * Injected PU crash: the OS loses all volatile state. Every
     * process is reaped (releasing its memory back to the PU; the
     * records are retired, never reused) and all named FIFOs
     * disappear. Container records are left as they are. Pid
     * allocation continues monotonically — a rebooted OS must not
     * reuse pids that peers may still hold in XpuPid handles.
     */
    void crashReset();

  private:
    /** A spare record (or a new one), not yet live. */
    std::unique_ptr<Process> takeRecord();

    /** Make @p proc live under the next pid. */
    Process &admit(std::unique_ptr<Process> proc, std::string_view name);

    /** A live process under its pid, kept beside the record so a
     * search touches no record. */
    struct LiveProc
    {
        Pid pid;
        std::unique_ptr<Process> proc;
    };

    /** First live process whose pid is not below @p pid. */
    std::vector<LiveProc>::iterator lowerBound(Pid pid);

    hw::ProcessingUnit &pu_;
    /** Shared by every address space of this OS; declared first so it
     * outlives the processes. */
    sim::SpareRecords<MemRegion> regions_;
    ContainerManager containers_;
    /** Live processes in pid order (pids only grow, so a new one goes
     * last). */
    std::vector<LiveProc> procs_;
    /** Records of exited processes. */
    sim::Spares<std::unique_ptr<Process>> spareProcs_;
    /** Records of the processes a crash reaped: a pointer held across
     * the crash still reads a zombie. */
    sim::Graveyard<Process> deadProcs_;
    /** Scratch for spawn region labels. */
    std::string label_;
    using Fifos = std::map<std::string, std::unique_ptr<LocalFifo>>;
    Fifos fifos_;
    /** Removed idle FIFOs with their map nodes. */
    sim::Spares<Fifos::node_type> spareFifos_;
    /** FIFOs crashReset() poisoned: their readers still resume
     * against them. */
    sim::Graveyard<LocalFifo> deadFifos_;
    /** Pid allocation order is visible in results (tracked: two
     * same-tick spawns would race on it via the seq tie-break). */
    sim::analysis::Tracked<Pid> nextPid_{100, "os.nextPid"};
};

} // namespace molecule::os

#endif // MOLECULE_OS_KERNEL_HH
