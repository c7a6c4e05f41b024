/**
 * @file
 * Processing-unit model.
 *
 * A ProcessingUnit is one general-purpose compute element of the
 * heterogeneous computer (host CPU complex, a DPU's ARM complex). It
 * models core occupancy (a counted resource), per-PU performance scaling
 * of software and compute costs, and a memory budget used for instance
 * admission (Fig 2-a density experiment).
 *
 * Accelerators (FPGA/GPU) are *devices* attached to a PU, not PUs with
 * cores; see fpga.hh / gpu.hh.
 */

#ifndef MOLECULE_HW_PU_HH
#define MOLECULE_HW_PU_HH

#include <cstdint>
#include <memory>
#include <string>

#include "hw/calibration.hh"
#include "sim/sync.hh"

namespace molecule::hw {

/** Kind of processing unit / attached accelerator owner. */
enum class PuType { HostCpu, Dpu, FpgaHost, GpuHost };

/** Instruction-set of a general-purpose PU. */
enum class Isa { X86_64, Aarch64 };

const char *toString(PuType t);

/** Static description of a PU (construction parameters). */
struct PuDescriptor
{
    std::string name;
    PuType type = PuType::HostCpu;
    Isa isa = Isa::X86_64;
    int cores = 1;
    double freqGhz = 1.0;
    std::uint64_t memoryBytes = 0;
    /** Software-path cost multiplier relative to the host CPU. */
    double swFactor = 1.0;
    /** Compute-bound cost multiplier relative to the host CPU. */
    double computeFactor = 1.0;
    /** Network/HTTP-path multiplier (DPUs have NIC offload). */
    double netFactor = 1.0;
};

/**
 * Runtime processing unit: cores as a semaphore, memory as a budget.
 */
class ProcessingUnit
{
  public:
    ProcessingUnit(sim::Simulation &sim, int id, PuDescriptor desc);

    int id() const { return id_; }
    const PuDescriptor &desc() const { return desc_; }
    const std::string &name() const { return desc_.name; }
    PuType type() const { return desc_.type; }

    /** Scale a host-reference software-path cost to this PU. */
    sim::SimTime
    swCost(sim::SimTime hostCost) const
    {
        return hostCost * desc_.swFactor;
    }

    /** Scale a host-reference compute-bound cost to this PU. */
    sim::SimTime
    computeCost(sim::SimTime hostCost) const
    {
        return hostCost * desc_.computeFactor;
    }

    /** Scale a host-reference network-path cost to this PU. */
    sim::SimTime
    netCost(sim::SimTime hostCost) const
    {
        return hostCost * desc_.netFactor;
    }

    /** Holds a core taken with acquireCore() for one compute burst;
     * the core is back as the awaiter resumes. */
    using CoreBurst = sim::HeldDelay;

    /**
     * @name Core occupancy
     * A compute burst is `co_await acquireCore(); co_await
     * occupyCore(cost);` -- the core queue is FIFO, and the core is
     * back before the awaiting coroutine continues. A coroutine that
     * runs the two steps inline pays no frame of its own.
     */
    ///@{
    auto acquireCore() { return cores_.acquire(); }

    /** Occupy the acquired core for @p hostCost (host-reference
     * time, scaled by computeFactor). */
    CoreBurst
    occupyCore(sim::SimTime hostCost)
    {
        return CoreBurst(cores_, sim_.delay(computeCost(hostCost)));
    }

    /** Both steps: queue for a core, then occupy it for @p hostCost. */
    sim::Task<> compute(sim::SimTime hostCost);
    ///@}

    /** @name Memory admission (bytes). The density experiment drives
     *  allocation through the OS layer; the PU tracks the budget. */
    ///@{
    std::uint64_t memoryCapacity() const { return desc_.memoryBytes; }

    std::uint64_t memoryUsed() const { return memUsed_; }

    std::uint64_t
    memoryFree() const
    {
        return desc_.memoryBytes - memUsed_;
    }

    /** @retval false the allocation would exceed the budget. */
    bool tryAllocate(std::uint64_t bytes);

    void free(std::uint64_t bytes);
    ///@}

    sim::Simulation &simulation() { return sim_; }

  private:
    sim::Simulation &sim_;
    int id_;
    PuDescriptor desc_;
    sim::Semaphore cores_;
    std::uint64_t memUsed_ = 0;
};

/** @name Paper-testbed PU descriptors (see §6 "two settings"). */
///@{

/** Intel Xeon Platinum 8160 host (96 cores, 2.1 GHz, 192 GB). */
PuDescriptor xeon8160Descriptor();

/** Mellanox BlueField-1 DPU (16 ARM cores, 800 MHz, 16 GB). */
PuDescriptor bluefield1Descriptor(int index);

/** Nvidia BlueField-2 DPU (8 ARM cores, 2.75 GHz, 16 GB). */
PuDescriptor bluefield2Descriptor(int index);

/** AWS F1.x16large host CPU complex (64 vCPU). */
PuDescriptor f1HostDescriptor();

/** Desktop i7-9700 used for the Fig 11 breakdown. */
PuDescriptor desktopI7Descriptor();
///@}

} // namespace molecule::hw

#endif // MOLECULE_HW_PU_HH
