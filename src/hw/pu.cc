#include "hw/pu.hh"

#include "sim/logging.hh"

namespace molecule::hw {

const char *
toString(PuType t)
{
    switch (t) {
      case PuType::HostCpu:
        return "CPU";
      case PuType::Dpu:
        return "DPU";
      case PuType::FpgaHost:
        return "FPGA";
      case PuType::GpuHost:
        return "GPU";
    }
    return "?";
}

ProcessingUnit::ProcessingUnit(sim::Simulation &sim, int id,
                               PuDescriptor desc)
    : sim_(sim), id_(id), desc_(std::move(desc)),
      cores_(sim, std::size_t(desc_.cores))
{
    MOLECULE_ASSERT(desc_.cores > 0, "PU needs at least one core");
}

sim::Task<>
ProcessingUnit::compute(sim::SimTime hostCost)
{
    co_await acquireCore();
    co_await occupyCore(hostCost);
}

bool
ProcessingUnit::tryAllocate(std::uint64_t bytes)
{
    if (memUsed_ + bytes > desc_.memoryBytes)
        return false;
    memUsed_ += bytes;
    return true;
}

void
ProcessingUnit::free(std::uint64_t bytes)
{
    MOLECULE_ASSERT(bytes <= memUsed_, "freeing more memory than used");
    memUsed_ -= bytes;
}

PuDescriptor
xeon8160Descriptor()
{
    PuDescriptor d;
    d.name = "xeon-8160";
    d.type = PuType::HostCpu;
    d.isa = Isa::X86_64;
    d.cores = 96;
    d.freqGhz = 2.1;
    d.memoryBytes = 192ULL << 30;
    d.swFactor = calib::kHostSwFactor;
    d.computeFactor = calib::kHostComputeFactor;
    d.netFactor = 1.0;
    return d;
}

PuDescriptor
bluefield1Descriptor(int index)
{
    PuDescriptor d;
    d.name = "bf1-dpu" + std::to_string(index);
    d.type = PuType::Dpu;
    d.isa = Isa::Aarch64;
    d.cores = 16;
    d.freqGhz = 0.8;
    d.memoryBytes = 16ULL << 30;
    d.swFactor = calib::kBf1SwFactor;
    d.computeFactor = calib::kBf1ComputeFactor;
    d.netFactor = calib::kBf1NetFactor;
    return d;
}

PuDescriptor
bluefield2Descriptor(int index)
{
    PuDescriptor d;
    d.name = "bf2-dpu" + std::to_string(index);
    d.type = PuType::Dpu;
    d.isa = Isa::Aarch64;
    d.cores = 8;
    d.freqGhz = 2.75;
    d.memoryBytes = 16ULL << 30;
    d.swFactor = calib::kBf2SwFactor;
    d.computeFactor = calib::kBf2ComputeFactor;
    d.netFactor = calib::kBf2NetFactor;
    return d;
}

PuDescriptor
f1HostDescriptor()
{
    PuDescriptor d;
    d.name = "f1-host";
    d.type = PuType::HostCpu;
    d.isa = Isa::X86_64;
    d.cores = 64;
    d.freqGhz = 2.3;
    d.memoryBytes = 976ULL << 30;
    d.swFactor = calib::kHostSwFactor;
    d.computeFactor = calib::kHostComputeFactor;
    d.netFactor = 1.0;
    return d;
}

PuDescriptor
desktopI7Descriptor()
{
    PuDescriptor d;
    d.name = "i7-9700";
    d.type = PuType::HostCpu;
    d.isa = Isa::X86_64;
    d.cores = 8;
    d.freqGhz = 3.0;
    d.memoryBytes = 16ULL << 30;
    d.swFactor = calib::kDesktopSwFactor;
    d.computeFactor = calib::kDesktopComputeFactor;
    d.netFactor = 1.0;
    return d;
}

} // namespace molecule::hw
