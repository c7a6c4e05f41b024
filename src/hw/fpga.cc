#include "hw/fpga.hh"

#include "sim/logging.hh"

namespace molecule::hw {

FpgaDevice::FpgaDevice(sim::Simulation &sim, int id, int hostPuId,
                       FpgaResources totals, int dramBanks)
    : sim_(sim), id_(id), hostPuId_(hostPuId), totals_(totals),
      banks_(std::size_t(dramBanks))
{
    MOLECULE_ASSERT(dramBanks > 0, "FPGA needs at least one DRAM bank");
}

sim::Task<>
FpgaDevice::erase(obs::SpanContext ctx)
{
    obs::Span span(ctx, "hw.erase", obs::Layer::Hw, hostPuId_);
    ++eraseCount_;
    imageEpoch_.fetchAdd(1);
    image_.reset();
    slotBusy_.clear();
    co_await sim_.delay(calib::kFpgaEraseCost);
}

sim::Task<core::Status>
FpgaDevice::program(const FpgaImage &image_in, ProgramMode mode,
                    bool retainDram, obs::SpanContext ctx)
{
    // Copy before the first suspension (see the GCC 12 note in task.hh).
    FpgaImage image = image_in;
    obs::Span span(ctx, "hw.program", obs::Layer::Hw, hostPuId_);
    span.setArg(std::int64_t(image.slots.size()));
    const auto need = image.totalResources();
    if (!need.fitsIn(totals_)) {
        sim::fatal("FPGA image %llu exceeds fabric resources "
                   "(luts %ld/%ld)",
                   static_cast<unsigned long long>(image.id), need.luts,
                   totals_.luts);
    }
    const auto cost = mode == ProgramMode::Cold
                          ? calib::kFpgaProgramColdCost
                          : calib::kFpgaProgramCachedCost;
    co_await sim_.delay(cost);

    if (faults_ != nullptr &&
        faults_->consumeFpgaReconfigFailure(hostPuId_)) {
        // Mid-flash failure: the time is spent, the slot ends up
        // erased. Retained DRAM banks survive (§4.3 retention is a
        // property of the banks, not the fabric).
        span.setDetail("reconfig-failed");
        image_.reset();
        slotBusy_.clear();
        imageEpoch_.fetchAdd(1);
        co_return core::Status(core::Errc::FpgaReconfigFailed,
                               "partial reconfiguration failed "
                               "mid-flash",
                               hostPuId_);
    }

    image_.emplace(std::move(image));
    slotBusy_.clear();
    for (std::size_t i = 0; i < image_->slots.size(); ++i)
        slotBusy_.push_back(std::make_unique<sim::Semaphore>(sim_, 1));
    imageEpoch_.fetchAdd(1);
    if (!retainDram) {
        bankEpoch_.fetchAdd(1);
        for (auto &b : banks_)
            b.data.clear();
    }
    ++programCount_;
    co_return core::Status();
}

const FpgaImage &
FpgaDevice::image() const
{
    MOLECULE_ASSERT(image_.has_value(), "no image programmed");
    return *image_;
}

bool
FpgaDevice::resident(const std::string &funcId) const
{
    imageEpoch_.read();
    return image_ && image_->contains(funcId);
}

sim::Task<>
FpgaDevice::invoke(const std::string &funcId, sim::SimTime kernelTime,
                   obs::SpanContext ctx)
{
    obs::Span span(ctx, "hw.kernel", obs::Layer::Hw, hostPuId_);
    span.setDetail(funcId.c_str());
    if (!resident(funcId))
        sim::fatal("invoking non-resident FPGA function '%s'",
                   funcId.c_str());
    std::size_t slot = 0;
    for (std::size_t i = 0; i < image_->slots.size(); ++i) {
        if (image_->slots[i].funcId == funcId) {
            slot = i;
            break;
        }
    }
    ++invokeCount_;
    auto &busy = *slotBusy_[slot];
    co_await busy.acquire();
    sim::SemGuard g(busy);
    co_await sim_.delay(calib::kFpgaInvokeCost + kernelTime);
}

sim::SimTime
FpgaDevice::dramAccessTime(std::uint64_t bytes) const
{
    // Sequential FPGA-attached DRAM at ~15 GB/s plus a fixed command
    // overhead; negligible next to DMA but kept honest so the Fig 13
    // "shm" path is not free.
    return sim::SimTime::fromMicroseconds(1.5) +
           sim::SimTime::fromSeconds(double(bytes) / 15e9);
}

sim::Task<>
FpgaDevice::bankWrite(int bank, const std::string &tag_in,
                      std::uint64_t bytes, obs::SpanContext ctx)
{
    // Copy before the first suspension (see the GCC 12 note in task.hh).
    std::string tag = tag_in;
    obs::Span span(ctx, "hw.dram", obs::Layer::Hw, hostPuId_);
    span.setArg(std::int64_t(bytes));
    MOLECULE_ASSERT(bank >= 0 && bank < dramBankCount(),
                    "bank %d out of range", bank);
    co_await sim_.delay(dramAccessTime(bytes));
    bankEpoch_.fetchAdd(1);
    banks_[std::size_t(bank)].data[std::move(tag)] = bytes;
}

std::optional<std::uint64_t>
FpgaDevice::bankPeek(int bank, const std::string &tag) const
{
    MOLECULE_ASSERT(bank >= 0 && bank < dramBankCount(),
                    "bank %d out of range", bank);
    bankEpoch_.read();
    const auto &data = banks_[std::size_t(bank)].data;
    auto it = data.find(tag);
    if (it == data.end())
        return std::nullopt;
    return it->second;
}

sim::Task<>
FpgaDevice::bankRead(int bank, std::uint64_t bytes, obs::SpanContext ctx)
{
    obs::Span span(ctx, "hw.dram", obs::Layer::Hw, hostPuId_);
    span.setArg(std::int64_t(bytes));
    MOLECULE_ASSERT(bank >= 0 && bank < dramBankCount(),
                    "bank %d out of range", bank);
    bankEpoch_.read();
    co_await sim_.delay(dramAccessTime(bytes));
}

void
FpgaDevice::bankClear(int bank)
{
    MOLECULE_ASSERT(bank >= 0 && bank < dramBankCount(),
                    "bank %d out of range", bank);
    bankEpoch_.fetchAdd(1);
    banks_[std::size_t(bank)].data.clear();
}

} // namespace molecule::hw
