#include "sandbox/runf.hh"

#include "hw/calibration.hh"
#include "sim/logging.hh"

namespace molecule::sandbox {

namespace calib = hw::calib;

RunfRuntime::RunfRuntime(os::LocalOs &hostOs, hw::FpgaDevice &device)
    : hostOs_(hostOs), device_(device),
      dmaLink_(hostOs.simulation(),
               hw::LinkParams::forKind(hw::LinkKind::PcieDma))
{}

SandboxState
RunfRuntime::state(const std::string &sandboxId)
{
    FpgaSandbox *sb = find(sandboxId);
    return sb ? sb->state : SandboxState::Unknown;
}

sim::Task<bool>
RunfRuntime::create(const CreateRequest &req)
{
    std::vector<CreateRequest> one{req};
    const core::Expected<int> made = co_await createVector(one);
    co_return made.ok() && made.value() == 1;
}

sim::Task<core::Expected<int>>
RunfRuntime::createVector(const std::vector<CreateRequest> &reqs)
{
    std::vector<CreateRequest> owned = reqs;
    const obs::SpanContext ctx =
        owned.empty() ? obs::SpanContext{} : owned.front().ctx;
    obs::Span span(ctx, "sandbox.compose", obs::Layer::Sandbox,
                   hostOs_.pu().id());
    span.setArg(std::int64_t(owned.size()));

    // Compose wrapper + one slot per request and check the budget.
    hw::FpgaImage image;
    image.id = nextImageId_++;
    for (const auto &req : owned) {
        MOLECULE_ASSERT(req.image != nullptr, "create without an image");
        hw::KernelSlot slot;
        slot.funcId = req.image->funcId;
        slot.resources = req.image->fpgaResources;
        slot.dramBank = req.image->dramBank >= 0
                            ? req.image->dramBank % device_.dramBankCount()
                            : int(image.slots.size()) %
                                  device_.dramBankCount();
        image.slots.push_back(std::move(slot));
    }
    if (!image.totalResources().fitsIn(device_.totals()))
        co_return core::Error(core::Errc::NoCapacity,
                              "image exceeds fabric resources",
                              hostOs_.pu().id());

    // The previous image's sandboxes are the ones "really destroyed"
    // by this create (§3.5).
    for (auto &[id, sb] : sandboxes_) {
        if (sb.state != SandboxState::Stopped)
            sb.state = SandboxState::Stopped;
        sb.warm = false;
    }

    if (options_.eraseBeforeProgram)
        co_await device_.erase(span.ctx());
    core::Status programmed =
        co_await device_.program(image,
                                 options_.bitstreamCached
                                     ? hw::ProgramMode::Cached
                                     : hw::ProgramMode::Cold,
                                 options_.retainDram, span.ctx());
    if (!programmed.ok()) {
        // The slot is erased; previous sandboxes were already stopped
        // above, so the device carries no usable image until a retry.
        co_return programmed.error();
    }

    for (const auto &req : owned) {
        FpgaSandbox sb;
        sb.id = req.sandboxId;
        sb.image = req.image;
        sb.state = SandboxState::Created;
        sandboxes_[req.sandboxId] = std::move(sb);
    }
    co_return core::Expected<int>(int(owned.size()));
}

sim::Task<bool>
RunfRuntime::start(const std::string &sandboxId)
{
    FpgaSandbox *sb = find(sandboxId);
    if (!sb || !device_.resident(sb->image->funcId))
        co_return false;
    if (!sb->warm) {
        // Prepare the software sandbox around the resident kernel
        // (Fig 10-c "Prep.-sandbox", 53 ms); warm sandboxes skip it.
        co_await hostOs_.swDelay(calib::kFpgaSandboxPrepCost);
        sb->warm = true;
    }
    sb->state = SandboxState::Running;
    co_return true;
}

namespace {

/**
 * Concurrent start of one sandbox (startVector fan-out). Takes the id
 * by stable pointer+index — not by value — per the GCC 12 coroutine
 * parameter rule in sim/task.hh.
 */
sim::Task<>
startOne(RunfRuntime *runf, const std::vector<std::string> *ids,
         std::size_t index, int *ok)
{
    const bool started = co_await runf->start((*ids)[index]);
    if (started)
        ++*ok;
}

} // namespace

sim::Task<int>
RunfRuntime::startVector(const std::vector<std::string> &ids)
{
    // Concurrent execution across regions is the point of the
    // vectorized start (§3.5).
    std::vector<std::string> owned = ids;
    int ok = 0;
    sim::Join starts(hostOs_.simulation());
    for (std::size_t i = 0; i < owned.size(); ++i)
        starts.spawn(startOne(this, &owned, i, &ok));
    co_await starts.wait();
    co_return ok;
}

sim::Task<>
RunfRuntime::kill(const std::string &sandboxId, int signal)
{
    (void)signal;
    FpgaSandbox *sb = find(sandboxId);
    if (sb)
        sb->state = SandboxState::Stopped;
    co_return;
}

sim::Task<>
RunfRuntime::destroy(const std::string &sandboxId)
{
    // "delete will be empty and directly return (but the runf will
    // update sandbox states)" — §3.5. The hardware slot lives until
    // the next createVector replaces the image.
    FpgaSandbox *sb = find(sandboxId);
    if (sb)
        sb->state = SandboxState::Stopped;
    co_return;
}

sim::Task<>
RunfRuntime::invoke(const std::string &sandboxId, sim::SimTime kernelTime,
                    std::uint64_t inBytes, std::uint64_t outBytes,
                    bool zeroCopyIn, bool zeroCopyOut,
                    obs::SpanContext ctx)
{
    obs::Span span(ctx, "sandbox.exec", obs::Layer::Sandbox,
                   hostOs_.pu().id());
    FpgaSandbox *sb = find(sandboxId);
    MOLECULE_ASSERT(sb != nullptr, "invoking unknown FPGA sandbox '%s'",
                    sandboxId.c_str());
    MOLECULE_ASSERT(sb->state == SandboxState::Running,
                    "invoking non-running FPGA sandbox '%s'",
                    sandboxId.c_str());
    // runf's own software dispatch around the hardware invocation.
    co_await hostOs_.swDelay(calib::kRunfDispatchCost);
    const std::string &funcId = sb->image->funcId;
    int bank = -1;
    for (const auto &slot : device_.image().slots)
        if (slot.funcId == funcId)
            bank = slot.dramBank;
    MOLECULE_ASSERT(bank >= 0, "function '%s' has no DRAM bank",
                    funcId.c_str());

    if (zeroCopyIn) {
        // Input was retained in DRAM by the previous function (§4.3).
        co_await device_.bankRead(bank, inBytes, span.ctx());
    } else if (inBytes > 0) {
        {
            obs::Span dma(span.ctx(), "hw.dma-in", obs::Layer::Hw,
                          hostOs_.pu().id());
            dma.setArg(std::int64_t(inBytes));
            co_await dmaLink_.transfer(inBytes);
        }
        const std::string tag = funcId + "/in";
        co_await device_.bankWrite(bank, tag, inBytes, span.ctx());
    }

    co_await device_.invoke(funcId, kernelTime, span.ctx());

    if (zeroCopyOut) {
        const std::string tag = funcId + "/out";
        co_await device_.bankWrite(bank, tag, outBytes, span.ctx());
    } else if (outBytes > 0) {
        obs::Span dma(span.ctx(), "hw.dma-out", obs::Layer::Hw,
                      hostOs_.pu().id());
        dma.setArg(std::int64_t(outBytes));
        co_await dmaLink_.transfer(outBytes);
    }
}

bool
RunfRuntime::cached(const std::string &funcId) const
{
    return device_.resident(funcId);
}

bool
RunfRuntime::warm(const std::string &sandboxId) const
{
    auto it = sandboxes_.find(sandboxId);
    return it != sandboxes_.end() && it->second.warm;
}

RunfRuntime::FpgaSandbox *
RunfRuntime::find(const std::string &sandboxId)
{
    auto it = sandboxes_.find(sandboxId);
    return it == sandboxes_.end() ? nullptr : &it->second;
}

} // namespace molecule::sandbox
