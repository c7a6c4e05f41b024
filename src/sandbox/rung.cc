#include "sandbox/rung.hh"

#include "sim/logging.hh"

namespace molecule::sandbox {

RungRuntime::RungRuntime(os::LocalOs &hostOs, hw::GpuDevice &device)
    : hostOs_(hostOs), device_(device),
      dmaLink_(hostOs.simulation(),
               hw::LinkParams::forKind(hw::LinkKind::PcieDma))
{}

SandboxState
RungRuntime::state(const std::string &sandboxId)
{
    GpuSandbox *sb = find(sandboxId);
    return sb ? sb->state : SandboxState::Unknown;
}

sim::Task<bool>
RungRuntime::create(const CreateRequest &req)
{
    MOLECULE_ASSERT(req.image != nullptr, "create without an image");
    if (sandboxes_.count(req.sandboxId))
        co_return false;
    GpuSandbox sb;
    sb.id = req.sandboxId;
    sb.image = req.image;
    sb.state = SandboxState::Creating;
    sandboxes_[req.sandboxId] = sb;
    co_await device_.loadModule(req.image->funcId);
    sandboxes_[sb.id].state = SandboxState::Created;
    co_return true;
}

sim::Task<bool>
RungRuntime::start(const std::string &sandboxId)
{
    GpuSandbox *sb = find(sandboxId);
    if (!sb || sb->state != SandboxState::Created)
        co_return false;
    co_await hostOs_.syscall();
    sb->state = SandboxState::Running;
    co_return true;
}

sim::Task<>
RungRuntime::destroy(const std::string &sandboxId)
{
    GpuSandbox *sb = find(sandboxId);
    if (!sb)
        co_return;
    device_.unloadModule(sb->image->funcId);
    sandboxes_.erase(sandboxId);
    co_return;
}

sim::Task<>
RungRuntime::invoke(const std::string &sandboxId, sim::SimTime kernelTime,
                    std::uint64_t inBytes, std::uint64_t outBytes,
                    obs::SpanContext ctx)
{
    obs::Span span(ctx, "sandbox.exec", obs::Layer::Sandbox,
                   hostOs_.pu().id());
    GpuSandbox *sb = find(sandboxId);
    MOLECULE_ASSERT(sb != nullptr, "invoking unknown GPU sandbox '%s'",
                    sandboxId.c_str());
    MOLECULE_ASSERT(sb->state == SandboxState::Running,
                    "invoking non-running GPU sandbox '%s'",
                    sandboxId.c_str());
    if (inBytes > 0) {
        obs::Span dma(span.ctx(), "hw.dma-in", obs::Layer::Hw,
                      hostOs_.pu().id());
        dma.setArg(std::int64_t(inBytes));
        co_await dmaLink_.transfer(inBytes);
    }
    {
        obs::Span hwspan(span.ctx(), "hw.kernel", obs::Layer::Hw,
                         hostOs_.pu().id());
        co_await device_.launch(sb->image->funcId, kernelTime);
    }
    if (outBytes > 0) {
        obs::Span dma(span.ctx(), "hw.dma-out", obs::Layer::Hw,
                      hostOs_.pu().id());
        dma.setArg(std::int64_t(outBytes));
        co_await dmaLink_.transfer(outBytes);
    }
}

RungRuntime::GpuSandbox *
RungRuntime::find(const std::string &sandboxId)
{
    auto it = sandboxes_.find(sandboxId);
    return it == sandboxes_.end() ? nullptr : &it->second;
}

} // namespace molecule::sandbox
