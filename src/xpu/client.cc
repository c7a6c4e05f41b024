#include "xpu/client.hh"

#include <algorithm>

#include "hw/calibration.hh"

namespace molecule::xpu {

namespace calib = hw::calib;

XpuClient::XpuClient(XpuShim &shim, os::Process &proc)
    : shim_(shim), self_{shim.puId(), proc.pid()}
{}

XpuFd
XpuClient::openFd(ObjId obj)
{
    const XpuFd fd = nextFd_++;
    if (fds_.empty())
        fds_.reserve(4); // one allocation covers a typical process
    fds_.emplace_back(fd, obj);
    return fd;
}

std::vector<std::pair<XpuFd, ObjId>>::const_iterator
XpuClient::findFd(XpuFd fd) const
{
    return std::find_if(fds_.begin(), fds_.end(),
                        [fd](const auto &e) { return e.first == fd; });
}

sim::Simulation::DelayAwaiter
XpuClient::enterCall(std::uint64_t argBytes)
{
    const auto cost =
        shim_.transport().requestCost(shim_.localOs().pu(), argBytes);
    return shim_.localOs().simulation().delay(cost);
}

sim::Simulation::DelayAwaiter
XpuClient::leaveCall(std::uint64_t resultBytes)
{
    const auto cost =
        shim_.transport().responseCost(shim_.localOs().pu(), resultBytes);
    return shim_.localOs().simulation().delay(cost);
}

sim::Simulation::DelayAwaiter
XpuClient::marshalBulk(std::uint64_t bytes)
{
    // memcpy into the per-process shared-memory argument area (§5);
    // scales with the PU's core speed like other software costs.
    const auto copy = sim::SimTime::nanoseconds(
        std::int64_t(double(bytes) * calib::kFifoCopyNsPerByte));
    return shim_.localOs().swDelay(copy);
}

sim::Task<core::Status>
XpuClient::grantCap(XpuPid target, ObjId obj, Perm perm)
{
    obs::Span span(ctx_, "xpu.grantCap", obs::Layer::Xpu, shim_.puId());
    co_await enterCall(32);
    core::Status st = co_await shim_.grantCap(self_, target, obj, perm,
                                              span.ctx());
    co_await leaveCall(8);
    co_return st;
}

sim::Task<core::Status>
XpuClient::revokeCap(XpuPid target, ObjId obj, Perm perm)
{
    obs::Span span(ctx_, "xpu.revokeCap", obs::Layer::Xpu, shim_.puId());
    co_await enterCall(32);
    core::Status st = co_await shim_.revokeCap(self_, target, obj, perm,
                                               span.ctx());
    co_await leaveCall(8);
    co_return st;
}

sim::Task<core::Expected<XpuFd>>
XpuClient::xfifoInit(const std::string &globalUuid)
{
    std::string uuid = globalUuid;
    obs::Span span(ctx_, "xpu.xfifoInit", obs::Layer::Xpu, shim_.puId());
    co_await enterCall(32 + uuid.size());
    core::Expected<ObjId> r =
        co_await shim_.xfifoInit(self_, uuid, span.ctx());
    co_await leaveCall(16);
    if (!r.ok())
        co_return r.error();
    co_return core::Expected<XpuFd>(openFd(r.value()));
}

sim::Task<core::Expected<XpuFd>>
XpuClient::xfifoConnect(const std::string &globalUuid)
{
    std::string uuid = globalUuid;
    obs::Span span(ctx_, "xpu.xfifoConnect", obs::Layer::Xpu,
                   shim_.puId());
    co_await enterCall(32 + uuid.size());
    core::Expected<ObjId> r = co_await shim_.xfifoConnect(self_, uuid);
    co_await leaveCall(16);
    if (!r.ok())
        co_return r.error();
    co_return core::Expected<XpuFd>(openFd(r.value()));
}

sim::Task<core::Status>
XpuClient::xfifoWrite(XpuFd fd, std::uint64_t bytes,
                      const std::string &tag)
{
    std::string owned_tag = tag;
    auto it = findFd(fd);
    if (it == fds_.end())
        co_return core::Status(core::Errc::InvalidArgument,
                               "unknown fd", shim_.puId());
    const ObjId obj = it->second;
    obs::Span span(ctx_, "xpu.xfifoWrite", obs::Layer::Xpu,
                   shim_.puId());
    span.setArg(std::int64_t(bytes));
    co_await marshalBulk(bytes);
    co_await enterCall(48);
    core::Status st = co_await shim_.xfifoWrite(self_, obj, bytes,
                                                owned_tag, span.ctx());
    co_await leaveCall(8);
    co_return st;
}

sim::Task<core::Expected<os::FifoMessage>>
XpuClient::xfifoRead(XpuFd fd)
{
    auto it = findFd(fd);
    if (it == fds_.end())
        co_return core::Error(core::Errc::InvalidArgument,
                              "unknown fd", shim_.puId());
    const ObjId obj = it->second;
    obs::Span span(ctx_, "xpu.xfifoRead", obs::Layer::Xpu, shim_.puId());
    co_await enterCall(16);
    core::Expected<os::FifoMessage> r =
        co_await shim_.xfifoRead(self_, obj, span.ctx());
    if (!r.ok())
        co_return r;
    // Unmarshal the payload out of the shared-memory result area.
    co_await marshalBulk(r.value().bytes);
    co_await leaveCall(16);
    co_return r;
}

sim::Task<core::Status>
XpuClient::xfifoClose(XpuFd fd)
{
    auto it = findFd(fd);
    if (it == fds_.end())
        co_return core::Status(core::Errc::InvalidArgument,
                               "unknown fd", shim_.puId());
    const ObjId obj = it->second;
    fds_.erase(it);
    obs::Span span(ctx_, "xpu.xfifoClose", obs::Layer::Xpu,
                   shim_.puId());
    co_await enterCall(16);
    core::Status st = co_await shim_.xfifoClose(self_, obj);
    co_await leaveCall(8);
    co_return st;
}

sim::Task<core::Expected<XpuPid>>
XpuClient::xspawn(PuId target, const std::string &path,
                  const std::vector<CapGrant> &capv,
                  std::uint64_t memBytes)
{
    std::string owned_path = path;
    std::vector<CapGrant> owned_capv = capv;
    obs::Span span(ctx_, "xpu.xspawn", obs::Layer::Xpu, shim_.puId());
    co_await enterCall(64 + owned_path.size());
    core::Expected<XpuPid> r =
        co_await shim_.xspawn(self_, target, owned_path, owned_capv,
                              memBytes, span.ctx());
    co_await leaveCall(16);
    co_return r;
}

ObjId
XpuClient::objectOf(XpuFd fd) const
{
    auto it = findFd(fd);
    return it == fds_.end() ? 0 : it->second;
}

} // namespace molecule::xpu
