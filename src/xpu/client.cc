#include "xpu/client.hh"

#include <cstring>
#include <string_view>
#include <utility>

#include "hw/calibration.hh"

namespace molecule::xpu {

namespace calib = hw::calib;

namespace {

/**
 * A caller's name copied into the call's frame before its first
 * suspension (task.hh rule 1): inline up to kInline characters, on
 * the heap only past that.
 */
class NameCopy
{
  public:
    explicit NameCopy(const std::string &name)
    {
        if (name.size() <= kInline) {
            std::memcpy(inline_, name.data(), name.size());
            size_ = name.size();
        } else {
            long_ = name;
        }
    }

    std::string_view
    view() const
    {
        return long_.empty() ? std::string_view(inline_, size_)
                             : std::string_view(long_);
    }

  private:
    static constexpr std::size_t kInline = 48;

    char inline_[kInline] = {};
    std::size_t size_ = 0;
    std::string long_;
};

} // namespace

XpuClient::XpuClient(XpuShim &shim, os::Process &proc)
    : shim_(shim), self_{shim.puId(), proc.pid()}
{}

XpuFd
XpuClient::openFd(ObjId obj)
{
    const XpuFd fd = nextFd_++;
    for (FdEntry &e : fds_) {
        if (e.fd < 0) {
            e = FdEntry{fd, obj};
            return fd;
        }
    }
    moreFds_.push_back(FdEntry{fd, obj});
    return fd;
}

const XpuClient::FdEntry *
XpuClient::findFd(XpuFd fd) const
{
    if (fd < 0)
        return nullptr; // also the mark of a free inline slot
    for (const FdEntry &e : fds_)
        if (e.fd == fd)
            return &e;
    for (const FdEntry &e : moreFds_)
        if (e.fd == fd)
            return &e;
    return nullptr;
}

XpuClient::FdEntry *
XpuClient::findFd(XpuFd fd)
{
    return const_cast<FdEntry *>(std::as_const(*this).findFd(fd));
}

void
XpuClient::closeFd(FdEntry &entry)
{
    if (&entry >= fds_.data() && &entry < fds_.data() + fds_.size()) {
        entry = FdEntry{};
        return;
    }
    // Order within the list is never observed: swap-and-pop.
    entry = moreFds_.back();
    moreFds_.pop_back();
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

core::Expected<PuId>
XpuClient::homeOf(ObjId obj, Perm need, const char *denied) const
{
    const auto [o, held] = shim_.caps_.access(self_, obj);
    if (!hasPerm(held, need))
        return core::Error(core::Errc::NoPermission, denied,
                           shim_.puId());
    if (!o)
        return core::Error(core::Errc::NotFound, "unknown object",
                           shim_.puId());
    return o->homePu;
}

sim::Task<core::Status>
XpuClient::grantCap(XpuPid target, ObjId obj, Perm perm)
{
    return capCall("xpu.grantCap", SyncOp::Grant, target, obj, perm);
}

sim::Task<core::Status>
XpuClient::revokeCap(XpuPid target, ObjId obj, Perm perm)
{
    return capCall("xpu.revokeCap", SyncOp::Revoke, target, obj, perm);
}

sim::Task<core::Status>
XpuClient::capCall(const char *name, SyncOp op, XpuPid target, ObjId obj,
                   Perm perm)
{
    obs::Span span(ctx_, name, obs::Layer::Xpu, shim_.puId());
    co_await enterCall(32);
    co_await shim_.acquireHandler();
    co_await shim_.handlerBurst();
    core::Status st;
    if (shim_.caps_.check(self_, obj, Perm::Owner)) {
        SyncMessage msg;
        msg.op = op;
        msg.pid = target;
        msg.objId = obj;
        msg.perm = perm;
        XpuShim::ImmediateSync sync(shim_, msg, span.ctx());
        co_await shim_.applyCost();
        sync.deliver();
        co_await sync.wait();
    } else {
        st = core::Status(core::Errc::NoPermission,
                          "caller does not own object", shim_.puId());
    }
    co_await leaveCall(8);
    co_return st;
}

sim::Task<core::Expected<XpuFd>>
XpuClient::xfifoInit(const std::string &globalUuid)
{
    // The new object's descriptor doubles as the named copy of the
    // uuid taken before the first suspension (task.hh, rule 1).
    XpuShim::Descriptor obj = shim_.retiredObjects_.take();
    obj->uuid = globalUuid;
    obs::Span span(ctx_, "xpu.xfifoInit", obs::Layer::Xpu, shim_.puId());
    co_await enterCall(32 + obj->uuid.str().size());
    co_await shim_.acquireHandler();
    co_await shim_.handlerBurst();
    if (shim_.caps_.findByUuid(obj->uuid) != nullptr) {
        core::Error taken(core::Errc::AlreadyExists,
                          "fifo uuid '" + obj->uuid.str() + "' taken",
                          shim_.puId());
        shim_.retiredObjects_.put(std::move(obj));
        co_await leaveCall(16);
        co_return taken;
    }
    obj->id = shim_.caps_.allocateId();
    obj->type = ObjType::Ipc;
    obj->owner = self_;
    obj->homePu = shim_.puId();
    const ObjId id = obj->id;
    shim_.openHomed(obj);
    {
        SyncMessage msg;
        msg.op = SyncOp::RegisterObject;
        msg.obj = std::move(obj);
        // Global UUID uniqueness requires every shim to learn about
        // the fifo before init returns (§5 "Immediate
        // synchronization").
        XpuShim::ImmediateSync sync(shim_, msg, span.ctx());
        co_await shim_.applyCost();
        sync.deliver();
        co_await sync.wait();
    }
    co_await leaveCall(16);
    co_return core::Expected<XpuFd>(openFd(id));
}

sim::Task<core::Expected<XpuFd>>
XpuClient::xfifoConnect(const std::string &globalUuid)
{
    const NameCopy uuid(globalUuid);
    obs::Span span(ctx_, "xpu.xfifoConnect", obs::Layer::Xpu,
                   shim_.puId());
    co_await enterCall(32 + uuid.view().size());
    co_await shim_.acquireHandler();
    co_await shim_.handlerBurst();
    core::Expected<ObjId> r = ObjId(0);
    const DistributedObject *obj = shim_.caps_.findByUuid(uuid.view());
    if (!obj) {
        r = core::Error(core::Errc::NotFound,
                        "no fifo with uuid '" + std::string(uuid.view()) +
                            "'",
                        shim_.puId());
    } else if (const Perm held = shim_.caps_.lookup(self_, obj->id);
               !hasPerm(held, Perm::Read) && !hasPerm(held, Perm::Write)) {
        // Connect requires read or write permission (§3.2).
        r = core::Error(core::Errc::NoPermission,
                        "connect needs read or write", shim_.puId());
    } else {
        r = obj->id;
        XpuShim &home = shim_.net_.shimOn(obj->homePu);
        if (auto *homed = home.findHomed(obj->id))
            ++homed->refCount;
    }
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
    const FdEntry *entry = findFd(fd);
    if (entry == nullptr)
        co_return core::Status(core::Errc::InvalidArgument,
                               "unknown fd", shim_.puId());
    const ObjId obj = entry->obj;
    obs::Span span(ctx_, "xpu.xfifoWrite", obs::Layer::Xpu,
                   shim_.puId());
    span.setArg(std::int64_t(bytes));
    co_await marshalBulk(bytes);
    co_await enterCall(48);
    co_await shim_.acquireHandler();
    co_await shim_.handlerBurst();
    XpuShimNetwork &net = shim_.net_;
    const PuId here = shim_.puId();
    const core::Expected<PuId> reach =
        homeOf(obj, Perm::Write, "no write capability");
    const PuId home = reach.ok() ? reach.value() : here;
    core::Status st;
    if (!reach.ok()) {
        st = reach.error();
    } else if (home == here) {
        st = shim_.deliverLocal(obj, bytes, owned_tag);
    } else if (net.puDown(home)) {
        st = core::Status(core::Errc::PuCrashed, "fifo home PU is down",
                          home);
    } else {
        // nIPC: payload + header cross the interconnect to the home
        // shim, which enqueues after its own handling; a small ack
        // comes back.
        {
            XpuShimNetwork::Hop hop(net, here, home, bytes + 48,
                                    span.ctx());
            while (hop.pending())
                co_await hop.step();
        }
        XpuShim &homeShim = net.shimOn(home);
        co_await homeShim.acquireHandler();
        co_await homeShim.handlerBurst();
        st = homeShim.deliverLocal(obj, bytes, owned_tag);
        XpuShimNetwork::Hop ack(net, home, here, 16, span.ctx());
        while (ack.pending())
            co_await ack.step();
    }
    co_await leaveCall(8);
    co_return st;
}

sim::Task<core::Expected<os::FifoMessage>>
XpuClient::xfifoRead(XpuFd fd)
{
    const FdEntry *entry = findFd(fd);
    if (entry == nullptr)
        co_return core::Error(core::Errc::InvalidArgument,
                              "unknown fd", shim_.puId());
    const ObjId obj = entry->obj;
    obs::Span span(ctx_, "xpu.xfifoRead", obs::Layer::Xpu, shim_.puId());
    co_await enterCall(16);
    co_await shim_.acquireHandler();
    co_await shim_.handlerBurst();
    XpuShimNetwork &net = shim_.net_;
    const PuId here = shim_.puId();
    const core::Expected<PuId> reach =
        homeOf(obj, Perm::Read, "no read capability");
    if (!reach.ok())
        co_return reach.error();
    const PuId home = reach.value();
    if (home != here) {
        // Remote read: ask the home shim, block there, payload rides
        // the return hop.
        if (net.puDown(home))
            co_return core::Error(core::Errc::PuCrashed,
                                  "fifo home PU is down", home);
        {
            XpuShimNetwork::Hop hop(net, here, home, 48, span.ctx());
            while (hop.pending())
                co_await hop.step();
        }
        XpuShim &homeShim = net.shimOn(home);
        co_await homeShim.acquireHandler();
        co_await homeShim.handlerBurst();
    }
    // The blocking pop, at the home shim.
    XpuShim::HomedFifo *homed = net.shimOn(home).findHomed(obj);
    if (!homed)
        co_return core::Error(core::Errc::NotFound,
                              "fifo not homed here", home);
    XpuShim::Queue *queue = homed->queue.get();
    while (queue->empty())
        co_await queue->itemWait();
    os::FifoMessage msg = queue->take();
    // A "!"-tagged message is a fault sentinel, not payload: the home
    // PU crashed while this read was pending.
    if (!msg.tag.empty() && msg.tag.front() == '!')
        co_return core::Error(core::Errc::PuCrashed,
                              "read failed: " + msg.tag, home);
    if (home != here) {
        XpuShimNetwork::Hop back(net, home, here, msg.bytes + 16,
                                 span.ctx());
        while (back.pending())
            co_await back.step();
    }
    // Unmarshal the payload out of the shared-memory result area.
    co_await marshalBulk(msg.bytes);
    co_await leaveCall(16);
    co_return core::Expected<os::FifoMessage>(std::move(msg));
}

sim::Task<core::Status>
XpuClient::xfifoClose(XpuFd fd)
{
    FdEntry *entry = findFd(fd);
    if (entry == nullptr)
        co_return core::Status(core::Errc::InvalidArgument,
                               "unknown fd", shim_.puId());
    const ObjId obj = entry->obj;
    closeFd(*entry);
    obs::Span span(ctx_, "xpu.xfifoClose", obs::Layer::Xpu,
                   shim_.puId());
    co_await enterCall(16);
    co_await shim_.acquireHandler();
    co_await shim_.handlerBurst();
    core::Status st;
    const auto [o, held] = shim_.caps_.access(self_, obj);
    if (!o) {
        st = core::Status(core::Errc::NotFound, "unknown object",
                          shim_.puId());
    } else if (!hasPerm(held, Perm::Read) && !hasPerm(held, Perm::Write)) {
        st = core::Status(core::Errc::NoPermission,
                          "close needs read or write", shim_.puId());
    } else {
        XpuShim &home = shim_.net_.shimOn(o->homePu);
        XpuShim::HomedFifo *homed = home.findHomed(obj);
        if (homed && --homed->refCount <= 0) {
            home.closeHomed(obj);
            // Reclamation tolerates staleness: batch it (§5 "Lazy
            // synchronization").
            SyncMessage msg;
            msg.op = SyncOp::RemoveObject;
            msg.objId = obj;
            co_await home.applyCost();
            const bool full = home.queueLazy(msg);
            if (full)
                co_await home.flushLazy();
        }
    }
    co_await leaveCall(8);
    co_return st;
}

sim::Task<core::Expected<XpuPid>>
XpuClient::xspawn(PuId target, const std::string &path,
                  const std::vector<CapGrant> &capv,
                  std::uint64_t memBytes)
{
    // xSpawn grants nothing implicitly (§3.4): only capv.
    std::string owned_path = path;
    std::vector<CapGrant> owned_capv = capv;
    obs::Span span(ctx_, "xpu.xspawn", obs::Layer::Xpu, shim_.puId());
    co_await enterCall(64 + owned_path.size());
    co_await shim_.acquireHandler();
    co_await shim_.handlerBurst();
    XpuShimNetwork &net = shim_.net_;
    const PuId here = shim_.puId();
    core::Expected<XpuPid> r = XpuPid{};
    if (!net.hasShim(target)) {
        r = core::Error(core::Errc::NotFound, "no shim on target PU",
                        target);
    } else if (net.puDown(target)) {
        r = core::Error(core::Errc::PuCrashed, "target PU is down",
                        target);
    } else {
        XpuShim &remote = net.shimOn(target);
        {
            XpuShimNetwork::Hop hop(net, here, target,
                                    64 + owned_path.size(), span.ctx());
            while (hop.pending())
                co_await hop.step();
        }
        co_await remote.acquireHandler();
        co_await remote.handlerBurst();
        os::Process *proc = co_await remote.localOs().spawnProcess(
            owned_path, memBytes, span.ctx());
        if (!proc) {
            r = core::Error(core::Errc::NoMemory,
                            "spawn exceeds PU memory", target);
            XpuShimNetwork::Hop back(net, target, here, 16, span.ctx());
            while (back.pending())
                co_await back.step();
        } else {
            const XpuPid child{target, proc->pid()};
            // No implicit permission inheritance: only capv is granted
            // (§3.4), synchronized immediately like any capability
            // update.
            for (const CapGrant &g : owned_capv) {
                SyncMessage msg;
                msg.op = SyncOp::Grant;
                msg.pid = child;
                msg.objId = g.obj;
                msg.perm = g.perm;
                XpuShim::ImmediateSync sync(remote, msg, span.ctx());
                co_await remote.applyCost();
                sync.deliver();
                co_await sync.wait();
            }
            if (const auto *hook = net.findProgram(owned_path))
                (*hook)(remote, *proc);
            r = child;
            XpuShimNetwork::Hop back(net, target, here, 24, span.ctx());
            while (back.pending())
                co_await back.step();
        }
    }
    co_await leaveCall(16);
    co_return r;
}

ObjId
XpuClient::objectOf(XpuFd fd) const
{
    const FdEntry *entry = findFd(fd);
    return entry == nullptr ? 0 : entry->obj;
}

} // namespace molecule::xpu
