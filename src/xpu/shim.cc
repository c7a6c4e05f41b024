#include "xpu/shim.hh"

#include <algorithm>

#include "hw/calibration.hh"
#include "sim/logging.hh"

namespace molecule::xpu {

namespace calib = hw::calib;

XpuShim::XpuShim(XpuShimNetwork &net, os::LocalOs &os,
                 TransportKind transport)
    : net_(net), os_(os), transport_(transport), caps_(os.pu().id())
{
    handlerSlots_ =
        std::make_unique<sim::Semaphore>(os.simulation(), 1);
}

void
XpuShim::setHandlerThreads(int n)
{
    MOLECULE_ASSERT(n > 0, "shim needs at least one handler thread");
    handlerThreads_ = n;
    handlerSlots_ =
        std::make_unique<sim::Semaphore>(os_.simulation(),
                                         std::size_t(n));
}

PuId
XpuShim::puId() const
{
    return os_.pu().id();
}

XpuShim::HandlerBurst
XpuShim::handlerBurst()
{
    return HandlerBurst(*handlerSlots_,
                        os_.swDelay(calib::kShimHandleCost));
}

sim::Simulation::DelayAwaiter
XpuShim::applyCost()
{
    return os_.swDelay(calib::kSyncApplyCost);
}

void
XpuShim::apply(const SyncMessage &msg)
{
    switch (msg.op) {
      case SyncOp::RegisterObject:
        caps_.registerObject(msg.obj);
        // Replicating owner capabilities with the object keeps every
        // permission check local (§5 "Immediate synchronization").
        caps_.applyGrant(msg.obj->owner, msg.obj->id,
                         Perm::Read | Perm::Write | Perm::Owner);
        break;
      case SyncOp::RemoveObject:
        caps_.removeObject(msg.objId);
        break;
      case SyncOp::Grant:
        caps_.applyGrant(msg.pid, msg.objId, msg.perm);
        break;
      case SyncOp::Revoke:
        caps_.applyRevoke(msg.pid, msg.objId, msg.perm);
        break;
    }
}

namespace {

/** One peer delivery: request hop, remote apply, ack hop. @p msg
 * is the broadcaster's, which awaits every delivery. */
sim::Task<>
deliverToPeer(XpuShimNetwork &net, PuId from, PuId to,
              const SyncMessage *msg, obs::SpanContext ctx)
{
    {
        XpuShimNetwork::Hop hop(net, from, to, msg->wireBytes(), ctx);
        while (hop.pending())
            co_await hop.step();
    }
    XpuShim &peer = net.shimOn(to);
    co_await peer.applyCost();
    peer.apply(*msg);
    XpuShimNetwork::Hop ack(net, to, from, 16, ctx);
    while (ack.pending())
        co_await ack.step();
}

} // namespace

XpuShim::ImmediateSync::ImmediateSync(XpuShim &shim,
                                      const SyncMessage &msg,
                                      obs::SpanContext ctx)
    : shim_(shim), msg_(msg),
      span_(ctx, "xpu.sync", obs::Layer::Xpu, shim.puId()),
      deliveries_(shim.os_.simulation())
{}

void
XpuShim::ImmediateSync::deliver()
{
    // Apply locally first, then deliver to every peer concurrently;
    // wait() resumes once all have acked.
    shim_.apply(msg_);
    XpuShimNetwork &net = shim_.net_;
    for (XpuShim *peer : net.allShims()) {
        if (peer == &shim_)
            continue;
        // Crashed peers drop their replica anyway; they resync from a
        // live shim at restart instead of acking now (never hang).
        if (net.puDown(peer->puId()))
            continue;
        ++shim_.syncSent_;
        deliveries_.spawn(deliverToPeer(net, shim_.puId(), peer->puId(),
                                        &msg_, span_.ctx()));
    }
    span_.setArg(std::int64_t(deliveries_.pending()));
}

bool
XpuShim::queueLazy(const SyncMessage &msg)
{
    // Lazy path (§5): apply locally, batch the remote update. Stale
    // remote state is harmless for reclamation; batching amortizes the
    // wire cost.
    apply(msg);
    lazyEpoch_.fetchAdd(1);
    lazyQueue_.push_back(msg);
    return lazyQueue_.size() >= kLazyBatch;
}

sim::Task<>
XpuShim::flushLazy()
{
    if (lazyQueue_.empty())
        co_return;
    lazyEpoch_.fetchAdd(1);
    // Flushes may overlap, so each borrows its own batch vector.
    std::vector<SyncMessage> batch = spareBatches_.take();
    batch.swap(lazyQueue_);
    std::uint64_t bytes = 0;
    for (const auto &m : batch)
        bytes += m.wireBytes();
    for (XpuShim *peer : net_.allShims()) {
        if (peer == this)
            continue;
        if (net_.puDown(peer->puId()))
            continue;
        ++syncSent_;
        {
            XpuShimNetwork::Hop hop(net_, puId(), peer->puId(), bytes, {});
            while (hop.pending())
                co_await hop.step();
        }
        for (const auto &m : batch) {
            co_await peer->applyCost();
            peer->apply(m);
        }
    }
    batch.clear();
    spareBatches_.put(std::move(batch));
}

void
XpuShim::openHomed(Descriptor desc)
{
    const ObjId obj = desc->id;
    spareHomed_.insertInto(queues_, [&](HomedFifo &homed) {
        if (homed.queue == nullptr)
            homed.queue = std::make_unique<Queue>(os_.simulation());
        homed.refCount = 1;
        homed.desc = std::move(desc);
        return obj;
    });
}

void
XpuShim::closeHomed(ObjId obj)
{
    HomedQueues::node_type node = queues_.extract(obj);
    retiredObjects_.put(std::move(node.mapped().desc));
    // Only an idle queue is reused; one still holding messages or
    // readers goes, as its FIFO does.
    const Queue &queue = *node.mapped().queue;
    if (queue.empty() && queue.waitingGetters() == 0)
        spareHomed_.put(std::move(node));
}

XpuShim::HomedFifo *
XpuShim::findHomed(ObjId obj)
{
    auto it = queues_.find(obj);
    return it == queues_.end() ? nullptr : &it->second;
}

core::Status
XpuShim::deliverLocal(ObjId obj, std::uint64_t bytes,
                      const std::string &tag)
{
    HomedFifo *homed = findHomed(obj);
    if (!homed)
        return core::Status(core::Errc::NotFound, "fifo not homed here",
                            puId());
    // Homed queues are unbounded: the put never waits.
    (void)homed->queue->tryPut(os::FifoMessage{bytes, tag});
    return core::Status();
}

void
XpuShim::crashLocal()
{
    // Wake every blocked getter with a fault sentinel, then retire the
    // queue to the graveyard: woken coroutines resume strictly later
    // in the tick and still touch the mailbox.
    // Poison in ObjId order: the wake-up order is visible in results.
    std::vector<ObjId> ids;
    ids.reserve(queues_.size());
    for (const auto &entry : queues_)
        ids.push_back(entry.first);
    std::sort(ids.begin(), ids.end());
    for (ObjId id : ids) {
        auto &queue = queues_.at(id).queue;
        const std::size_t waiting = queue->waitingGetters();
        for (std::size_t i = 0; i < waiting; ++i)
            queue->tryPut(os::FifoMessage{0, "!fault:pu-crash"});
        deadQueues_.bury(std::move(queue));
    }
    queues_.clear();
    lazyQueue_.clear();
    caps_.reset();
}

void
XpuShim::resyncFrom(XpuShim &peer)
{
    caps_.cloneFrom(peer.caps());
}

XpuShim *
XpuShimNetwork::addShim(os::LocalOs &os, TransportKind transport)
{
    const PuId pu = os.pu().id();
    MOLECULE_ASSERT(pu >= 0 && !hasShim(pu), "PU %d already has a shim",
                    pu);
    if (std::size_t(pu) >= shims_.size())
        shims_.resize(std::size_t(pu) + 1);
    shims_[std::size_t(pu)] =
        std::make_unique<XpuShim>(*this, os, transport);
    ordered_.clear();
    for (const auto &shim : shims_)
        if (shim)
            ordered_.push_back(shim.get());
    return shims_[std::size_t(pu)].get();
}

XpuShim &
XpuShimNetwork::shimOn(PuId pu)
{
    if (!hasShim(pu))
        sim::fatal("no XPU-Shim on PU %d", pu);
    return *shims_[std::size_t(pu)];
}

bool
XpuShimNetwork::hasShim(PuId pu) const
{
    return pu >= 0 && std::size_t(pu) < shims_.size() &&
           shims_[std::size_t(pu)] != nullptr;
}

void
XpuShimNetwork::registerProgram(const std::string &path, ProgramHook hook)
{
    programs_[path] = std::move(hook);
}

const XpuShimNetwork::ProgramHook *
XpuShimNetwork::findProgram(const std::string &path) const
{
    auto it = programs_.find(path);
    return it == programs_.end() ? nullptr : &it->second;
}

XpuShimNetwork::Hop::Hop(XpuShimNetwork &net, PuId from, PuId to,
                         std::uint64_t bytes, obs::SpanContext ctx)
    : span_(from == to ? obs::SpanContext{} : ctx, "nipc.transfer",
            obs::Layer::Xpu, from)
{
    if (from == to)
        return;
    span_.setArg(std::int64_t(bytes));
    link_.emplace(net.computer_.topology(), from, to, bytes, span_.ctx());
}

sim::Task<>
XpuShimNetwork::transfer(PuId from, PuId to, std::uint64_t bytes,
                         obs::SpanContext ctx)
{
    Hop hop(*this, from, to, bytes, ctx);
    while (hop.pending())
        co_await hop.step();
}

sim::SimTime
XpuShimNetwork::transferLatency(PuId from, PuId to,
                                std::uint64_t bytes) const
{
    if (from == to)
        return sim::SimTime(0);
    return computer_.topology().transferLatency(from, to, bytes);
}

} // namespace molecule::xpu
