#include "hw/interconnect.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace molecule::hw {

const char *
toString(LinkKind k)
{
    switch (k) {
      case LinkKind::Shmem:
        return "shmem";
      case LinkKind::PcieRdma:
        return "rdma";
      case LinkKind::PcieDma:
        return "dma";
      case LinkKind::Ethernet:
        return "ethernet";
    }
    return "?";
}

LinkParams
LinkParams::forKind(LinkKind kind)
{
    LinkParams p;
    p.kind = kind;
    switch (kind) {
      case LinkKind::Shmem:
        p.baseLatency = calib::kShmemBaseLatency;
        p.gbps = calib::kShmemGbps;
        break;
      case LinkKind::PcieRdma:
        p.baseLatency = calib::kRdmaBaseLatency;
        p.gbps = calib::kRdmaGbps;
        break;
      case LinkKind::PcieDma:
        p.baseLatency = calib::kDmaBaseLatency;
        p.gbps = calib::kDmaGbps;
        break;
      case LinkKind::Ethernet:
        p.baseLatency = calib::kNetworkBaseLatency;
        p.gbps = calib::kNetworkGbps;
        break;
    }
    return p;
}

sim::SimTime
Link::transferLatency(std::uint64_t bytes) const
{
    const double seconds =
        double(bytes) * 8.0 / (params_.gbps * 1e9);
    return params_.baseLatency + sim::SimTime::fromSeconds(seconds);
}

sim::Simulation::DelayAwaiter
Link::transfer(std::uint64_t bytes, double degrade)
{
    bytesMoved_.fetchAdd(bytes);
    const auto base = transferLatency(bytes);
    auto jittered = base * sim_.rng().jitter(params_.jitterRel);
    // Apply injected degradation only when armed: the healthy path
    // must not round through an extra multiply.
    if (degrade != 1.0)
        jittered = jittered * degrade;
    return sim_.delay(jittered);
}

Link *
Topology::makeLink(LinkParams params)
{
    links_.push_back(std::make_unique<Link>(sim_, params));
    return links_.back().get();
}

void
Topology::addRoute(int a, int b, Route route)
{
    MOLECULE_ASSERT(!route.hops.empty(), "route %d->%d has no hops", a, b);
    MOLECULE_ASSERT(a >= 0 && b >= 0, "route %d->%d has a negative PU",
                    a, b);
    const std::size_t need = std::size_t(std::max(a, b)) + 1;
    if (need > puSpan_) {
        std::vector<Route> grown(need * need);
        for (std::size_t i = 0; i < puSpan_; ++i)
            for (std::size_t j = 0; j < puSpan_; ++j)
                grown[i * need + j] = std::move(routes_[i * puSpan_ + j]);
        routes_ = std::move(grown);
        puSpan_ = need;
    }
    routes_[std::size_t(a) * puSpan_ + std::size_t(b)] = std::move(route);
}

void
Topology::addBidirectional(int a, int b, Link *link)
{
    addRoute(a, b, Route{{link}, sim::SimTime(0)});
    addRoute(b, a, Route{{link}, sim::SimTime(0)});
}

const Route &
Topology::route(int a, int b) const
{
    if (!hasRoute(a, b))
        sim::fatal("no route between PU %d and PU %d", a, b);
    return routes_[std::size_t(a) * puSpan_ + std::size_t(b)];
}

bool
Topology::hasRoute(int a, int b) const
{
    return a >= 0 && b >= 0 && std::size_t(a) < puSpan_ &&
           std::size_t(b) < puSpan_ &&
           !routes_[std::size_t(a) * puSpan_ + std::size_t(b)].hops.empty();
}

Topology::Transfer::Transfer(Topology &topo, int a, int b,
                             std::uint64_t bytes,
                             const obs::SpanContext &ctx)
    : topo_(topo), span_(ctx, "hw.link", obs::Layer::Hw, a),
      route_(&topo.route(a, b)), bytes_(bytes)
{
    span_.setArg(std::int64_t(bytes));
    if (topo.faults_ == nullptr)
        return;
    fault_ = topo.faults_->linkFault(a, b);
    if (fault_ != nullptr && fault_->downUntil > topo.sim_.now()) {
        // Full drop: the transfer stalls until the link returns (flap
        // semantics, not loss).
        span_.setDetail("link-down-stall");
        stall_ = fault_->downUntil - topo.sim_.now();
    }
}

sim::Simulation::DelayAwaiter
Topology::Transfer::step()
{
    if (stall_ > sim::SimTime(0)) {
        const sim::SimTime stall = stall_;
        stall_ = sim::SimTime(0);
        return topo_.sim_.delay(stall);
    }
    if (fault_ != nullptr) {
        if (fault_->degradedUntil > topo_.sim_.now())
            degrade_ = fault_->factor;
        fault_ = nullptr;
    }
    if (hop_ > 0 && !forwarded_ && route_->forwardCost > sim::SimTime(0)) {
        // Store-and-forward at the intermediate PU.
        forwarded_ = true;
        return topo_.sim_.delay(route_->forwardCost);
    }
    forwarded_ = false;
    return route_->hops[hop_++]->transfer(bytes_, degrade_);
}

sim::Task<>
Topology::transfer(int a, int b, std::uint64_t bytes,
                   obs::SpanContext ctx)
{
    Transfer t(*this, a, b, bytes, ctx);
    while (t.pending())
        co_await t.step();
}

sim::SimTime
Topology::transferLatency(int a, int b, std::uint64_t bytes) const
{
    const Route &r = route(a, b);
    sim::SimTime total(0);
    bool first = true;
    for (Link *hop : r.hops) {
        if (!first)
            total += r.forwardCost;
        first = false;
        total += hop->transferLatency(bytes);
    }
    return total;
}

} // namespace molecule::hw
