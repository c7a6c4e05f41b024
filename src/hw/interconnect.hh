/**
 * @file
 * Interconnect model: links between PUs and route lookup.
 *
 * The paper's prototype exports exactly three physical paths (§5):
 * RDMA between CPU and DPU, DMA between CPU and FPGA, and a
 * CPU-intercepted two-hop path between DPU and FPGA. We also model
 * same-PU shared memory and the datacenter network (remote IPC
 * baseline of Fig 4).
 */

#ifndef MOLECULE_HW_INTERCONNECT_HH
#define MOLECULE_HW_INTERCONNECT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/state.hh"
#include "hw/calibration.hh"
#include "obs/trace.hh"
#include "sim/analysis.hh"
#include "sim/sync.hh"

namespace molecule::hw {

/** Physical transport backing a link. */
enum class LinkKind { Shmem, PcieRdma, PcieDma, Ethernet };

const char *toString(LinkKind k);

/** Latency/bandwidth parameters of one link. */
struct LinkParams
{
    LinkKind kind = LinkKind::Shmem;
    sim::SimTime baseLatency;
    double gbps = 1.0;
    double jitterRel = calib::kLinkJitter;

    /** Canonical parameters for a link kind (from the calibration). */
    static LinkParams forKind(LinkKind kind);
};

/**
 * A point-to-point link. transfer() is the only operation: it costs
 * base latency plus a bandwidth term, with multiplicative jitter from
 * the simulation RNG.
 */
class Link
{
  public:
    Link(sim::Simulation &sim, LinkParams params)
        : sim_(sim), params_(params)
    {}

    const LinkParams &params() const { return params_; }

    /** Latency of moving @p bytes across the link (no contention). */
    sim::SimTime transferLatency(std::uint64_t bytes) const;

    /**
     * Move @p bytes across the link: the byte count and the jitter
     * draw happen at call time, and the returned awaiter suspends for
     * the latency, so co_await it at once. @p degrade multiplies the jittered latency (injected link
     * faults); 1.0 — the only value in fault-free runs — is applied
     * as a no-op so healthy timings are bit-identical.
     */
    sim::Simulation::DelayAwaiter transfer(std::uint64_t bytes,
                                           double degrade = 1.0);

    /** Total bytes moved (stats). */
    std::uint64_t bytesMoved() const { return bytesMoved_.peek(); }

  private:
    sim::Simulation &sim_;
    LinkParams params_;
    /** Tracked: two same-tick transfers on one link are ordered only
     * by the event tie-break (matters once contention is modelled). */
    sim::analysis::Tracked<std::uint64_t> bytesMoved_{0, "link.bytes"};
};

/**
 * A route between two PUs: one or two links plus an optional forwarding
 * cost at the intermediate PU (CPU-intercepted path, §5 Limitations).
 */
struct Route
{
    std::vector<Link *> hops;
    /** Software forwarding cost charged per intermediate PU. */
    sim::SimTime forwardCost;

    bool direct() const { return hops.size() <= 1; }
};

/**
 * All-pairs connectivity of one heterogeneous computer.
 *
 * Routes are registered explicitly by the computer builder; lookups for
 * an unregistered pair are a configuration error (fatal).
 */
class Topology
{
  public:
    explicit Topology(sim::Simulation &sim) : sim_(sim) {}

    /** Create and own a link; returns a stable pointer. */
    Link *makeLink(LinkParams params);

    /** Register the route from PU @p a to PU @p b (directional). */
    void addRoute(int a, int b, Route route);

    /** Register symmetric single-link routes in both directions. */
    void addBidirectional(int a, int b, Link *link);

    /** Look up the route a -> b. */
    const Route &route(int a, int b) const;

    bool hasRoute(int a, int b) const;

    /**
     * One a -> b move, stepped by the coroutine that owns it:
     *
     *   Topology::Transfer t(topo, a, b, bytes, ctx);
     *   while (t.pending())
     *       co_await t.step();
     *
     * It opens the "hw.link" span and closes it when destroyed. Each
     * step is one delay of the route (a link-down stall, a
     * store-and-forward pause or a hop), drawn when it is taken. A
     * caller that already owns a frame (XpuShimNetwork::transfer)
     * thus moves bytes without a nested one.
     */
    class Transfer
    {
      public:
        Transfer(Topology &topo, int a, int b, std::uint64_t bytes,
                 const obs::SpanContext &ctx);

        /** Delays remain to be taken. */
        bool
        pending() const
        {
            return stall_ > sim::SimTime(0) || hop_ < route_->hops.size();
        }

        /** The next delay; co_await it at once. */
        sim::Simulation::DelayAwaiter step();

      private:
        Topology &topo_;
        obs::Span span_;
        const Route *route_;
        std::uint64_t bytes_;
        /** Link-down stall still to be taken. */
        sim::SimTime stall_{};
        /** Fault record read for degradation once the stall is over. */
        const fault::LinkFault *fault_ = nullptr;
        double degrade_ = 1.0;
        std::size_t hop_ = 0;
        /** The forwarding pause before hop_ was taken. */
        bool forwarded_ = false;
    };

    /**
     * Move @p bytes from PU @p a to PU @p b across every hop of the
     * route, charging forwarding costs at intermediate PUs (one
     * Transfer, stepped in a frame of its own).
     */
    sim::Task<> transfer(int a, int b, std::uint64_t bytes,
                         obs::SpanContext ctx = {});

    /** Closed-form latency of the a -> b route (no contention). */
    sim::SimTime transferLatency(int a, int b, std::uint64_t bytes) const;

    /**
     * Consult @p faults before every transfer: a dropped link stalls
     * transfers until it returns; a degraded link multiplies hop
     * latencies. Null (the default) means no fault model — transfers
     * take the exact pre-fault code path.
     */
    void attachFaults(const fault::FaultState *faults)
    {
        faults_ = faults;
    }

  private:
    sim::Simulation &sim_;
    const fault::FaultState *faults_ = nullptr;
    std::vector<std::unique_ptr<Link>> links_;
    /** Dense PU x PU table, row-major over puSpan_ ids; a route with
     * no hops marks an unregistered pair. */
    std::vector<Route> routes_;
    std::size_t puSpan_ = 0;
};

} // namespace molecule::hw

#endif // MOLECULE_HW_INTERCONNECT_HH
