/**
 * @file
 * Live fault state of one simulated computer.
 *
 * FaultState is the single source of truth the model layers consult:
 * the topology asks linkFault() before moving bytes, the FPGA runtime
 * asks consumeFpgaReconfigFailure() before flashing, the scheduler and
 * gateway ask puUp() before placing, and the XPU-Shim compares
 * puEpoch() snapshots to detect a peer reboot. Mutations come from the
 * Injector (plan-driven) or directly from tests.
 *
 * Listeners are how *recovery* hangs off fault events without the
 * fault layer knowing about the runtime: core::RecoveryManager
 * registers one and reacts (purge, resync, re-warm). Listener order is
 * registration order; all containers are ordered maps so iteration is
 * deterministic (lint wall: no unordered iteration feeding schedule).
 *
 * Zero-impact guarantee: a FaultState with nothing armed answers every
 * query with "healthy" through pure reads — no events, no RNG — so
 * attaching one to a fault-free run cannot move the golden digests.
 */

#ifndef MOLECULE_FAULT_STATE_HH
#define MOLECULE_FAULT_STATE_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hh"

namespace molecule::fault {

/** An armed link fault (times are absolute sim time). */
struct LinkFault
{
    /** Transfers stall (full drop) until this instant. */
    sim::SimTime downUntil{};
    /** Latencies multiply by `factor` until this instant. */
    sim::SimTime degradedUntil{};
    double factor = 1.0;
};

/** Recovery hook: react to fault events (see core/recovery.hh). */
class Listener
{
  public:
    virtual ~Listener() = default;

    virtual void onPuCrash(int pu) { (void)pu; }

    virtual void onPuRestart(int pu) { (void)pu; }

    virtual void
    onSandboxOom(int pu, const std::string &function)
    {
        (void)pu;
        (void)function;
    }
};

class FaultState
{
  public:
    FaultState() = default;

    FaultState(const FaultState &) = delete;
    FaultState &operator=(const FaultState &) = delete;

    /** @name Queries (model layers; pure reads) */
    ///@{
    bool
    puUp(int pu) const
    {
        const auto it = down_.find(pu);
        return it == down_.end() || !it->second;
    }

    /** Number of restarts this PU has been through. */
    std::uint64_t
    puEpoch(int pu) const
    {
        const auto it = epoch_.find(pu);
        return it == epoch_.end() ? 0 : it->second;
    }

    /** Armed fault on the (a, b) link, or nullptr (order-insensitive). */
    const LinkFault *
    linkFault(int a, int b) const
    {
        if (links_.empty())
            return nullptr;
        const auto it = links_.find(linkKey(a, b));
        return it == links_.end() ? nullptr : &it->second;
    }

    /** Consume one armed reconfig failure for @p pu's FPGA (if any). */
    bool
    consumeFpgaReconfigFailure(int pu)
    {
        const auto it = fpgaArmed_.find(pu);
        if (it == fpgaArmed_.end() || it->second <= 0)
            return false;
        --it->second;
        return true;
    }

    bool
    anyArmed() const
    {
        return !down_.empty() || !links_.empty() || !fpgaArmed_.empty();
    }
    ///@}

    /** @name Mutations (Injector / tests) */
    ///@{
    void
    crashPu(int pu)
    {
        down_[pu] = true;
        for (Listener *l : listeners_)
            l->onPuCrash(pu);
    }

    void
    restartPu(int pu)
    {
        down_[pu] = false;
        ++epoch_[pu];
        for (Listener *l : listeners_)
            l->onPuRestart(pu);
    }

    void
    setLinkFault(int a, int b, LinkFault fault)
    {
        links_[linkKey(a, b)] = fault;
    }

    void
    armFpgaReconfigFailure(int pu, int count)
    {
        fpgaArmed_[pu] += count;
    }

    /** Fire a sandbox OOM-kill event (recovery does the killing). */
    void
    oomKill(int pu, const std::string &function)
    {
        for (Listener *l : listeners_)
            l->onSandboxOom(pu, function);
    }
    ///@}

    /** Register @p l (not owned); notified in registration order. */
    void addListener(Listener *l) { listeners_.push_back(l); }

    /** Unregister @p l (a runtime being destroyed before the state). */
    void
    removeListener(Listener *l)
    {
        std::erase(listeners_, l);
    }

  private:
    static std::pair<int, int>
    linkKey(int a, int b)
    {
        return a <= b ? std::pair{a, b} : std::pair{b, a};
    }

    /** Ordered maps keep iteration deterministic. Keys are PUs and
     * links, so they stay small and bounded per run. */
    std::map<int, bool> down_;
    std::map<int, std::uint64_t> epoch_;
    std::map<std::pair<int, int>, LinkFault> links_;
    std::map<int, int> fpgaArmed_;
    std::vector<Listener *> listeners_;
};

} // namespace molecule::fault

#endif // MOLECULE_FAULT_STATE_HH
