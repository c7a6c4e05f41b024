/**
 * @file
 * Function definitions and the platform registry (§4.1).
 *
 * Unlike one-fits-all resource models, Molecule lets the user list the
 * PU kinds a function may run on, with per-kind prices (profiles); the
 * control plane picks a concrete PU per request (§5 "Profile
 * selections").
 */

#ifndef MOLECULE_CORE_FUNCTION_HH
#define MOLECULE_CORE_FUNCTION_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "hw/pu.hh"
#include "workloads/catalog.hh"

namespace molecule::core {

/** One deployment profile of a function. */
struct Profile
{
    hw::PuType kind = hw::PuType::HostCpu;
    /** Price per 100 ms of execution, in arbitrary credit units. */
    double pricePer100ms = 1.0;
};

/** Dense function id: 0, 1, 2, ... in first-registration order. */
using FnId = std::uint32_t;

/** Id of a definition that was never registered. */
inline constexpr FnId kNoFn = ~FnId(0);

/** A registered serverless function. */
struct FunctionDef
{
    std::string name;
    /** Set by FunctionRegistry::add. */
    FnId id = kNoFn;
    /** Execution model on general-purpose PUs (null: accel-only). */
    const workloads::CpuWorkload *cpuWork = nullptr;
    /** Execution model on FPGAs (null: no FPGA profile). */
    const workloads::FpgaWorkload *fpgaWork = nullptr;
    /** FPGA size parameter (bytes/entries) used per invocation. */
    std::uint64_t fpgaUnits = 1;
    /** GPU kernel time per invocation (zero: no GPU profile). */
    sim::SimTime gpuKernelTime;
    /** GPU per-invocation DMA bytes (in and out). */
    std::uint64_t gpuIoBytes = 0;
    std::vector<Profile> profiles;

    bool
    allows(hw::PuType kind) const
    {
        for (const auto &p : profiles)
            if (p.kind == kind)
                return true;
        return false;
    }
};

/** Definitions interned by name to FnIds. Re-adding a name replaces
 * the definition in place: same id, same address. */
class FunctionRegistry
{
  public:
    /** Register (or replace) a function definition. */
    void add(FunctionDef def);

    const FunctionDef &find(const std::string &name) const;

    /** Lookup without the fatal-on-missing contract of find(). */
    const FunctionDef *findPtr(std::string_view name) const;

    bool has(const std::string &name) const;

    /** Definition of a registered id. */
    const FunctionDef &at(FnId id) const { return defs_[id]; }

    /** Name of a registered id, from a dense table (no definition is
     * touched). */
    std::string_view name(FnId id) const { return names_[id]; }

    /** Bumped by every add() of @p id (cache invalidation). */
    std::uint32_t revision(FnId id) const { return revisions_[id]; }

    std::size_t size() const { return defs_.size(); }

    /** Every id in name order: the order ties are broken in. */
    const std::vector<FnId> &idsByName() const { return idsByName_; }

    /** CPU/DPU images usable to seed per-language cfork templates. */
    std::vector<const sandbox::FunctionImage *>
    imagesForTemplates() const;

  private:
    std::deque<FunctionDef> defs_;
    std::vector<std::uint32_t> revisions_;
    std::map<std::string, FnId, std::less<>> byName_;
    /** names_[id] views byName_'s key, which never moves. */
    std::vector<std::string_view> names_;
    std::vector<FnId> idsByName_;
};

} // namespace molecule::core

#endif // MOLECULE_CORE_FUNCTION_HH
