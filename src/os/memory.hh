/**
 * @file
 * Region-based memory accounting.
 *
 * The cfork experiments (Fig 11-b/c) and the density experiment
 * (Fig 2-a) hinge on how much memory instances *share*. We model an
 * address space as a set of mapped regions: a region is a contiguous
 * chunk of resident pages shared by any number of address spaces.
 *
 *  - RSS of a process = sum of bytes of all mapped regions (resident
 *    pages, shared or not).
 *  - PSS of a process = private bytes + shared bytes / #sharers, the
 *    Linux definition.
 *  - fork() maps the parent's regions copy-on-write; a COW *touch*
 *    moves bytes from the shared region into a private region (and
 *    costs page faults, charged by the OS layer).
 *
 * Physical memory is accounted once per region at the machine level,
 * which is what makes DPU instance density benefit from cfork sharing.
 *
 * Approximation: a COW copy leaves the region's sharer count untouched
 * (per-byte sharer tracking would be overkill), so after copies the sum
 * of PSS across processes undercounts physical memory by at most the
 * copied bytes. The direction and bound are asserted by the property
 * test in tests/os/memory_test.cc.
 */

#ifndef MOLECULE_OS_MEMORY_HH
#define MOLECULE_OS_MEMORY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/spares.hh"

namespace molecule::os {

/**
 * A chunk of resident physical memory, possibly mapped by several
 * address spaces. Created through AddressSpace; the physical-memory
 * callbacks let the owner (LocalOs) charge the PU budget exactly once
 * per region.
 */
class MemRegion
{
  public:
    const std::string &label() const { return label_; }

    std::uint64_t bytes() const { return bytes_; }

    int sharers() const { return sharers_; }

  private:
    friend class AddressSpace;

    std::string label_;
    std::uint64_t bytes_ = 0;
    int sharers_ = 0;
};

using MemRegionPtr = std::shared_ptr<MemRegion>;

/**
 * Per-process view of memory: a set of region mappings, each with a
 * copied-on-write byte count.
 */
class AddressSpace
{
  public:
    /** Called with +bytes when a region becomes resident, -bytes when
     *  the last mapping goes away. Set by LocalOs to charge the PU. */
    using PhysicalHook = std::function<bool(std::int64_t)>;

    /** @p pool keeps the records of regions whose last mapping went,
     * for mapPrivate; it must outlive this address space. @p hook may
     * be empty (no physical charge). */
    AddressSpace(PhysicalHook hook, sim::SpareRecords<MemRegion> &pool)
        : hook_(std::move(hook)), pool_(&pool)
    {}

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;
    AddressSpace(AddressSpace &&) = default;
    AddressSpace &operator=(AddressSpace &&) = default;

    ~AddressSpace() { clear(); }

    /**
     * Allocate a fresh private region.
     * @return the region, or nullptr when physical memory is exhausted.
     */
    MemRegionPtr mapPrivate(std::string_view label, std::uint64_t bytes);

    /**
     * Map an existing region (shared mapping). No physical charge.
     */
    void mapShared(const MemRegionPtr &region);

    /** Unmap one region (releases physical memory with the last map). */
    void unmap(const MemRegionPtr &region);

    /**
     * Copy-on-write fault @p bytes of @p region into private memory.
     * Capped at the region size. @return pages actually copied, or -1
     * when physical memory for the copies is exhausted.
     */
    std::int64_t touchCow(const MemRegionPtr &region, std::uint64_t bytes);

    /**
     * Fork this address space into @p child: every mapping becomes a
     * shared mapping of the same regions (COW semantics); copied
     * overlays in the parent stay parent-private and are modelled as
     * re-shared (they form part of the regions again for simplicity).
     * The child has room reserved for one more (private) mapping.
     */
    void forkInto(AddressSpace &child) const;

    /** Resident set size: all mapped resident bytes. */
    std::uint64_t rss() const;

    /** Proportional set size: private + shared/sharers. */
    double pss() const;

    /** Bytes mapped only by this address space. */
    std::uint64_t privateBytes() const;

    /** Drop all mappings. */
    void clear();

    std::size_t mappingCount() const { return mappings_.size(); }

    /** Find a mapped region by label (nullptr when absent). */
    MemRegionPtr findRegion(std::string_view label) const;

  private:
    struct Mapping
    {
        MemRegionPtr region;
        /** Bytes of this region privately copied after a COW fault. */
        std::uint64_t copied = 0;
    };

    bool chargePhysical(std::int64_t delta);

    PhysicalHook hook_;
    sim::SpareRecords<MemRegion> *pool_;
    std::vector<Mapping> mappings_;
};

} // namespace molecule::os

#endif // MOLECULE_OS_MEMORY_HH
