/**
 * @file
 * Distributed capabilities (§3.2).
 *
 * XPU-Shim manages global resources with two distributed objects:
 * CAP_Group (the capability list of a process) and IPC objects
 * (XPU-FIFO endpoints). Capability updates synchronize *immediately*
 * across PUs (§5 "Inter-PU synchronization") so every permission check
 * is a purely local lookup; this store is the per-shim replica.
 */

#ifndef MOLECULE_XPU_CAPABILITY_HH
#define MOLECULE_XPU_CAPABILITY_HH

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/analysis.hh"
#include "sim/flat_map.hh"
#include "xpu/types.hh"

namespace molecule::xpu {

/** Kind of a distributed object. */
enum class ObjType { Ipc, CapGroup };

/** Descriptor of a distributed object, replicated on every shim. */
struct DistributedObject
{
    ObjId id = 0;
    ObjType type = ObjType::Ipc;
    XpuPid owner;
    /** Home PU for IPC objects (where the backing queue lives). */
    PuId homePu = -1;
    /** Global UUID for IPC objects (xfifo_connect key). */
    std::string uuid;
};

/**
 * An object's descriptor as the shims pass it around: built once by
 * the creating shim and shared, immutable, by the SyncMessages in
 * flight and by every replica that registers it.
 */
using ObjectRef = std::shared_ptr<const DistributedObject>;

/**
 * Per-process capability list (the CAP_Group object's payload): a
 * flat list of (object, permission bits). A process holds a handful
 * of capabilities, so a scan beats hashing and reuses its storage.
 */
class CapGroup
{
  public:
    CapGroup() = default;

    explicit CapGroup(XpuPid pid) : pid_(pid) {}

    XpuPid pid() const { return pid_; }

    /** Add permission bits for an object; true when this creates
     * the entry. */
    bool add(ObjId obj, Perm perm);

    /** Remove permission bits; drops the entry when nothing is left
     * and returns true then. */
    bool remove(ObjId obj, Perm perm);

    /** Forget every permission on @p obj. */
    void drop(ObjId obj);

    /** Permission bits this process holds on @p obj. */
    Perm lookup(ObjId obj) const;

    bool has(ObjId obj, Perm need) const
    {
        return hasPerm(lookup(obj), need);
    }

    std::size_t size() const { return caps_.size(); }

    /** Empty the list for a new owner, keeping its storage. */
    void
    reuseFor(XpuPid pid)
    {
        pid_ = pid;
        caps_.clear();
    }

  private:
    using Cap = std::pair<ObjId, Perm>;

    std::vector<Cap>::iterator find(ObjId obj);

    XpuPid pid_;
    std::vector<Cap> caps_;
};

/**
 * One shim's replica of the global capability/object state.
 *
 * Object-id allocation is statically partitioned by PU (ids carry the
 * allocating PU in their high bits) so allocation never synchronizes,
 * mirroring the pid scheme.
 */
class CapabilityStore
{
  public:
    explicit CapabilityStore(PuId self) : self_(self) {}

    /** Allocate a fresh object id in this PU's partition. */
    ObjId allocateId();

    /** @name Replicated state updates (applied locally and on sync) */
    ///@{

    /** Register (or overwrite) a distributed object descriptor. */
    void registerObject(ObjectRef obj);

    /** registerObject() of a private copy of @p obj. */
    void registerObject(const DistributedObject &obj);

    /** Forget an object and every grant on it; CAP_Groups left
     * empty, by this removal or by an earlier revoke, are dropped. */
    void removeObject(ObjId id);

    /** Apply a capability grant. Creates the CAP_Group on demand. */
    void applyGrant(XpuPid pid, ObjId obj, Perm perm);

    /** Apply a capability revoke. */
    void applyRevoke(XpuPid pid, ObjId obj, Perm perm);

    /** Drop the whole replica (PU crash: reboot loses local state). */
    void reset();

    /** Re-populate from a live peer's replica (restart recovery). */
    void cloneFrom(const CapabilityStore &peer);
    ///@}

    /** @name Local queries (always synchronous, §5) */
    ///@{

    const DistributedObject *findObject(ObjId id) const;

    const DistributedObject *findByUuid(std::string_view uuid) const;

    /** Permission check: does @p pid hold @p need on @p obj? */
    bool check(XpuPid pid, ObjId obj, Perm need) const;

    Perm lookup(XpuPid pid, ObjId obj) const;

    std::size_t objectCount() const { return registered_; }

    std::size_t groupCount() const { return groups_.size(); }
    ///@}

  private:
    /**
     * One object id's row: its descriptor once registered, and the
     * holder index — the groups with an entry for the object, in
     * grant order, so removeObject visits only these. A grant may
     * precede the registration, so a row can hold holders and no
     * descriptor.
     */
    struct ObjectEntry
    {
        ObjectRef desc;
        std::vector<std::uint64_t> holders;
    };

    /** A uuid's row. The key views keyOwner's uuid, so the row keeps
     * those characters alive itself: it may outlive the object it was
     * made for (see registerObject). */
    struct UuidEntry
    {
        ObjId id = 0;
        ObjectRef keyOwner;
    };

    /** Row of @p id, created on demand. */
    ObjectEntry &objectRow(ObjId id);

    /** Erase @p id's row, keeping its holder buffer for reuse. */
    void eraseObjectRow(ObjId id);

    PuId self_;
    std::uint64_t nextLocal_ = 1;
    // No replica table is iterated, so row order never reaches a
    // result. An erased row drops its descriptors and keeps its
    // buffers for the next insert (sim/flat_map.hh).
    sim::FlatMap<ObjId, ObjectEntry> objects_;
    sim::FlatMap<std::string_view, UuidEntry, std::hash<std::string_view>>
        byUuid_;
    sim::FlatMap<std::uint64_t, CapGroup> groups_; // XpuPid::encode()
    /** Rows with a descriptor. */
    std::size_t registered_ = 0;
    /** Groups a revoke left empty. They stay until the next
     * removeObject, which drops every empty group. */
    std::vector<std::uint64_t> emptied_;
    /** Replica version: bumped by every replicated-state update, read
     * by every local query. A same-tick update/check pair on one
     * replica depends only on the event tie-break — the exact hazard
     * behind "immediate synchronization" (§5). */
    sim::analysis::Tracked<std::uint64_t> version_{0, "xpu.caps"};
};

} // namespace molecule::xpu

#endif // MOLECULE_XPU_CAPABILITY_HH
