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

/**
 * A global uuid and its std::hash value. Assignment sets both, so a
 * replica never hashes a descriptor's uuid again. An empty uuid names
 * nothing and is never looked up, so its hash stays 0.
 */
class Uuid
{
  public:
    Uuid &
    operator=(std::string_view text)
    {
        text_.assign(text);
        hash_ = std::hash<std::string_view>{}(text_);
        return *this;
    }

    const std::string &str() const { return text_; }

    /** Reads as the text, e.g. as a std::string map key. */
    operator const std::string &() const { return text_; }

    std::size_t hash() const { return hash_; }

    bool empty() const { return text_.empty(); }

    bool operator==(const Uuid &other) const { return text_ == other.text_; }

  private:
    std::string text_;
    std::size_t hash_ = 0;
};

/** Descriptor of a distributed object, replicated on every shim. */
struct DistributedObject
{
    ObjId id = 0;
    ObjType type = ObjType::Ipc;
    XpuPid owner;
    /** Home PU for IPC objects (where the backing queue lives). */
    PuId homePu = -1;
    /** Global UUID for IPC objects (xfifo_connect key). */
    Uuid uuid;
};

/**
 * An object's descriptor as the shims pass it around: built once by
 * the creating shim and shared, immutable, by the SyncMessages in
 * flight and by every replica that registers it.
 */
using ObjectRef = std::shared_ptr<const DistributedObject>;

/**
 * One shim's replica of the global capability/object state.
 *
 * Each object id's row holds the descriptor and the grants on it, so
 * a permission check is one probe and a scan of a few holders. A
 * process's CAP_Group is the set of rows that name it.
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

    /** Register (or overwrite) @p obj and grant its owner
     * @p ownerPerm, in one visit of the object's row. */
    void registerObject(ObjectRef obj, Perm ownerPerm);

    /** Register (or overwrite) a private copy of @p obj; grants
     * nothing. */
    void registerObject(const DistributedObject &obj);

    /** Forget an object and every grant on it. */
    void removeObject(ObjId id);

    /** Apply a capability grant. */
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

    /** The object named @p uuid; hashes @p uuid. */
    const DistributedObject *findByUuid(std::string_view uuid) const;

    /** The object named @p uuid, by its stored hash. */
    const DistributedObject *
    findByUuid(const Uuid &uuid) const
    {
        return findNamed(keyOf(uuid));
    }

    /** Permission check: does @p pid hold @p need on @p obj? */
    bool check(XpuPid pid, ObjId obj, Perm need) const;

    Perm lookup(XpuPid pid, ObjId obj) const;

    /** @p obj's descriptor (null when unregistered) and the bits
     * @p pid holds on it, from one probe. */
    std::pair<const DistributedObject *, Perm> access(XpuPid pid,
                                                      ObjId obj) const;

    std::size_t objectCount() const { return registered_; }

    /** CAP_Groups, counted on demand: one per process with a grant,
     * plus one per process a revoke left with none, until the next
     * removeObject drops those empty groups. */
    std::size_t groupCount() const;
    ///@}

  private:
    /** One grant: the holder's XpuPid::encode() and its bits. */
    struct Holder
    {
        std::uint64_t pid;
        Perm perm;
    };

    /** One object id's row: its descriptor once registered, and its
     * holders in no meaningful order. A grant may precede the
     * registration, so a row can hold holders and no descriptor. */
    struct ObjectEntry
    {
        ObjectRef desc;
        std::vector<Holder> holders;
    };

    /** A uuid row's key: the uuid's hash, then its characters. */
    struct UuidKey
    {
        std::size_t hash = 0;
        std::string_view text;

        bool operator==(const UuidKey &) const = default;
    };

    struct UuidKeyHash
    {
        std::uint64_t operator()(const UuidKey &k) const { return k.hash; }
    };

    /** A uuid's row. The key views keyOwner's uuid, so the row keeps
     * those characters alive itself: it may outlive the object it was
     * made for (see registerRow). */
    struct UuidEntry
    {
        ObjId id = 0;
        ObjectRef keyOwner;
    };

    static UuidKey keyOf(const Uuid &u) { return {u.hash(), u.str()}; }

    /** Register @p obj; @return its row. */
    ObjectEntry &registerRow(ObjectRef obj);

    static void grantOn(ObjectEntry &row, std::uint64_t pid, Perm perm);

    /** Erase @p id's row, keeping its holder buffer for reuse. */
    void eraseObjectRow(ObjId id);

    const DistributedObject *findNamed(const UuidKey &key) const;

    PuId self_;
    std::uint64_t nextLocal_ = 1;
    // Only groupCount iterates a table, and it sorts what it reads. An
    // erased row drops its descriptors and keeps its buffers for the
    // next insert (sim/flat_map.hh).
    sim::FlatMap<ObjId, ObjectEntry> objects_;
    sim::FlatMap<UuidKey, UuidEntry, UuidKeyHash> byUuid_;
    /** Rows with a descriptor. */
    std::size_t registered_ = 0;
    /** Pids a revoke took a grant from since the last removeObject:
     * the ones left with none still have an (empty) CAP_Group. */
    std::vector<std::uint64_t> revoked_;
    /** Replica version: bumped by every replicated-state update, read
     * by every local query. A same-tick update/check pair on one
     * replica depends only on the event tie-break — the exact hazard
     * behind "immediate synchronization" (§5). */
    sim::analysis::Tracked<std::uint64_t> version_{0, "xpu.caps"};
};

} // namespace molecule::xpu

#endif // MOLECULE_XPU_CAPABILITY_HH
