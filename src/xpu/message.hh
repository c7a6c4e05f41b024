/**
 * @file
 * Inter-shim synchronization messages (§5 "Inter-PU synchronization").
 */

#ifndef MOLECULE_XPU_MESSAGE_HH
#define MOLECULE_XPU_MESSAGE_HH

#include <cstdint>

#include "xpu/capability.hh"

namespace molecule::xpu {

/** What a synchronization message does at the receiving shim. */
enum class SyncOp {
    /** Replicate a new distributed object (+ owner capabilities). */
    RegisterObject,
    /** Drop a distributed object (lazy path: refcount reached zero). */
    RemoveObject,
    /** Replicate a capability grant. */
    Grant,
    /** Replicate a capability revoke. */
    Revoke,
};

/**
 * One replicated state update. RegisterObject carries the shared
 * object descriptor; the other ops are (pid, obj, perm) triples.
 */
struct SyncMessage
{
    SyncOp op = SyncOp::Grant;
    ObjectRef obj;
    ObjId objId = 0;
    XpuPid pid;
    Perm perm = Perm::None;

    /** Wire size: fixed header + uuid payload for registrations. */
    std::uint64_t
    wireBytes() const
    {
        return 48 + (op == SyncOp::RegisterObject ? obj->uuid.size() : 0);
    }
};

} // namespace molecule::xpu

#endif // MOLECULE_XPU_MESSAGE_HH
