#include "xpu/capability.hh"

#include <algorithm>

namespace molecule::xpu {

ObjId
CapabilityStore::allocateId()
{
    return (std::uint64_t(std::uint32_t(self_)) << 48) | nextLocal_++;
}

void
CapabilityStore::eraseObjectRow(ObjId id)
{
    objects_.erase(id, [](ObjectEntry &row) {
        row.desc.reset();
        row.holders.clear();
    });
}

void
CapabilityStore::grantOn(ObjectEntry &row, std::uint64_t pid, Perm perm)
{
    for (Holder &h : row.holders) {
        if (h.pid == pid) {
            h.perm = h.perm | perm;
            return;
        }
    }
    row.holders.push_back(Holder{pid, perm});
}

CapabilityStore::ObjectEntry &
CapabilityStore::registerRow(ObjectRef obj)
{
    version_.fetchAdd(1);
    if (!obj->uuid.empty()) {
        // An existing row keeps its key and the descriptor behind it;
        // only the id moves. A row left naming an overwritten object
        // stays until that uuid is removed, as in the plain model.
        auto [named, fresh] = byUuid_.tryEmplace(keyOf(obj->uuid));
        named->id = obj->id;
        if (fresh)
            named->keyOwner = obj;
    }
    ObjectEntry &row = *objects_.tryEmplace(obj->id).first;
    if (row.desc == nullptr)
        ++registered_;
    row.desc = std::move(obj);
    return row;
}

void
CapabilityStore::registerObject(ObjectRef obj, Perm ownerPerm)
{
    const std::uint64_t owner = obj->owner.encode();
    grantOn(registerRow(std::move(obj)), owner, ownerPerm);
}

void
CapabilityStore::registerObject(const DistributedObject &obj)
{
    registerRow(std::make_shared<const DistributedObject>(obj));
}

void
CapabilityStore::removeObject(ObjId id)
{
    const ObjectEntry *row = objects_.find(id);
    if (row == nullptr || row->desc == nullptr)
        return;
    version_.fetchAdd(1);
    --registered_;
    // The key views the row's descriptor, which outlives the erase.
    if (!row->desc->uuid.empty())
        byUuid_.erase(keyOf(row->desc->uuid),
                      [](UuidEntry &named) { named.keyOwner.reset(); });
    // Grants die with their object, and every CAP_Group left empty,
    // by this removal or by an earlier revoke, goes with them.
    eraseObjectRow(id);
    revoked_.clear();
}

void
CapabilityStore::applyGrant(XpuPid pid, ObjId obj, Perm perm)
{
    version_.fetchAdd(1);
    grantOn(*objects_.tryEmplace(obj).first, pid.encode(), perm);
}

void
CapabilityStore::applyRevoke(XpuPid pid, ObjId obj, Perm perm)
{
    version_.fetchAdd(1);
    ObjectEntry *row = objects_.find(obj);
    if (row == nullptr)
        return;
    const std::uint64_t key = pid.encode();
    auto held = std::find_if(row->holders.begin(), row->holders.end(),
                             [key](const Holder &h) { return h.pid == key; });
    if (held == row->holders.end())
        return;
    held->perm = held->perm & ~perm;
    if (held->perm != Perm::None)
        return;
    // Holder order is never observed: swap-and-pop.
    *held = row->holders.back();
    row->holders.pop_back();
    if (row->holders.empty() && row->desc == nullptr)
        eraseObjectRow(obj);
    if (std::find(revoked_.begin(), revoked_.end(), key) == revoked_.end())
        revoked_.push_back(key);
}

const DistributedObject *
CapabilityStore::findObject(ObjId id) const
{
    version_.read();
    const ObjectEntry *row = objects_.find(id);
    return row == nullptr ? nullptr : row->desc.get();
}

const DistributedObject *
CapabilityStore::findNamed(const UuidKey &key) const
{
    version_.read();
    const UuidEntry *named = byUuid_.find(key);
    return named == nullptr ? nullptr : findObject(named->id);
}

const DistributedObject *
CapabilityStore::findByUuid(std::string_view uuid) const
{
    return findNamed(UuidKey{std::hash<std::string_view>{}(uuid), uuid});
}

bool
CapabilityStore::check(XpuPid pid, ObjId obj, Perm need) const
{
    return hasPerm(lookup(pid, obj), need);
}

Perm
CapabilityStore::lookup(XpuPid pid, ObjId obj) const
{
    return access(pid, obj).second;
}

std::pair<const DistributedObject *, Perm>
CapabilityStore::access(XpuPid pid, ObjId obj) const
{
    version_.read();
    const ObjectEntry *row = objects_.find(obj);
    if (row == nullptr)
        return {nullptr, Perm::None};
    const std::uint64_t key = pid.encode();
    for (const Holder &h : row->holders)
        if (h.pid == key)
            return {row->desc.get(), h.perm};
    return {row->desc.get(), Perm::None};
}

std::size_t
CapabilityStore::groupCount() const
{
    std::vector<std::uint64_t> pids = revoked_;
    objects_.forEach([&pids](ObjId, const ObjectEntry &row) {
        for (const Holder &h : row.holders)
            pids.push_back(h.pid);
    });
    std::sort(pids.begin(), pids.end());
    return std::size_t(std::unique(pids.begin(), pids.end()) - pids.begin());
}

void
CapabilityStore::reset()
{
    // A PU reboot drops the replica wholesale; the id partition
    // survives (nextLocal_ stays monotonic so reallocated ids never
    // collide with pre-crash ones still replicated on peers).
    version_.fetchAdd(1);
    objects_.clear();
    byUuid_.clear();
    registered_ = 0;
    revoked_.clear();
}

void
CapabilityStore::cloneFrom(const CapabilityStore &peer)
{
    // Copies share only the immutable descriptors (and the uuid
    // characters the copied keys view, kept alive by keyOwner).
    version_.fetchAdd(1);
    objects_ = peer.objects_;
    byUuid_ = peer.byUuid_;
    registered_ = peer.registered_;
    revoked_ = peer.revoked_;
}

} // namespace molecule::xpu
