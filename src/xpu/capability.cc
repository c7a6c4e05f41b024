#include "xpu/capability.hh"

#include <algorithm>

namespace molecule::xpu {

std::vector<CapGroup::Cap>::iterator
CapGroup::find(ObjId obj)
{
    return std::find_if(caps_.begin(), caps_.end(),
                        [obj](const Cap &c) { return c.first == obj; });
}

bool
CapGroup::add(ObjId obj, Perm perm)
{
    auto it = find(obj);
    if (it != caps_.end()) {
        it->second = it->second | perm;
        return false;
    }
    caps_.emplace_back(obj, perm);
    return true;
}

bool
CapGroup::remove(ObjId obj, Perm perm)
{
    auto it = find(obj);
    if (it == caps_.end())
        return false;
    it->second = it->second & ~perm;
    if (it->second != Perm::None)
        return false;
    // Order within a group is never observed: swap-and-pop.
    *it = caps_.back();
    caps_.pop_back();
    return true;
}

void
CapGroup::drop(ObjId obj)
{
    auto it = find(obj);
    if (it == caps_.end())
        return;
    *it = caps_.back();
    caps_.pop_back();
}

Perm
CapGroup::lookup(ObjId obj) const
{
    for (const Cap &c : caps_)
        if (c.first == obj)
            return c.second;
    return Perm::None;
}

ObjId
CapabilityStore::allocateId()
{
    return (std::uint64_t(std::uint32_t(self_)) << 48) | nextLocal_++;
}

CapabilityStore::ObjectEntry &
CapabilityStore::objectRow(ObjId id)
{
    return *objects_.tryEmplace(id).first;
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
CapabilityStore::registerObject(const DistributedObject &obj)
{
    registerObject(std::make_shared<const DistributedObject>(obj));
}

void
CapabilityStore::registerObject(ObjectRef obj)
{
    version_.fetchAdd(1);
    const ObjId id = obj->id;
    if (!obj->uuid.empty()) {
        // An existing row keeps its key and the descriptor behind it;
        // only the id moves. A row left naming an overwritten object
        // stays until that uuid is removed, as in the plain model.
        auto [named, fresh] = byUuid_.tryEmplace(obj->uuid);
        named->id = id;
        if (fresh)
            named->keyOwner = obj;
    }
    ObjectEntry &row = objectRow(id);
    if (row.desc == nullptr)
        ++registered_;
    row.desc = std::move(obj);
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
        byUuid_.erase(row->desc->uuid,
                      [](UuidEntry &named) { named.keyOwner.reset(); });
    // Grants die with their object; a group left empty goes too, and
    // so does every group an earlier revoke emptied. A group is empty
    // when it goes, so it has nothing to scrub.
    const auto keepAll = [](CapGroup &) {};
    for (std::uint64_t key : row->holders) {
        CapGroup *g = groups_.find(key);
        g->drop(id);
        if (g->size() == 0)
            groups_.erase(key, keepAll);
    }
    eraseObjectRow(id);
    for (std::uint64_t key : emptied_) {
        const CapGroup *g = groups_.find(key);
        if (g != nullptr && g->size() == 0)
            groups_.erase(key, keepAll);
    }
    emptied_.clear();
}

void
CapabilityStore::applyGrant(XpuPid pid, ObjId obj, Perm perm)
{
    version_.fetchAdd(1);
    const std::uint64_t key = pid.encode();
    auto [group, fresh] = groups_.tryEmplace(key);
    if (fresh)
        group->reuseFor(pid);
    if (group->add(obj, perm))
        objectRow(obj).holders.push_back(key);
}

void
CapabilityStore::applyRevoke(XpuPid pid, ObjId obj, Perm perm)
{
    version_.fetchAdd(1);
    const std::uint64_t key = pid.encode();
    CapGroup *group = groups_.find(key);
    if (group == nullptr || !group->remove(obj, perm))
        return;
    ObjectEntry *row = objects_.find(obj);
    std::erase(row->holders, key);
    if (row->holders.empty() && row->desc == nullptr)
        eraseObjectRow(obj);
    if (group->size() == 0)
        emptied_.push_back(key);
}

const DistributedObject *
CapabilityStore::findObject(ObjId id) const
{
    version_.read();
    const ObjectEntry *row = objects_.find(id);
    return row == nullptr ? nullptr : row->desc.get();
}

const DistributedObject *
CapabilityStore::findByUuid(std::string_view uuid) const
{
    version_.read();
    const UuidEntry *named = byUuid_.find(uuid);
    return named == nullptr ? nullptr : findObject(named->id);
}

bool
CapabilityStore::check(XpuPid pid, ObjId obj, Perm need) const
{
    return hasPerm(lookup(pid, obj), need);
}

Perm
CapabilityStore::lookup(XpuPid pid, ObjId obj) const
{
    version_.read();
    const CapGroup *group = groups_.find(pid.encode());
    return group == nullptr ? Perm::None : group->lookup(obj);
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
    groups_.clear();
    registered_ = 0;
    emptied_.clear();
}

void
CapabilityStore::cloneFrom(const CapabilityStore &peer)
{
    // Copies share only the immutable descriptors (and the uuid
    // characters the copied keys view, kept alive by keyOwner).
    version_.fetchAdd(1);
    objects_ = peer.objects_;
    byUuid_ = peer.byUuid_;
    groups_ = peer.groups_;
    registered_ = peer.registered_;
    emptied_ = peer.emptied_;
}

} // namespace molecule::xpu
