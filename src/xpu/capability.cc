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
    auto it = objects_.find(id);
    if (it != objects_.end())
        return it->second;
    return spareObjects_
        .insertInto(objects_, [id](ObjectEntry &) { return id; })
        .first->second;
}

void
CapabilityStore::eraseObjectRow(ObjectTable::iterator it)
{
    ObjectTable::node_type node = objects_.extract(it);
    node.mapped().desc.reset();
    node.mapped().holders.clear();
    spareObjects_.put(std::move(node));
}

void
CapabilityStore::eraseUuidRow(UuidTable::iterator it)
{
    UuidTable::node_type node = byUuid_.extract(it);
    // The key views keyOwner's uuid: blank both together.
    node.key() = std::string_view();
    node.mapped().keyOwner.reset();
    spareUuids_.put(std::move(node));
}

void
CapabilityStore::eraseGroup(GroupTable::iterator it)
{
    spareGroups_.put(groups_.extract(it));
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
    const std::string_view uuid = obj->uuid;
    if (!uuid.empty()) {
        // An existing row keeps its key and the descriptor behind it;
        // only the id moves. A row left naming an overwritten object
        // stays until that uuid is removed, as in the plain model.
        if (auto u = byUuid_.find(uuid); u != byUuid_.end()) {
            u->second.id = id;
        } else {
            spareUuids_.insertInto(byUuid_, [&](UuidEntry &row) {
                row.id = id;
                row.keyOwner = obj;
                return uuid;
            });
        }
    }
    ObjectEntry &row = objectRow(id);
    if (row.desc == nullptr)
        ++registered_;
    row.desc = std::move(obj);
}

void
CapabilityStore::removeObject(ObjId id)
{
    auto it = objects_.find(id);
    if (it == objects_.end() || it->second.desc == nullptr)
        return;
    version_.fetchAdd(1);
    --registered_;
    if (!it->second.desc->uuid.empty()) {
        if (auto u = byUuid_.find(it->second.desc->uuid);
            u != byUuid_.end())
            eraseUuidRow(u);
    }
    // Grants die with their object; a group left empty goes too, and
    // so does every group an earlier revoke emptied.
    for (std::uint64_t key : it->second.holders) {
        auto g = groups_.find(key);
        g->second.drop(id);
        if (g->second.size() == 0)
            eraseGroup(g);
    }
    eraseObjectRow(it);
    for (std::uint64_t key : emptied_) {
        auto g = groups_.find(key);
        if (g != groups_.end() && g->second.size() == 0)
            eraseGroup(g);
    }
    emptied_.clear();
}

void
CapabilityStore::applyGrant(XpuPid pid, ObjId obj, Perm perm)
{
    version_.fetchAdd(1);
    const std::uint64_t key = pid.encode();
    auto g = groups_.find(key);
    if (g == groups_.end()) {
        g = spareGroups_
                .insertInto(groups_,
                            [pid, key](CapGroup &group) {
                                group.reuseFor(pid);
                                return key;
                            })
                .first;
    }
    if (g->second.add(obj, perm))
        objectRow(obj).holders.push_back(key);
}

void
CapabilityStore::applyRevoke(XpuPid pid, ObjId obj, Perm perm)
{
    version_.fetchAdd(1);
    const std::uint64_t key = pid.encode();
    auto g = groups_.find(key);
    if (g == groups_.end() || !g->second.remove(obj, perm))
        return;
    auto row = objects_.find(obj);
    std::erase(row->second.holders, key);
    if (row->second.holders.empty() && row->second.desc == nullptr)
        eraseObjectRow(row);
    if (g->second.size() == 0)
        emptied_.push_back(key);
}

const DistributedObject *
CapabilityStore::findObject(ObjId id) const
{
    version_.read();
    auto it = objects_.find(id);
    return it == objects_.end() ? nullptr : it->second.desc.get();
}

const DistributedObject *
CapabilityStore::findByUuid(std::string_view uuid) const
{
    version_.read();
    auto it = byUuid_.find(uuid);
    return it == byUuid_.end() ? nullptr : findObject(it->second.id);
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
    auto it = groups_.find(pid.encode());
    return it == groups_.end() ? Perm::None : it->second.lookup(obj);
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
