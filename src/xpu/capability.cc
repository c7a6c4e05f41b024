#include "xpu/capability.hh"

namespace molecule::xpu {

bool
CapGroup::add(ObjId obj, Perm perm)
{
    auto [it, inserted] = caps_.try_emplace(obj, perm);
    if (!inserted)
        it->second = it->second | perm;
    return inserted;
}

bool
CapGroup::remove(ObjId obj, Perm perm)
{
    auto it = caps_.find(obj);
    if (it == caps_.end())
        return false;
    it->second = it->second & ~perm;
    if (it->second != Perm::None)
        return false;
    caps_.erase(it);
    return true;
}

void
CapGroup::drop(ObjId obj)
{
    caps_.erase(obj);
}

Perm
CapGroup::lookup(ObjId obj) const
{
    auto it = caps_.find(obj);
    return it == caps_.end() ? Perm::None : it->second;
}

ObjId
CapabilityStore::allocateId()
{
    return (std::uint64_t(std::uint32_t(self_)) << 48) | nextLocal_++;
}

void
CapabilityStore::registerObject(const DistributedObject &obj)
{
    version_.fetchAdd(1);
    objects_[obj.id] = obj;
    if (!obj.uuid.empty())
        byUuid_[obj.uuid] = obj.id;
}

void
CapabilityStore::removeObject(ObjId id)
{
    auto it = objects_.find(id);
    if (it == objects_.end())
        return;
    version_.fetchAdd(1);
    if (!it->second.uuid.empty())
        byUuid_.erase(it->second.uuid);
    objects_.erase(it);
    // Grants die with their object; a group left empty goes too, and
    // so does every group an earlier revoke emptied.
    if (auto h = holders_.find(id); h != holders_.end()) {
        for (std::uint64_t key : h->second) {
            auto g = groups_.find(key);
            g->second.drop(id);
            if (g->second.size() == 0)
                groups_.erase(g);
        }
        holders_.erase(h);
    }
    for (std::uint64_t key : emptied_) {
        auto g = groups_.find(key);
        if (g != groups_.end() && g->second.size() == 0)
            groups_.erase(g);
    }
    emptied_.clear();
}

void
CapabilityStore::applyGrant(XpuPid pid, ObjId obj, Perm perm)
{
    version_.fetchAdd(1);
    auto [it, inserted] = groups_.try_emplace(pid.encode(), pid);
    (void)inserted;
    if (it->second.add(obj, perm))
        holders_[obj].push_back(it->first);
}

void
CapabilityStore::applyRevoke(XpuPid pid, ObjId obj, Perm perm)
{
    version_.fetchAdd(1);
    auto it = groups_.find(pid.encode());
    if (it == groups_.end() || !it->second.remove(obj, perm))
        return;
    auto h = holders_.find(obj);
    std::erase(h->second, it->first);
    if (h->second.empty())
        holders_.erase(h);
    if (it->second.size() == 0)
        emptied_.push_back(it->first);
}

const DistributedObject *
CapabilityStore::findObject(ObjId id) const
{
    version_.read();
    auto it = objects_.find(id);
    return it == objects_.end() ? nullptr : &it->second;
}

const DistributedObject *
CapabilityStore::findByUuid(const std::string &uuid) const
{
    version_.read();
    auto it = byUuid_.find(uuid);
    return it == byUuid_.end() ? nullptr : findObject(it->second);
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
    holders_.clear();
    emptied_.clear();
}

void
CapabilityStore::cloneFrom(const CapabilityStore &peer)
{
    version_.fetchAdd(1);
    objects_ = peer.objects_;
    byUuid_ = peer.byUuid_;
    groups_ = peer.groups_;
    holders_ = peer.holders_;
    emptied_ = peer.emptied_;
}

} // namespace molecule::xpu
