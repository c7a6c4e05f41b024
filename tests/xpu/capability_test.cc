/** @file Unit tests for distributed capabilities and identifiers. */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "xpu/capability.hh"

namespace {

using molecule::xpu::CapabilityStore;
using molecule::xpu::DistributedObject;
using molecule::xpu::hasPerm;
using molecule::xpu::ObjId;
using molecule::xpu::ObjType;
using molecule::xpu::Perm;
using molecule::xpu::XpuPid;

TEST(XpuPid, EncodeDecodeRoundTrips)
{
    XpuPid p{3, 12345};
    EXPECT_EQ(XpuPid::decode(p.encode()), p);
    EXPECT_TRUE(p.valid());
    EXPECT_FALSE(XpuPid{}.valid());
    EXPECT_EQ(p.toString(), "pu3:12345");
}

TEST(XpuPid, EncodingPartitionsByPu)
{
    // Same local pid on different PUs must encode differently: this is
    // the static partitioning that removes pid synchronization (§3.2).
    XpuPid a{0, 42}, b{1, 42};
    EXPECT_NE(a.encode(), b.encode());
}

TEST(Perm, BitOperations)
{
    Perm rw = Perm::Read | Perm::Write;
    EXPECT_TRUE(hasPerm(rw, Perm::Read));
    EXPECT_TRUE(hasPerm(rw, Perm::Write));
    EXPECT_FALSE(hasPerm(rw, Perm::Owner));
    EXPECT_TRUE(hasPerm(rw, rw));
    EXPECT_FALSE(hasPerm(Perm::Read, rw));
    EXPECT_EQ(rw & Perm::Read, Perm::Read);
    EXPECT_EQ(rw & ~Perm::Read & ~Perm::Write, Perm::None);
}

TEST(CapabilityStore, GrantsAddBitsAndRevokesRemoveThem)
{
    CapabilityStore store(0);
    const XpuPid pid{0, 1};
    store.applyGrant(pid, 7, Perm::Read);
    store.applyGrant(pid, 7, Perm::Write);
    EXPECT_TRUE(store.check(pid, 7, Perm::Read | Perm::Write));
    store.applyRevoke(pid, 7, Perm::Write);
    EXPECT_TRUE(store.check(pid, 7, Perm::Read));
    EXPECT_FALSE(store.check(pid, 7, Perm::Write));
    store.applyRevoke(pid, 7, Perm::Read);
    EXPECT_EQ(store.lookup(pid, 7), Perm::None);
    // No grant is left, but the emptied CAP_Group stays until the
    // next removal.
    EXPECT_EQ(store.groupCount(), 1u);
    EXPECT_EQ(store.findObject(7), nullptr);
}

TEST(CapabilityStore, HoldersOfOneObjectAreIndependent)
{
    CapabilityStore store(0);
    const XpuPid a{0, 1}, b{1, 1}, c{2, 1};
    store.applyGrant(a, 7, Perm::Read);
    store.applyGrant(b, 7, Perm::Write);
    store.applyGrant(c, 7, Perm::Read | Perm::Owner);
    store.applyGrant(a, 8, Perm::Write);
    EXPECT_EQ(store.groupCount(), 3u);
    store.applyRevoke(b, 7, Perm::Write);
    EXPECT_EQ(store.lookup(a, 7), Perm::Read);
    EXPECT_EQ(store.lookup(b, 7), Perm::None);
    EXPECT_EQ(store.lookup(c, 7), Perm::Read | Perm::Owner);
    EXPECT_EQ(store.lookup(a, 8), Perm::Write);
    EXPECT_EQ(store.lookup(c, 8), Perm::None);
    // Revoking bits a holder lacks leaves the rest.
    store.applyRevoke(c, 7, Perm::Write);
    EXPECT_EQ(store.lookup(c, 7), Perm::Read | Perm::Owner);
    EXPECT_EQ(store.groupCount(), 3u);
}

TEST(CapabilityStore, RegisterWithOwnerGrantAndAccess)
{
    CapabilityStore store(0);
    const XpuPid owner{0, 10}, early{1, 3};
    auto fifo = std::make_shared<DistributedObject>();
    fifo->id = store.allocateId();
    fifo->owner = owner;
    fifo->homePu = 0;
    fifo->uuid = "chain/fifo";
    // A grant that arrives before the registration has a row but no
    // descriptor.
    store.applyGrant(early, fifo->id, Perm::Write);
    EXPECT_EQ(store.access(early, fifo->id).first, nullptr);
    EXPECT_EQ(store.access(early, fifo->id).second, Perm::Write);

    store.registerObject(fifo, Perm::Read | Perm::Owner);
    EXPECT_EQ(store.objectCount(), 1u);
    const auto [desc, held] = store.access(owner, fifo->id);
    EXPECT_EQ(desc, fifo.get());
    EXPECT_EQ(held, Perm::Read | Perm::Owner);
    EXPECT_EQ(store.access(early, fifo->id).second, Perm::Write);
    EXPECT_EQ(store.findByUuid(fifo->uuid), fifo.get());
    EXPECT_EQ(store.findByUuid("chain/fifo"), fifo.get());
    EXPECT_EQ(fifo->uuid.hash(),
              std::hash<std::string_view>{}("chain/fifo"));

    store.removeObject(fifo->id);
    EXPECT_EQ(store.access(owner, fifo->id).first, nullptr);
    EXPECT_EQ(store.access(owner, fifo->id).second, Perm::None);
    EXPECT_EQ(store.findByUuid(fifo->uuid), nullptr);
    EXPECT_EQ(store.groupCount(), 0u);
}

TEST(CapabilityStore, IdAllocationIsPartitionedByPu)
{
    CapabilityStore a(0), b(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_NE(a.allocateId(), b.allocateId());
}

TEST(CapabilityStore, RegisterFindRemoveObject)
{
    CapabilityStore store(0);
    DistributedObject obj;
    obj.id = store.allocateId();
    obj.type = ObjType::Ipc;
    obj.owner = XpuPid{0, 10};
    obj.homePu = 0;
    obj.uuid = "alexa/front";
    store.registerObject(obj);

    ASSERT_NE(store.findObject(obj.id), nullptr);
    ASSERT_NE(store.findByUuid("alexa/front"), nullptr);
    EXPECT_EQ(store.findByUuid("alexa/front")->id, obj.id);
    EXPECT_EQ(store.findByUuid("missing"), nullptr);

    store.removeObject(obj.id);
    EXPECT_EQ(store.findObject(obj.id), nullptr);
    EXPECT_EQ(store.findByUuid("alexa/front"), nullptr);
}

TEST(CapabilityStore, RemoveObjectPurgesItsGrants)
{
    CapabilityStore store(0);
    const XpuPid owner{0, 1}, writer{1, 2};
    DistributedObject fifo;
    fifo.id = store.allocateId();
    fifo.owner = owner;
    fifo.uuid = "chain/fifo";
    store.registerObject(fifo);
    const ObjId other = store.allocateId();

    store.applyGrant(owner, fifo.id, Perm::Read | Perm::Owner);
    store.applyGrant(owner, other, Perm::Read);
    store.applyGrant(writer, fifo.id, Perm::Write);
    EXPECT_EQ(store.groupCount(), 2u);

    store.removeObject(fifo.id);
    // The writer held only the removed object: its group goes. The
    // owner keeps its group for the other object.
    EXPECT_EQ(store.groupCount(), 1u);
    EXPECT_FALSE(store.check(writer, fifo.id, Perm::Write));
    EXPECT_FALSE(store.check(owner, fifo.id, Perm::Read));
    EXPECT_TRUE(store.check(owner, other, Perm::Read));
}

TEST(CapabilityStore, GrantRevokeCheck)
{
    CapabilityStore store(0);
    const XpuPid alice{0, 1}, bob{1, 2};
    const ObjId obj = store.allocateId();

    store.applyGrant(alice, obj, Perm::Read | Perm::Write | Perm::Owner);
    store.applyGrant(bob, obj, Perm::Read);

    EXPECT_TRUE(store.check(alice, obj, Perm::Owner));
    EXPECT_TRUE(store.check(bob, obj, Perm::Read));
    EXPECT_FALSE(store.check(bob, obj, Perm::Write));

    store.applyRevoke(bob, obj, Perm::Read);
    EXPECT_FALSE(store.check(bob, obj, Perm::Read));
    // Revoking from an unknown pid is a no-op.
    store.applyRevoke(XpuPid{5, 5}, obj, Perm::Read);
}

TEST(CapabilityStore, ChecksAreDenyByDefault)
{
    CapabilityStore store(0);
    EXPECT_FALSE(store.check(XpuPid{0, 1}, 1234, Perm::Read));
    EXPECT_EQ(store.lookup(XpuPid{0, 1}, 1234), Perm::None);
}

TEST(CapabilityStore, RevokeEmptiedGroupDropsAtNextRemoveObject)
{
    CapabilityStore store(0);
    const XpuPid reader{0, 1}, writer{1, 2};
    DistributedObject fifo;
    fifo.id = store.allocateId();
    store.registerObject(fifo);
    const ObjId other = store.allocateId();

    store.applyGrant(reader, other, Perm::Read);
    store.applyGrant(writer, fifo.id, Perm::Write);
    // The revoke empties the reader's group, which stays until the
    // next removal, even one of an object it never held.
    store.applyRevoke(reader, other, Perm::Read);
    EXPECT_EQ(store.groupCount(), 2u);
    store.removeObject(fifo.id);
    EXPECT_EQ(store.groupCount(), 0u);
}

/**
 * Reference model: the capability replica as plain ordered maps with
 * a full scan of every group on removeObject.
 */
struct ReferenceStore
{
    std::map<ObjId, DistributedObject> objects;
    std::map<std::string, ObjId> byUuid;
    std::map<std::uint64_t, std::map<ObjId, Perm>> groups;

    void
    registerObject(const DistributedObject &obj)
    {
        objects[obj.id] = obj;
        if (!obj.uuid.empty())
            byUuid[obj.uuid] = obj.id;
    }

    void
    removeObject(ObjId id)
    {
        auto it = objects.find(id);
        if (it == objects.end())
            return;
        if (!it->second.uuid.empty())
            byUuid.erase(it->second.uuid);
        objects.erase(it);
        for (auto g = groups.begin(); g != groups.end();) {
            g->second.erase(id);
            g = g->second.empty() ? groups.erase(g) : std::next(g);
        }
    }

    void
    grant(XpuPid pid, ObjId obj, Perm perm)
    {
        Perm &have = groups[pid.encode()][obj];
        have = have | perm;
    }

    void
    revoke(XpuPid pid, ObjId obj, Perm perm)
    {
        auto g = groups.find(pid.encode());
        if (g == groups.end())
            return;
        auto c = g->second.find(obj);
        if (c == g->second.end())
            return;
        c->second = c->second & ~perm;
        if (c->second == Perm::None)
            g->second.erase(c);
    }

    Perm
    lookup(XpuPid pid, ObjId obj) const
    {
        auto g = groups.find(pid.encode());
        if (g == groups.end())
            return Perm::None;
        auto c = g->second.find(obj);
        return c == g->second.end() ? Perm::None : c->second;
    }

    const DistributedObject *
    findByUuid(const std::string &uuid) const
    {
        auto u = byUuid.find(uuid);
        if (u == byUuid.end())
            return nullptr;
        auto o = objects.find(u->second);
        return o == objects.end() ? nullptr : &o->second;
    }
};

/** One replica under test next to its reference model. */
struct ReplicaPair
{
    CapabilityStore store{0};
    ReferenceStore ref;
};

void
expectSameState(const ReplicaPair &r, const std::vector<XpuPid> &pids,
                ObjId objIds, const std::vector<std::string> &uuids,
                const std::string &where)
{
    SCOPED_TRACE(where);
    ASSERT_EQ(r.store.objectCount(), r.ref.objects.size());
    ASSERT_EQ(r.store.groupCount(), r.ref.groups.size());
    static const Perm kNeeds[] = {Perm::Read, Perm::Write, Perm::Owner,
                                  Perm::Read | Perm::Write};
    for (const XpuPid &pid : pids) {
        for (ObjId obj = 1; obj <= objIds; ++obj) {
            ASSERT_EQ(r.store.lookup(pid, obj), r.ref.lookup(pid, obj));
            for (Perm need : kNeeds)
                ASSERT_EQ(r.store.check(pid, obj, need),
                          hasPerm(r.ref.lookup(pid, obj), need));
        }
    }
    for (const std::string &uuid : uuids) {
        const DistributedObject *got = r.store.findByUuid(uuid);
        const DistributedObject *want = r.ref.findByUuid(uuid);
        ASSERT_EQ(got == nullptr, want == nullptr) << uuid;
        if (got == nullptr)
            continue;
        EXPECT_EQ(got->id, want->id);
        EXPECT_EQ(got->owner, want->owner);
        EXPECT_EQ(got->homePu, want->homePu);
        EXPECT_EQ(got->uuid, want->uuid);
    }
}

TEST(CapabilityStore, MatchesReferenceModelOnRandomSequences)
{
    // Small id, pid and uuid pools so operations collide often:
    // re-grants, revokes that empty groups, removals of held objects,
    // uuids re-registered under other ids.
    const ObjId kObjIds = 10;
    const std::vector<XpuPid> pids = {
        {0, 1}, {0, 2}, {1, 1}, {1, 3}, {2, 7}};
    const std::vector<std::string> uuids = {"", "a", "b", "c", "d", "e"};
    const Perm kPerms[] = {Perm::None,  Perm::Read,
                           Perm::Write, Perm::Owner,
                           Perm::Read | Perm::Write,
                           Perm::Read | Perm::Write | Perm::Owner};

    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        std::mt19937_64 rng(seed);
        auto pick = [&](std::size_t n) { return std::size_t(rng() % n); };
        ReplicaPair replicas[2];
        for (int step = 0; step < 300; ++step) {
            ReplicaPair &r = replicas[pick(2)];
            const XpuPid pid = pids[pick(pids.size())];
            const ObjId obj = 1 + ObjId(pick(kObjIds));
            const Perm perm = kPerms[pick(std::size(kPerms))];
            std::string op;
            switch (pick(20)) {
              case 0: case 1: case 2: case 3: {
                DistributedObject o;
                o.id = obj;
                o.owner = pid;
                o.homePu = int(pick(3));
                o.uuid = uuids[pick(uuids.size())];
                r.store.registerObject(o);
                r.ref.registerObject(o);
                op = "register";
                break;
              }
              case 4: case 5: case 6: case 7: case 8: case 9:
                r.store.applyGrant(pid, obj, perm);
                r.ref.grant(pid, obj, perm);
                op = "grant";
                break;
              case 10: case 11: case 12: case 13:
                r.store.applyRevoke(pid, obj, perm);
                r.ref.revoke(pid, obj, perm);
                op = "revoke";
                break;
              case 14: case 15: case 16: case 17:
                r.store.removeObject(obj);
                r.ref.removeObject(obj);
                op = "remove";
                break;
              case 18:
                r.store.reset();
                r.ref = ReferenceStore{};
                op = "reset";
                break;
              default: {
                ReplicaPair &peer = &r == &replicas[0] ? replicas[1]
                                                       : replicas[0];
                r.store.cloneFrom(peer.store);
                r.ref = peer.ref;
                op = "cloneFrom";
                break;
              }
            }
            const std::string where = "seed " + std::to_string(seed) +
                                      " step " + std::to_string(step) +
                                      " " + op;
            for (const ReplicaPair &each : replicas)
                expectSameState(each, pids, kObjIds, uuids, where);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }

    // Register @p id under @p uuid on both sides of @p r; the
    // descriptor is built here and dies at return, so the store must
    // hold its own.
    auto reg = [](ReplicaPair &r, ObjId id, XpuPid owner,
                  const std::string &uuid) {
        DistributedObject o;
        o.id = id;
        o.owner = owner;
        o.homePu = owner.pu;
        o.uuid = uuid;
        r.store.registerObject(o);
        r.ref.registerObject(o);
    };
    auto remove = [](ReplicaPair &r, ObjId id) {
        r.store.removeObject(id);
        r.ref.removeObject(id);
    };
    auto grant = [](ReplicaPair &r, XpuPid pid, ObjId id, Perm perm) {
        r.store.applyGrant(pid, id, perm);
        r.ref.grant(pid, id, perm);
    };

    {
        // One process holding far more grants than a process usually
        // does, thinned by revokes and removals.
        constexpr ObjId kMany = 40;
        ReplicaPair r;
        const XpuPid big = pids[3];
        for (ObjId obj = 1; obj <= kMany; ++obj) {
            grant(r, big, obj, Perm::Read | Perm::Write);
            grant(r, pids[obj % 2], obj, Perm::Read);
        }
        expectSameState(r, pids, kMany, uuids, "many grants");
        for (ObjId obj = 1; obj <= kMany; obj += 3) {
            r.store.applyRevoke(big, obj, Perm::Read | Perm::Write);
            r.ref.revoke(big, obj, Perm::Read | Perm::Write);
        }
        for (ObjId obj = 2; obj <= kMany; obj += 3) {
            reg(r, obj, pids[0], "");
            remove(r, obj);
        }
        expectSameState(r, pids, kMany, uuids, "many grants thinned");
    }
    {
        // One uuid removed and re-registered on one replica, again and
        // again, so recycled nodes and descriptors take its place.
        ReplicaPair r;
        for (ObjId round = 1; round <= 6; ++round) {
            reg(r, round, pids[round % pids.size()], "a");
            grant(r, pids[0], round, Perm::Write);
            expectSameState(r, pids, kObjIds, uuids, "re-register");
            remove(r, round);
            expectSameState(r, pids, kObjIds, uuids, "re-removed");
        }
        // An overwrite leaves "b" naming id 7, now registered as "c";
        // the "b" row must stay readable after that descriptor went.
        reg(r, 7, pids[1], "b");
        reg(r, 7, pids[2], "c");
        expectSameState(r, pids, kObjIds, uuids, "overwrite");
        reg(r, 8, pids[0], "b");
        remove(r, 7);
        expectSameState(r, pids, kObjIds, uuids, "overwrite removed");
        reg(r, 7, pids[4], "b");
        remove(r, 8);
        expectSameState(r, pids, kObjIds, uuids, "stale row removed");
    }
    {
        // A clone keeps its state while the source removes everything
        // and reuses the uuids.
        ReplicaPair src, clone;
        for (ObjId obj = 1; obj <= 5; ++obj) {
            reg(src, obj, pids[obj % pids.size()], uuids[obj]);
            grant(src, pids[(obj + 1) % pids.size()], obj, Perm::Read);
        }
        clone.store.cloneFrom(src.store);
        clone.ref = src.ref;
        for (ObjId obj = 1; obj <= 5; ++obj)
            remove(src, obj);
        for (ObjId obj = 6; obj <= 9; ++obj)
            reg(src, obj, pids[0], uuids[obj - 5]);
        expectSameState(src, pids, kObjIds, uuids, "clone source");
        expectSameState(clone, pids, kObjIds, uuids, "clone");
        for (ObjId obj = 1; obj <= 5; ++obj)
            remove(clone, obj);
        expectSameState(clone, pids, kObjIds, uuids, "clone drained");
    }
}

} // namespace
