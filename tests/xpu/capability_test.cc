/** @file Unit tests for distributed capabilities and identifiers. */

#include <gtest/gtest.h>

#include "xpu/capability.hh"

namespace {

using molecule::xpu::CapabilityStore;
using molecule::xpu::CapGroup;
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

TEST(CapGroup, AddRemoveLookup)
{
    CapGroup g(XpuPid{0, 1});
    g.add(7, Perm::Read);
    g.add(7, Perm::Write);
    EXPECT_TRUE(g.has(7, Perm::Read | Perm::Write));
    g.remove(7, Perm::Write);
    EXPECT_TRUE(g.has(7, Perm::Read));
    EXPECT_FALSE(g.has(7, Perm::Write));
    g.remove(7, Perm::Read);
    EXPECT_EQ(g.lookup(7), Perm::None);
    EXPECT_EQ(g.size(), 0u);
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

} // namespace
