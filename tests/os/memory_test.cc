/** @file Unit tests for region-based RSS/PSS/COW accounting. */

#include <gtest/gtest.h>

#include "os/memory.hh"

namespace {

using molecule::os::AddressSpace;
using molecule::os::MemRegion;
using molecule::os::MemRegionPtr;
/** The records of unmapped regions, shared by address spaces. */
using Regions = molecule::sim::SpareRecords<MemRegion>;

TEST(Memory, PrivateMappingCountsFullyEverywhere)
{
    Regions pool;
    AddressSpace as{{}, pool};
    as.mapPrivate("heap", 1000);
    EXPECT_EQ(as.rss(), 1000u);
    EXPECT_DOUBLE_EQ(as.pss(), 1000.0);
    EXPECT_EQ(as.privateBytes(), 1000u);
}

TEST(Memory, SharedMappingSplitsPss)
{
    Regions pool;
    AddressSpace a{{}, pool}, b{{}, pool};
    auto region = a.mapPrivate("runtime", 1000);
    b.mapShared(region);
    EXPECT_EQ(a.rss(), 1000u);
    EXPECT_EQ(b.rss(), 1000u);
    EXPECT_DOUBLE_EQ(a.pss(), 500.0);
    EXPECT_DOUBLE_EQ(b.pss(), 500.0);
    EXPECT_EQ(a.privateBytes(), 0u);
}

TEST(Memory, ForkSharesEverything)
{
    Regions pool;
    AddressSpace parent{{}, pool}, child{{}, pool};
    parent.mapPrivate("runtime", 800);
    parent.mapPrivate("heap", 200);
    parent.forkInto(child);
    EXPECT_EQ(child.rss(), 1000u);
    EXPECT_DOUBLE_EQ(child.pss(), 500.0);
    EXPECT_DOUBLE_EQ(parent.pss(), 500.0);
}

TEST(Memory, CowTouchMovesBytesPrivate)
{
    Regions pool;
    AddressSpace parent{{}, pool}, child{{}, pool};
    auto region = parent.mapPrivate("runtime", 1000);
    parent.forkInto(child);
    const auto pages = child.touchCow(region, 400);
    EXPECT_EQ(pages, (400 + 4095) / 4096);
    // child: 400 private + 600/2 shared
    EXPECT_DOUBLE_EQ(child.pss(), 400.0 + 300.0);
    // parent still shares the whole region view
    EXPECT_DOUBLE_EQ(parent.pss(), 500.0);
    // RSS unchanged: copied pages replace shared ones in the view.
    EXPECT_EQ(child.rss(), 1000u);
    EXPECT_EQ(child.privateBytes(), 400u);
}

TEST(Memory, CowTouchIsCappedAtRegionSize)
{
    Regions pool;
    AddressSpace a{{}, pool}, b{{}, pool};
    auto region = a.mapPrivate("r", 100);
    a.forkInto(b);
    EXPECT_GT(b.touchCow(region, 1000), 0);
    EXPECT_EQ(b.touchCow(region, 1), 0);
    EXPECT_DOUBLE_EQ(b.pss(), 100.0);
}

TEST(Memory, UnmapReleasesAndLastUnmapFreesPhysical)
{
    std::int64_t physical = 0;
    auto hook = [&](std::int64_t d) {
        physical += d;
        return true;
    };
    Regions pool;
    AddressSpace a{hook, pool}, b{hook, pool};
    auto region = a.mapPrivate("r", 1000);
    EXPECT_EQ(physical, 1000);
    b.mapShared(region);
    EXPECT_EQ(physical, 1000); // sharing is free
    b.touchCow(region, 300);
    EXPECT_EQ(physical, 1300); // copies are physical
    b.unmap(region);
    EXPECT_EQ(physical, 1000); // copies released
    a.unmap(region);
    EXPECT_EQ(physical, 0); // last unmap releases the region
}

TEST(Memory, AdmissionFailureIsReported)
{
    std::int64_t physical = 0;
    const std::int64_t cap = 1500;
    auto hook = [&](std::int64_t d) {
        if (d > 0 && physical + d > cap)
            return false;
        physical += d;
        return true;
    };
    Regions pool;
    AddressSpace a{hook, pool};
    EXPECT_NE(a.mapPrivate("one", 1000), nullptr);
    EXPECT_EQ(a.mapPrivate("two", 1000), nullptr);
    EXPECT_EQ(a.rss(), 1000u);

    AddressSpace b{hook, pool};
    auto r = a.findRegion("one");
    b.mapShared(r);
    EXPECT_EQ(b.touchCow(r, 1000), -1); // copy would exceed capacity
}

TEST(Memory, ClearUnmapsEverything)
{
    std::int64_t physical = 0;
    auto hook = [&](std::int64_t d) {
        physical += d;
        return true;
    };
    Regions pool;
    AddressSpace a{hook, pool};
    a.mapPrivate("x", 100);
    a.mapPrivate("y", 200);
    a.clear();
    EXPECT_EQ(a.rss(), 0u);
    EXPECT_EQ(physical, 0);
    EXPECT_EQ(a.mappingCount(), 0u);
}

TEST(Memory, FindRegionByLabel)
{
    Regions pool;
    AddressSpace a{{}, pool};
    a.mapPrivate("runtime", 100);
    EXPECT_NE(a.findRegion("runtime"), nullptr);
    EXPECT_EQ(a.findRegion("missing"), nullptr);
}

TEST(Memory, PssSumApproximatesPhysicalAcrossSharers)
{
    // Property: sum of PSS over all address spaces tracks physical
    // bytes. The model divides a region's shared portion by the full
    // sharer count even after some sharers COW-copied parts of it, so
    // the sum *undercounts* by at most the copied bytes.
    std::int64_t physical = 0;
    auto hook = [&](std::int64_t d) {
        physical += d;
        return true;
    };
    Regions pool;
    AddressSpace t{hook, pool};
    t.mapPrivate("runtime", 5000);
    t.mapPrivate("tmpl", 1500);

    std::vector<AddressSpace> children;
    for (int i = 0; i < 8; ++i) {
        AddressSpace c{hook, pool};
        t.findRegion("runtime");
        c.mapShared(t.findRegion("runtime"));
        c.mapPrivate("priv" + std::to_string(i), 700);
        c.touchCow(t.findRegion("runtime"), 123 * (i + 1));
        children.push_back(std::move(c));
    }
    double pssSum = t.pss();
    std::uint64_t copiedTotal = 0;
    for (int i = 0; i < 8; ++i)
        copiedTotal += std::uint64_t(123 * (i + 1));
    for (auto &c : children)
        pssSum += c.pss();
    EXPECT_LE(pssSum, double(physical) + 1e-6);
    EXPECT_GE(pssSum, double(physical - std::int64_t(copiedTotal)) - 1e-6);
}

TEST(Memory, RegionPoolReusesARetiredRecordWithItsNewLabel)
{
    std::int64_t physical = 0;
    auto hook = [&](std::int64_t d) {
        physical += d;
        return true;
    };
    Regions pool;
    AddressSpace a{hook, pool};
    MemRegion *first = a.mapPrivate("fn-with-a-long-name/heap", 4096).get();
    a.clear();
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(physical, 0);

    AddressSpace b{hook, pool};
    MemRegionPtr again = b.mapPrivate("other/heap", 100);
    EXPECT_EQ(again.get(), first);
    EXPECT_EQ(again->label(), "other/heap");
    EXPECT_EQ(again->bytes(), 100u);
    EXPECT_EQ(again->sharers(), 1);
    EXPECT_EQ(physical, 100);
    EXPECT_EQ(b.rss(), 100u);
    EXPECT_EQ(b.findRegion("fn-with-a-long-name/heap"), nullptr);
    EXPECT_EQ(pool.size(), 0u);
}

TEST(Memory, RegionPoolNeverReusesARecordSomeoneStillHolds)
{
    Regions pool;
    AddressSpace a{{}, pool};
    MemRegionPtr kept = a.mapPrivate("runtime", 1000);
    a.unmap(kept);
    EXPECT_EQ(pool.size(), 1u);

    MemRegionPtr fresh = a.mapPrivate("heap", 10);
    EXPECT_NE(fresh.get(), kept.get());
    // The held record still reads as it was left.
    EXPECT_EQ(kept->label(), "runtime");
    EXPECT_EQ(kept->bytes(), 1000u);
    EXPECT_EQ(kept->sharers(), 0);

    const MemRegion *keptAt = kept.get();
    kept.reset();
    EXPECT_EQ(a.mapPrivate("heap2", 20).get(), keptAt);
}

} // namespace
