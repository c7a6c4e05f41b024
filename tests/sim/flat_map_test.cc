/** @file sim::FlatMap against std::unordered_map, plus the probe
 * cases a random sequence rarely hits: backward shift across the
 * wrap-around and reuse of a scrubbed row. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/flat_map.hh"

namespace {

using molecule::sim::FlatMap;

/** A value with the two things a row may hold: a buffer it keeps as a
 * spare and a shared record it must drop. */
struct Value
{
    int v = 0;
    std::vector<int> buf;
    std::shared_ptr<int> held;
};

void
scrub(Value &value)
{
    value.buf.clear();
    value.held.reset();
}

/** Home slot = key / 1000 at every size up to 8 slots: the top three
 * bits of the hash. Keys with one home share their tag too, so a probe
 * must compare keys. */
struct HomeHash
{
    std::uint64_t
    operator()(std::uint64_t key) const
    {
        return (key / 1000) << 61;
    }
};

std::vector<std::pair<std::uint64_t, int>>
contents(const FlatMap<std::uint64_t, Value> &map)
{
    std::vector<std::pair<std::uint64_t, int>> out;
    map.forEach([&out](std::uint64_t k, const Value &value) {
        out.emplace_back(k, value.v);
    });
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::pair<std::uint64_t, int>>
contents(const std::unordered_map<std::uint64_t, int> &map)
{
    std::vector<std::pair<std::uint64_t, int>> out(map.begin(), map.end());
    std::sort(out.begin(), out.end());
    return out;
}

TEST(FlatMap, MatchesUnorderedMapOnRandomSequences)
{
    const auto record = std::make_shared<int>(0);
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        std::mt19937_64 rng(seed);
        // Small pools collide often; the large one forces growth.
        const std::uint64_t pool = seed % 4 == 0 ? 5000 : 8 + seed % 60;
        FlatMap<std::uint64_t, Value> map;
        std::unordered_map<std::uint64_t, int> ref;
        for (int step = 0; step < 4000; ++step) {
            // Ids spread over the top bits as well, like ObjIds.
            const std::uint64_t raw = rng() % pool;
            const std::uint64_t key = ((raw % 3) << 48) | raw;
            const int op = int(rng() % 100);
            if (op < 45) {
                auto [value, fresh] = map.tryEmplace(key);
                ASSERT_EQ(fresh, ref.count(key) == 0);
                if (fresh) {
                    EXPECT_TRUE(value->buf.empty());
                    EXPECT_EQ(value->held, nullptr);
                    value->held = record;
                }
                value->v = step;
                value->buf.push_back(step);
                ref[key] = step;
            } else if (op < 80) {
                ASSERT_EQ(map.erase(key, scrub), ref.erase(key) == 1);
            } else if (op < 99) {
                const Value *got = map.find(key);
                const auto want = ref.find(key);
                ASSERT_EQ(got == nullptr, want == ref.end());
                if (got != nullptr) {
                    EXPECT_EQ(got->v, want->second);
                }
            } else {
                map.clear();
                ref.clear();
            }
            ASSERT_EQ(map.size(), ref.size());
            // Every live row holds the record once; no spare does.
            ASSERT_EQ(record.use_count(), long(1 + ref.size()));
        }
        EXPECT_EQ(contents(map), contents(ref));
        map.clear();
    }
}

TEST(FlatMap, StringViewKeys)
{
    const std::vector<std::string_view> names = {"a", "bb", "self/x/1",
                                                 "self/x/2", ""};
    FlatMap<std::string_view, int, std::hash<std::string_view>> map;
    for (int i = 0; i < int(names.size()); ++i)
        *map.tryEmplace(names[std::size_t(i)]).first = i;
    for (int i = 0; i < int(names.size()); ++i) {
        ASSERT_NE(map.find(names[std::size_t(i)]), nullptr);
        EXPECT_EQ(*map.find(names[std::size_t(i)]), i);
    }
    EXPECT_EQ(map.find("self/x/3"), nullptr);
    EXPECT_TRUE(map.erase("bb", [](int &) {}));
    EXPECT_EQ(map.find("bb"), nullptr);
    EXPECT_EQ(*map.find("self/x/2"), 3);
}

/** A key that carries its own hash, as the capability replica's uuid
 * key does: rows with one hash differ only in their names. */
struct HashedName
{
    std::uint64_t hash = 0;
    std::string_view name;

    bool operator==(const HashedName &) const = default;
};

struct StoredHash
{
    std::uint64_t operator()(const HashedName &k) const { return k.hash; }
};

TEST(FlatMap, EqualHashesDifferentNames)
{
    const std::uint64_t h = 0x9E3779B97F4A7C15ULL;
    const std::vector<HashedName> keys = {
        {h, "self/a/1"}, {h, "self/a/2"}, {h, ""}, {h, "self/b/1"},
        {h + 1, "self/a/1"}};
    FlatMap<HashedName, int, StoredHash> map;
    for (int i = 0; i < int(keys.size()); ++i)
        *map.tryEmplace(keys[std::size_t(i)]).first = i;
    EXPECT_EQ(map.size(), keys.size());
    EXPECT_EQ(map.find(HashedName{h, "self/a/3"}), nullptr);
    for (std::size_t gone = 0; gone < keys.size(); ++gone) {
        for (std::size_t i = gone; i < keys.size(); ++i) {
            const int *got = map.find(keys[i]);
            ASSERT_NE(got, nullptr) << i << " after " << gone;
            EXPECT_EQ(*got, int(i));
        }
        ASSERT_TRUE(map.erase(keys[gone], [](int &) {}));
        EXPECT_EQ(map.find(keys[gone]), nullptr);
        EXPECT_FALSE(map.erase(keys[gone], [](int &) {}));
    }
    EXPECT_EQ(map.size(), 0u);
}

TEST(FlatMap, GrowthKeepsEveryRow)
{
    FlatMap<std::uint64_t, Value> map;
    for (std::uint64_t k = 0; k < 3000; ++k)
        map.tryEmplace(k * 7919).first->v = int(k);
    for (std::uint64_t k = 0; k < 3000; k += 2)
        ASSERT_TRUE(map.erase(k * 7919, scrub));
    for (std::uint64_t k = 0; k < 3000; ++k) {
        const Value *got = map.find(k * 7919);
        ASSERT_EQ(got == nullptr, k % 2 == 0) << k;
        if (got != nullptr) {
            EXPECT_EQ(got->v, int(k));
        }
    }
    EXPECT_EQ(map.size(), 1500u);
}

TEST(FlatMap, BackwardShiftWrapsAround)
{
    // Eight slots: 7001 and 7002 want slot 7 and take 7 and 0; 1 and
    // 2 want slot 0 and take 1 and 2.
    FlatMap<std::uint64_t, int, HomeHash> map;
    for (std::uint64_t k : {7001, 7002, 1, 2})
        *map.tryEmplace(k).first = int(k);
    // Emptying slot 7 pulls 7002 back over the wrap, then 1 and 2.
    ASSERT_TRUE(map.erase(7001, [](int &) {}));
    for (std::uint64_t k : {7002, 1, 2}) {
        ASSERT_NE(map.find(k), nullptr) << k;
        EXPECT_EQ(*map.find(k), int(k));
    }
    EXPECT_EQ(map.find(7001), nullptr);
    // Emptying slot 0 (now 1) must not pull 7002 (home 7) forward.
    ASSERT_TRUE(map.erase(1, [](int &) {}));
    EXPECT_EQ(*map.find(7002), 7002);
    EXPECT_EQ(*map.find(2), 2);
    EXPECT_EQ(map.find(1), nullptr);
    // A re-insert probes the same run again.
    *map.tryEmplace(7001).first = 1;
    EXPECT_EQ(*map.find(7001), 1);
    EXPECT_EQ(*map.find(7002), 7002);
    EXPECT_EQ(map.size(), 3u);
}

TEST(FlatMap, InsertReusesTheRowErasedLast)
{
    FlatMap<std::uint64_t, Value> map;
    const auto record = std::make_shared<int>(0);
    for (std::uint64_t k : {10, 20, 30}) {
        Value &value = *map.tryEmplace(k).first;
        value.buf.resize(8 * (k / 10));
        value.held = record;
    }
    const int *bufOf20 = map.find(20)->buf.data();
    const int *bufOf10 = map.find(10)->buf.data();
    ASSERT_TRUE(map.erase(10, scrub));
    ASSERT_TRUE(map.erase(20, scrub));
    // The spares hold their buffers but not the record.
    EXPECT_EQ(record.use_count(), 2);
    // Last in, first out: 20's row first, then 10's.
    Value &first = *map.tryEmplace(40).first;
    EXPECT_TRUE(first.buf.empty());
    EXPECT_GE(first.buf.capacity(), 16u);
    first.buf.push_back(1);
    EXPECT_EQ(first.buf.data(), bufOf20);
    Value &second = *map.tryEmplace(50).first;
    second.buf.push_back(1);
    EXPECT_EQ(second.buf.data(), bufOf10);
    EXPECT_EQ(second.held, nullptr);
    EXPECT_EQ(map.size(), 3u);
}

TEST(FlatMap, CopiesAreIndependent)
{
    FlatMap<std::uint64_t, int> a;
    for (std::uint64_t k = 1; k <= 20; ++k)
        *a.tryEmplace(k).first = int(k);
    FlatMap<std::uint64_t, int> b = a;
    ASSERT_TRUE(a.erase(5, [](int &) {}));
    *a.find(6) = 60;
    EXPECT_EQ(*b.find(5), 5);
    EXPECT_EQ(*b.find(6), 6);
    EXPECT_EQ(b.size(), 20u);
    EXPECT_EQ(a.size(), 19u);
}

} // namespace
