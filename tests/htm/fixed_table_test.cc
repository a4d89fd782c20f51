/**
 * @file
 * Unit tests for the bounded, growing hash containers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/htm/fixed_table.h"
#include "src/util/rng.h"

namespace rhtm
{
namespace
{

TEST(FixedHashSetTest, InsertAndContains)
{
    FixedHashSet set(8);
    bool inserted = false;
    EXPECT_TRUE(set.insert(42, inserted));
    EXPECT_TRUE(inserted);
    EXPECT_TRUE(set.contains(42));
    EXPECT_FALSE(set.contains(43));
}

TEST(FixedHashSetTest, DuplicateInsertNotCounted)
{
    FixedHashSet set(8);
    bool inserted = false;
    set.insert(7, inserted);
    EXPECT_TRUE(inserted);
    set.insert(7, inserted);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(set.size(), 1u);
}

TEST(FixedHashSetTest, ZeroKeyWorks)
{
    FixedHashSet set(8);
    bool inserted = false;
    EXPECT_FALSE(set.contains(0));
    set.insert(0, inserted);
    EXPECT_TRUE(inserted);
    EXPECT_TRUE(set.contains(0));
}

TEST(FixedHashSetTest, ClearForgetsEverything)
{
    FixedHashSet set(8);
    bool inserted = false;
    for (uint64_t k = 0; k < 50; ++k)
        set.insert(k, inserted);
    set.clear();
    EXPECT_EQ(set.size(), 0u);
    for (uint64_t k = 0; k < 50; ++k)
        EXPECT_FALSE(set.contains(k));
}

TEST(FixedHashSetTest, ReportsFullAtLoadLimit)
{
    FixedHashSet set(4); // 16 slots -> full at 12 live keys.
    bool inserted = false;
    uint64_t k = 0;
    while (set.insert(k, inserted))
        ++k;
    EXPECT_EQ(set.size(), 12u);
    // Existing keys still answer true even when full.
    EXPECT_TRUE(set.insert(0, inserted));
    EXPECT_FALSE(inserted);
}

TEST(FixedHashSetTest, RandomizedAgainstStdSet)
{
    FixedHashSet set(12);
    std::map<uint64_t, bool> model;
    Rng rng(99);
    for (int i = 0; i < 2000; ++i) {
        uint64_t k = rng.nextBounded(500);
        bool inserted = false;
        ASSERT_TRUE(set.insert(k, inserted));
        EXPECT_EQ(inserted, model.find(k) == model.end());
        model[k] = true;
    }
    for (auto &[k, v] : model)
        EXPECT_TRUE(set.contains(k));
    EXPECT_EQ(set.size(), model.size());
}

TEST(FixedHashSetTest, GrowsToMaximumAgainstStdSet)
{
    // 2^6 initial slots doubling to 2^12: random keys with repeats
    // cross every doubling; the set is full at 3072 keys, never before.
    // A second round after clear() runs at the grown size.
    constexpr unsigned kMaxLog2 = 12;
    constexpr size_t kLimit = (size_t(1) << kMaxLog2) / 4 * 3;
    static_assert(kMaxLog2 > kInitialSlotsLog2);
    FixedHashSet set(kMaxLog2);
    Rng rng(7);
    for (int round = 0; round < 2; ++round) {
        std::set<uint64_t> model;
        for (;;) {
            const uint64_t k = rng.nextBounded(6000);
            const bool fresh = model.count(k) == 0;
            bool inserted = false;
            const bool ok = set.insert(k, inserted);
            if (fresh && model.size() == kLimit) {
                EXPECT_FALSE(ok);
                EXPECT_FALSE(inserted);
                break;
            }
            ASSERT_TRUE(ok) << "full at " << model.size() << " keys";
            ASSERT_EQ(inserted, fresh);
            model.insert(k);
            ASSERT_EQ(set.size(), model.size());
        }
        for (uint64_t k = 0; k < 6000; ++k)
            ASSERT_EQ(set.contains(k), model.count(k) == 1) << k;
        set.clear();
        EXPECT_EQ(set.size(), 0u);
        for (uint64_t k : model)
            ASSERT_FALSE(set.contains(k));
    }
}

TEST(WriteBufferTest, PutLookupRoundTrip)
{
    WriteBuffer buf(8);
    uint64_t slot_a = 0, slot_b = 0;
    EXPECT_TRUE(buf.put(&slot_a, 111));
    EXPECT_TRUE(buf.put(&slot_b, 222));
    uint64_t out = 0;
    EXPECT_TRUE(buf.lookup(&slot_a, out));
    EXPECT_EQ(out, 111u);
    EXPECT_TRUE(buf.lookup(&slot_b, out));
    EXPECT_EQ(out, 222u);
}

TEST(WriteBufferTest, OverwriteKeepsSingleEntry)
{
    WriteBuffer buf(8);
    uint64_t slot = 0;
    buf.put(&slot, 1);
    buf.put(&slot, 2);
    EXPECT_EQ(buf.sizeWords(), 1u);
    uint64_t out = 0;
    ASSERT_TRUE(buf.lookup(&slot, out));
    EXPECT_EQ(out, 2u);
}

TEST(WriteBufferTest, MissingAddressNotFound)
{
    WriteBuffer buf(8);
    uint64_t present = 0, absent = 0;
    buf.put(&present, 5);
    uint64_t out = 0;
    EXPECT_FALSE(buf.lookup(&absent, out));
}

TEST(WriteBufferTest, ForEachVisitsLatestValues)
{
    WriteBuffer buf(8);
    uint64_t slots[10];
    for (int i = 0; i < 10; ++i)
        buf.put(&slots[i], static_cast<uint64_t>(i));
    buf.put(&slots[3], 333);
    std::map<uint64_t *, uint64_t> seen;
    buf.forEach([&](uint64_t *a, uint64_t v) { seen[a] = v; });
    EXPECT_EQ(seen.size(), 10u);
    EXPECT_EQ(seen[&slots[3]], 333u);
    EXPECT_EQ(seen[&slots[7]], 7u);
}

TEST(WriteBufferTest, ClearEmpties)
{
    WriteBuffer buf(8);
    uint64_t slot = 0;
    buf.put(&slot, 1);
    buf.clear();
    EXPECT_TRUE(buf.empty());
    uint64_t out = 0;
    EXPECT_FALSE(buf.lookup(&slot, out));
}

TEST(WriteBufferTest, ReportsFullAtLoadLimit)
{
    WriteBuffer buf(4); // 16 slots -> full at 12 entries.
    std::vector<uint64_t> slots(20);
    size_t accepted = 0;
    for (auto &s : slots) {
        if (!buf.put(&s, 1))
            break;
        ++accepted;
    }
    EXPECT_EQ(accepted, 12u);
}

TEST(WriteBufferTest, GrowsToMaximumAgainstStdMap)
{
    // As GrowsToMaximumAgainstStdSet: random words with overwrites
    // cross every doubling up to 2^12 slots, the buffer is full at
    // 3072 words, and forEach visits each word once, in the order it
    // was first buffered, with its latest value.
    constexpr unsigned kMaxLog2 = 12;
    constexpr size_t kLimit = (size_t(1) << kMaxLog2) / 4 * 3;
    WriteBuffer buf(kMaxLog2);
    std::vector<uint64_t> pool(6000);
    Rng rng(11);
    for (int round = 0; round < 2; ++round) {
        std::map<uint64_t *, uint64_t> model;
        std::vector<uint64_t *> order;
        for (;;) {
            uint64_t *a = &pool[rng.nextBounded(pool.size())];
            const uint64_t v = rng.next();
            if (model.size() == kLimit) {
                EXPECT_FALSE(buf.put(a, v));
                break;
            }
            ASSERT_TRUE(buf.put(a, v)) << "full at " << model.size();
            if (model.count(a) == 0)
                order.push_back(a);
            model[a] = v;
            ASSERT_EQ(buf.sizeWords(), model.size());
        }
        for (uint64_t &w : pool) {
            uint64_t out = 0;
            auto it = model.find(&w);
            ASSERT_EQ(buf.lookup(&w, out), it != model.end());
            if (it != model.end()) {
                ASSERT_EQ(out, it->second);
            }
        }
        std::vector<std::pair<uint64_t *, uint64_t>> seen, expected;
        buf.forEach([&](uint64_t *a, uint64_t v) { seen.emplace_back(a, v); });
        for (uint64_t *a : order)
            expected.emplace_back(a, model[a]);
        EXPECT_EQ(seen, expected);
        buf.clear();
        EXPECT_TRUE(buf.empty());
        for (auto &[a, v] : model) {
            uint64_t out = 0;
            ASSERT_FALSE(buf.lookup(a, out));
        }
    }
}

} // namespace
} // namespace rhtm
