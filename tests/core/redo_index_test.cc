/**
 * @file
 * Oracle test for the RedoBuffer's open-addressing index (front 2,
 * docs/COMMIT_PATH.md): over randomized write sets -- duplicate
 * overwrites included -- the buffer and a std::unordered_map oracle
 * must agree on every lookup, on the surviving value per address, and
 * on the one-entry-per-address publication contract of forEach.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "src/core/engine/journal.h"
#include "src/util/rng.h"

namespace rhtm
{
namespace
{

struct RedoIndexTest : public ::testing::Test
{
    // Tiny initial index (4 slots) so randomized rounds exercise
    // grow()'s reindex repeatedly, not just the happy path.
    RedoBuffer indexed{2};
    std::unordered_map<uint64_t *, uint64_t> oracle;
    // A small address pool makes duplicate overwrites common.
    std::vector<uint64_t> pool = std::vector<uint64_t>(64);

    void
    put(uint64_t *addr, uint64_t value)
    {
        indexed.putGrowing(addr, value);
        oracle[addr] = value;
    }

    void
    checkLookup(uint64_t *addr)
    {
        uint64_t vi = 0;
        bool hi = indexed.lookup(addr, vi);
        auto it = oracle.find(addr);
        ASSERT_EQ(hi, it != oracle.end()) << "indexed hit disagrees";
        if (it != oracle.end()) {
            ASSERT_EQ(vi, it->second);
        }
    }

    /** forEach must visit each address exactly once, final value. */
    void
    checkPublication(const RedoBuffer &buf)
    {
        std::unordered_map<uint64_t *, uint64_t> seen;
        buf.forEach([&](uint64_t *addr, uint64_t value) {
            ASSERT_TRUE(seen.emplace(addr, value).second)
                << "forEach visited an address twice";
        });
        ASSERT_EQ(seen.size(), oracle.size());
        for (const auto &kv : oracle) {
            auto it = seen.find(kv.first);
            ASSERT_NE(it, seen.end());
            ASSERT_EQ(it->second, kv.second);
        }
    }
};

TEST_F(RedoIndexTest, RandomizedOracleAgreement)
{
    // 10k randomized operations across repeated transactions
    // (clear() between them), so each clears-then-reuses the same
    // storage.
    Rng rng(7777);
    int ops = 0;
    while (ops < 10000) {
        indexed.clear();
        oracle.clear();
        int n = static_cast<int>(rng.nextRange(1, 300));
        for (int i = 0; i < n; ++i, ++ops) {
            uint64_t *addr = &pool[rng.nextBounded(pool.size())];
            if (rng.nextBounded(100) < 70)
                put(addr, rng.next());
            else
                checkLookup(addr);
        }
        ASSERT_EQ(indexed.sizeWords(), oracle.size());
        checkPublication(indexed);
    }
}

TEST_F(RedoIndexTest, GrowReindexKeepsDuplicateCollapse)
{
    // Far past several doublings of the 4-slot initial index, with a
    // hot word rewritten between every insertion.
    std::vector<uint64_t> big(4096);
    for (size_t i = 0; i < big.size(); ++i) {
        put(&big[i], i);
        put(&pool[0], i); // The hot word: collapses in place.
    }
    EXPECT_EQ(indexed.sizeWords(), big.size() + 1);
    checkPublication(indexed);
    uint64_t v = 0;
    ASSERT_TRUE(indexed.lookup(&pool[0], v));
    EXPECT_EQ(v, big.size() - 1);
}

TEST_F(RedoIndexTest, EmptyBufferMissesAndClearForgets)
{
    uint64_t v = 0;
    EXPECT_FALSE(indexed.lookup(&pool[0], v));
    indexed.putGrowing(&pool[0], 7);
    ASSERT_TRUE(indexed.lookup(&pool[0], v));
    EXPECT_EQ(v, 7u);
    indexed.clear();
    EXPECT_TRUE(indexed.empty());
    EXPECT_FALSE(indexed.lookup(&pool[0], v));
}

} // namespace
} // namespace rhtm
