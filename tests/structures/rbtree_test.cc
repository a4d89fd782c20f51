/**
 * @file
 * Red-black tree tests: model checking against std::map, invariant
 * validation after randomized operation streams, and concurrent
 * stress across every TM algorithm.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "src/structures/tx_rbtree.h"

#include "src/api/runtime.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace rhtm
{
namespace
{

class RbTreeAlgoTest : public ::testing::TestWithParam<AlgoKind>
{
  protected:
    RbTreeAlgoTest() : rt(GetParam()) {}

    TmRuntime rt;
    TxRbTree tree;
};

TEST_P(RbTreeAlgoTest, InsertLookupRemove)
{
    ThreadCtx &ctx = rt.registerThread();
    rt.run(ctx, [&](Txn &tx) {
        EXPECT_TRUE(tree.put(tx, 5, 50));
        EXPECT_TRUE(tree.put(tx, 3, 30));
        EXPECT_TRUE(tree.put(tx, 8, 80));
        EXPECT_FALSE(tree.put(tx, 5, 55)) << "update, not insert";
    });
    rt.run(ctx, [&](Txn &tx) {
        int64_t v = 0;
        EXPECT_TRUE(tree.get(tx, 5, v));
        EXPECT_EQ(v, 55);
        EXPECT_TRUE(tree.get(tx, 3, v));
        EXPECT_EQ(v, 30);
        EXPECT_FALSE(tree.get(tx, 7, v));
    });
    rt.run(ctx, [&](Txn &tx) {
        EXPECT_TRUE(tree.remove(tx, 3));
        EXPECT_FALSE(tree.remove(tx, 3));
        EXPECT_FALSE(tree.contains(tx, 3));
        EXPECT_TRUE(tree.contains(tx, 8));
    });
    EXPECT_EQ(tree.sizeUnsync(), 2u);
    std::string why;
    EXPECT_TRUE(tree.validateStructure(&why)) << why;
    tree.clearUnsync(ctx.mem());
}

TEST_P(RbTreeAlgoTest, RandomizedAgainstStdMap)
{
    ThreadCtx &ctx = rt.registerThread();
    std::map<int64_t, int64_t> model;
    Rng rng(12345);
    for (int i = 0; i < 4000; ++i) {
        int64_t key = static_cast<int64_t>(rng.nextBounded(300));
        unsigned op = static_cast<unsigned>(rng.nextBounded(10));
        if (op < 4) {
            int64_t value = static_cast<int64_t>(rng.nextBounded(1000));
            bool inserted = false;
            rt.run(ctx, [&](Txn &tx) {
                inserted = tree.put(tx, key, value);
            });
            EXPECT_EQ(inserted, model.find(key) == model.end());
            model[key] = value;
        } else if (op < 7) {
            bool removed = false;
            rt.run(ctx,
                   [&](Txn &tx) { removed = tree.remove(tx, key); });
            EXPECT_EQ(removed, model.erase(key) == 1);
        } else {
            int64_t got = -1;
            bool found = false;
            rt.run(ctx,
                   [&](Txn &tx) { found = tree.get(tx, key, got); });
            auto it = model.find(key);
            EXPECT_EQ(found, it != model.end());
            if (found) {
                EXPECT_EQ(got, it->second);
            }
        }
        if (i % 500 == 0) {
            std::string why;
            ASSERT_TRUE(tree.validateStructure(&why))
                << "after op " << i << ": " << why;
        }
    }
    EXPECT_EQ(tree.sizeUnsync(), model.size());
    std::string why;
    EXPECT_TRUE(tree.validateStructure(&why)) << why;
    tree.clearUnsync(ctx.mem());
}

TEST_P(RbTreeAlgoTest, AscendingAndDescendingInsertions)
{
    ThreadCtx &ctx = rt.registerThread();
    for (int64_t k = 0; k < 256; ++k)
        rt.run(ctx, [&](Txn &tx) { tree.put(tx, k, k); });
    for (int64_t k = 511; k >= 256; --k)
        rt.run(ctx, [&](Txn &tx) { tree.put(tx, k, k); });
    EXPECT_EQ(tree.sizeUnsync(), 512u);
    std::string why;
    EXPECT_TRUE(tree.validateStructure(&why)) << why;
    // Remove in an interleaved order.
    for (int64_t k = 0; k < 512; k += 2)
        rt.run(ctx, [&](Txn &tx) { tree.remove(tx, k); });
    EXPECT_EQ(tree.sizeUnsync(), 256u);
    EXPECT_TRUE(tree.validateStructure(&why)) << why;
    tree.clearUnsync(ctx.mem());
}

// scanRange against std::map: random trees (the first empty, later
// ones thinned by removals so rebalanced shapes appear) queried over
// random ranges and limits plus the edges an in-order walk can get
// wrong: lo on a key, lo between keys, lo > hi, limits 0 and 1, and
// ranges reaching the extreme keys.
TEST_P(RbTreeAlgoTest, ScanRangeMatchesStdMap)
{
    ThreadCtx &ctx = rt.registerThread();
    Rng rng(2024);
    using Entry = std::pair<int64_t, int64_t>;
    const size_t kNoLimit = 0;
    for (unsigned round = 0; round < 6; ++round) {
        TxRbTree t;
        std::map<int64_t, int64_t> model;
        const unsigned inserts = round * 60;
        rt.run(ctx, [&](Txn &tx) {
            for (unsigned i = 0; i < inserts; ++i) {
                int64_t key = static_cast<int64_t>(rng.nextBounded(400));
                t.put(tx, key, key * 3 + 1);
                model[key] = key * 3 + 1;
            }
            if (round % 2 == 1) {
                for (int64_t key : {INT64_MIN + 1, INT64_MAX - 1}) {
                    t.put(tx, key, -key);
                    model[key] = -key;
                }
            }
        });
        for (unsigned i = 0; i < inserts / 3; ++i) {
            int64_t key = static_cast<int64_t>(rng.nextBounded(400));
            rt.run(ctx, [&](Txn &tx) { t.remove(tx, key); });
            model.erase(key);
        }

        auto check = [&](int64_t lo, int64_t hi, size_t limit) {
            std::vector<Entry> want;
            for (auto it = model.lower_bound(lo);
                 it != model.end() && it->first <= hi &&
                 (limit == 0 || want.size() < limit);
                 ++it)
                want.push_back(*it);
            // scanRange appends: an entry already in out stays first.
            const Entry sentinel{-7, -7};
            std::vector<Entry> got;
            size_t appended = 0;
            rt.run(ctx, [&](Txn &tx) {
                got.assign(1, sentinel);
                appended = t.scanRange(tx, lo, hi, limit, got);
            });
            ASSERT_FALSE(got.empty());
            EXPECT_EQ(got.front(), sentinel);
            got.erase(got.begin());
            EXPECT_EQ(appended, got.size());
            EXPECT_EQ(got, want) << "round " << round << " [" << lo
                                 << ", " << hi << "] limit " << limit;
        };

        for (size_t limit : {kNoLimit, size_t(1), size_t(5)}) {
            check(INT64_MIN, INT64_MAX, limit);
            check(INT64_MIN, INT64_MIN + 1, limit);
            check(INT64_MAX - 1, INT64_MAX, limit);
            check(10, 5, limit);
            check(0, 0, limit);
        }
        for (const auto &[key, value] : model) {
            (void)value;
            if (key < 0 || key >= 400)
                continue; // The extreme keys are covered above.
            check(key, key, kNoLimit);    // lo on a key
            check(key, key + 40, 1);
            check(key + 1, key + 30, 3); // lo past a key
            if (model.count(key + 1) == 0)
                check(key + 1, key + 1, kNoLimit); // between keys
        }
        for (unsigned q = 0; q < 200; ++q) {
            int64_t lo = static_cast<int64_t>(rng.nextBounded(420)) - 10;
            int64_t hi = lo + static_cast<int64_t>(rng.nextBounded(120)) - 20;
            check(lo, hi, static_cast<size_t>(rng.nextBounded(8)));
        }
        t.clearUnsync(ctx.mem());
    }
}

TEST_P(RbTreeAlgoTest, ConcurrentMixedWorkloadKeepsInvariants)
{
    constexpr unsigned kThreads = 4;
    constexpr unsigned kOpsPerThread = 1200;
    constexpr unsigned kKeyRange = 512;

    // Pre-populate half the range.
    {
        ThreadCtx &ctx = rt.registerThread();
        for (unsigned k = 0; k < kKeyRange; k += 2) {
            rt.run(ctx, [&](Txn &tx) {
                tree.put(tx, static_cast<int64_t>(k), k);
            });
        }
    }

    std::atomic<int64_t> net_inserts{0};
    test::runThreads(rt, kThreads, [&](unsigned t, ThreadCtx &ctx) {
        Rng rng(t * 7919 + 1);
        for (unsigned i = 0; i < kOpsPerThread; ++i) {
            int64_t key =
                static_cast<int64_t>(rng.nextBounded(kKeyRange));
            unsigned op = static_cast<unsigned>(rng.nextBounded(100));
            if (op < 20) {
                bool inserted = false;
                rt.run(ctx, [&](Txn &tx) {
                    inserted = tree.put(tx, key, key * 10);
                });
                if (inserted)
                    net_inserts.fetch_add(1);
            } else if (op < 40) {
                bool removed = false;
                rt.run(ctx,
                       [&](Txn &tx) { removed = tree.remove(tx, key); });
                if (removed)
                    net_inserts.fetch_sub(1);
            } else {
                rt.run(ctx, [&](Txn &tx) {
                    int64_t v;
                    (void)tree.get(tx, key, v);
                });
            }
        }
    });

    int64_t expected =
        static_cast<int64_t>(kKeyRange / 2) + net_inserts.load();
    EXPECT_EQ(tree.sizeUnsync(), static_cast<uint64_t>(expected));
    std::string why;
    EXPECT_TRUE(tree.validateStructure(&why)) << why;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, RbTreeAlgoTest,
    ::testing::Values(AlgoKind::kLockElision, AlgoKind::kNOrec,
                      AlgoKind::kNOrecLazy, AlgoKind::kTl2,
                      AlgoKind::kHybridNOrec, AlgoKind::kHybridNOrecLazy,
                      AlgoKind::kRhNOrec, AlgoKind::kRhTl2),
    [](const ::testing::TestParamInfo<AlgoKind> &info) {
        std::string name = algoKindName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(RbTreeEdgeTest, EmptyTreeOperations)
{
    TmRuntime rt(AlgoKind::kRhNOrec);
    TxRbTree tree;
    ThreadCtx &ctx = rt.registerThread();
    rt.run(ctx, [&](Txn &tx) {
        int64_t v;
        EXPECT_FALSE(tree.get(tx, 1, v));
        EXPECT_FALSE(tree.remove(tx, 1));
        EXPECT_FALSE(tree.contains(tx, 1));
    });
    EXPECT_EQ(tree.sizeUnsync(), 0u);
    EXPECT_TRUE(tree.validateStructure());
}

TEST(RbTreeEdgeTest, SingleNodeLifecycle)
{
    TmRuntime rt(AlgoKind::kRhNOrec);
    TxRbTree tree;
    ThreadCtx &ctx = rt.registerThread();
    rt.run(ctx, [&](Txn &tx) { tree.put(tx, 42, 1); });
    EXPECT_TRUE(tree.validateStructure());
    rt.run(ctx, [&](Txn &tx) { EXPECT_TRUE(tree.remove(tx, 42)); });
    EXPECT_EQ(tree.sizeUnsync(), 0u);
    rt.memory().drainAll();
}

TEST(RbTreeEdgeTest, NegativeAndExtremeKeys)
{
    TmRuntime rt(AlgoKind::kRhNOrec);
    TxRbTree tree;
    ThreadCtx &ctx = rt.registerThread();
    const int64_t keys[] = {0, -1, 1, INT64_MIN + 1, INT64_MAX - 1,
                            -1000000, 1000000};
    rt.run(ctx, [&](Txn &tx) {
        for (int64_t k : keys)
            EXPECT_TRUE(tree.put(tx, k, k));
    });
    rt.run(ctx, [&](Txn &tx) {
        for (int64_t k : keys) {
            int64_t v;
            EXPECT_TRUE(tree.get(tx, k, v));
            EXPECT_EQ(v, k);
        }
    });
    std::string why;
    EXPECT_TRUE(tree.validateStructure(&why)) << why;
    tree.clearUnsync(ctx.mem());
}

} // namespace
} // namespace rhtm
