/**
 * @file
 * Tests for the hash map, sorted list, and queue containers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>

#include "src/structures/tx_hashmap.h"
#include "src/structures/tx_list.h"
#include "src/structures/tx_queue.h"

#include "src/api/runtime.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace rhtm
{
namespace
{

//
// TxHashMap
//

TEST(HashMapTest, BasicOperations)
{
    TmRuntime rt(AlgoKind::kRhNOrec);
    TxHashMap map(8);
    ThreadCtx &ctx = rt.registerThread();
    rt.run(ctx, [&](Txn &tx) {
        EXPECT_TRUE(map.put(tx, 1, 10));
        EXPECT_TRUE(map.put(tx, 2, 20));
        EXPECT_FALSE(map.put(tx, 1, 11)) << "update";
        EXPECT_TRUE(map.putIfAbsent(tx, 3, 30));
        EXPECT_FALSE(map.putIfAbsent(tx, 3, 31));
    });
    rt.run(ctx, [&](Txn &tx) {
        uint64_t v = 0;
        EXPECT_TRUE(map.get(tx, 1, v));
        EXPECT_EQ(v, 11u);
        EXPECT_TRUE(map.get(tx, 3, v));
        EXPECT_EQ(v, 30u);
        EXPECT_FALSE(map.get(tx, 99, v));
        EXPECT_TRUE(map.remove(tx, 2));
        EXPECT_FALSE(map.remove(tx, 2));
    });
    EXPECT_EQ(map.sizeUnsync(), 2u);
    map.clearUnsync(ctx.mem());
    EXPECT_EQ(map.sizeUnsync(), 0u);
}

TEST(HashMapTest, AddToAccumulates)
{
    TmRuntime rt(AlgoKind::kRhNOrec);
    TxHashMap map(8);
    ThreadCtx &ctx = rt.registerThread();
    rt.run(ctx, [&](Txn &tx) {
        EXPECT_EQ(map.addTo(tx, 7, 5), 5u);
        EXPECT_EQ(map.addTo(tx, 7, 3), 8u);
    });
    uint64_t v = 0;
    rt.run(ctx, [&](Txn &tx) { EXPECT_TRUE(map.get(tx, 7, v)); });
    EXPECT_EQ(v, 8u);
    map.clearUnsync(ctx.mem());
}

TEST(HashMapTest, AddToReportsPresence)
{
    TmRuntime rt(AlgoKind::kRhNOrec);
    TxHashMap map(8);
    ThreadCtx &ctx = rt.registerThread();
    rt.run(ctx, [&](Txn &tx) {
        bool found = true;
        EXPECT_EQ(map.addTo(tx, 4, 9, &found), 9u);
        EXPECT_FALSE(found) << "absent key is inserted";
        EXPECT_EQ(map.addTo(tx, 4, 2, &found), 11u);
        EXPECT_TRUE(found);
        // Wraps like get() + put() of old + delta would.
        EXPECT_EQ(map.addTo(tx, 4, ~uint64_t(0), &found), 10u);
        EXPECT_TRUE(found);
        EXPECT_EQ(map.addTo(tx, 5, 1), 1u) << "found is optional";
    });
    uint64_t v = 0;
    rt.run(ctx, [&](Txn &tx) { EXPECT_TRUE(map.get(tx, 4, v)); });
    EXPECT_EQ(v, 10u);
    EXPECT_EQ(map.sizeUnsync(), 2u);
    map.clearUnsync(ctx.mem());
}

TEST(HashMapTest, SingleBucketMapHoldsEveryKey)
{
    // log2 == 0: one bucket, so bucketOf must not shift by 64.
    TmRuntime rt(AlgoKind::kRhNOrec);
    TxHashMap map(0);
    ThreadCtx &ctx = rt.registerThread();
    constexpr uint64_t kKeys = 40;
    for (uint64_t key = 0; key < kKeys; ++key) {
        rt.run(ctx, [&](Txn &tx) {
            bool found = true;
            EXPECT_EQ(map.addTo(tx, key * 0x1000193, key, &found), key);
            EXPECT_FALSE(found);
        });
    }
    rt.run(ctx, [&](Txn &tx) {
        for (uint64_t key = 0; key < kKeys; ++key) {
            uint64_t v = ~uint64_t(0);
            EXPECT_TRUE(map.get(tx, key * 0x1000193, v));
            EXPECT_EQ(v, key);
        }
        EXPECT_TRUE(map.remove(tx, 7 * 0x1000193));
        EXPECT_FALSE(map.contains(tx, 7 * 0x1000193));
    });
    EXPECT_EQ(map.sizeUnsync(), kKeys - 1);
    map.clearUnsync(ctx.mem());
    EXPECT_EQ(map.sizeUnsync(), 0u);
}

TEST(HashMapTest, ChainsWithFewBuckets)
{
    // 2 buckets force long chains: exercises chain insert/remove.
    TmRuntime rt(AlgoKind::kRhNOrec);
    TxHashMap map(1);
    ThreadCtx &ctx = rt.registerThread();
    std::map<uint64_t, uint64_t> model;
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        uint64_t key = rng.nextBounded(64);
        if (rng.nextPercent(60)) {
            uint64_t value = rng.next();
            bool fresh = false;
            rt.run(ctx,
                   [&](Txn &tx) { fresh = map.put(tx, key, value); });
            EXPECT_EQ(fresh, model.find(key) == model.end());
            model[key] = value;
        } else {
            bool removed = false;
            rt.run(ctx, [&](Txn &tx) { removed = map.remove(tx, key); });
            EXPECT_EQ(removed, model.erase(key) == 1);
        }
    }
    EXPECT_EQ(map.sizeUnsync(), model.size());
    uint64_t seen = 0;
    map.forEachUnsync([&](uint64_t k, uint64_t v) {
        ++seen;
        auto it = model.find(k);
        ASSERT_NE(it, model.end());
        EXPECT_EQ(it->second, v);
    });
    EXPECT_EQ(seen, model.size());
    map.clearUnsync(ctx.mem());
}

TEST(HashMapTest, ConcurrentDistinctKeysAllLand)
{
    TmRuntime rt(AlgoKind::kRhNOrec);
    TxHashMap map(10);
    constexpr unsigned kThreads = 4;
    constexpr unsigned kPerThread = 1000;
    test::runThreads(rt, kThreads, [&](unsigned t, ThreadCtx &ctx) {
        for (unsigned i = 0; i < kPerThread; ++i) {
            uint64_t key = uint64_t(t) * kPerThread + i;
            rt.run(ctx,
                   [&](Txn &tx) { EXPECT_TRUE(map.put(tx, key, key)); });
        }
    });
    EXPECT_EQ(map.sizeUnsync(), uint64_t(kThreads) * kPerThread);
}

TEST(HashMapTest, ConcurrentAddToConservesSum)
{
    TmRuntime rt(AlgoKind::kHybridNOrec);
    TxHashMap map(4);
    constexpr unsigned kThreads = 4;
    constexpr unsigned kPerThread = 800;
    test::runThreads(rt, kThreads, [&](unsigned t, ThreadCtx &ctx) {
        Rng rng(t + 100);
        for (unsigned i = 0; i < kPerThread; ++i) {
            uint64_t key = rng.nextBounded(16);
            rt.run(ctx, [&](Txn &tx) { map.addTo(tx, key, 1); });
        }
    });
    uint64_t total = 0;
    map.forEachUnsync([&](uint64_t, uint64_t v) { total += v; });
    EXPECT_EQ(total, uint64_t(kThreads) * kPerThread);
}

//
// TxList
//

TEST(ListTest, SortedInsertRemoveContains)
{
    TmRuntime rt(AlgoKind::kRhNOrec);
    TxList list;
    ThreadCtx &ctx = rt.registerThread();
    rt.run(ctx, [&](Txn &tx) {
        EXPECT_TRUE(list.insert(tx, 5));
        EXPECT_TRUE(list.insert(tx, 1));
        EXPECT_TRUE(list.insert(tx, 9));
        EXPECT_TRUE(list.insert(tx, 3));
        EXPECT_FALSE(list.insert(tx, 5)) << "duplicate";
    });
    EXPECT_TRUE(list.isSortedUnsync());
    EXPECT_EQ(list.sizeUnsync(), 4u);
    rt.run(ctx, [&](Txn &tx) {
        EXPECT_TRUE(list.contains(tx, 3));
        EXPECT_FALSE(list.contains(tx, 4));
        EXPECT_TRUE(list.remove(tx, 1)) << "head removal";
        EXPECT_TRUE(list.remove(tx, 9)) << "tail removal";
        EXPECT_FALSE(list.remove(tx, 9));
    });
    EXPECT_TRUE(list.isSortedUnsync());
    EXPECT_EQ(list.sizeUnsync(), 2u);
    list.clearUnsync(ctx.mem());
}

TEST(ListTest, RandomizedAgainstStdSet)
{
    TmRuntime rt(AlgoKind::kNOrecLazy);
    TxList list;
    ThreadCtx &ctx = rt.registerThread();
    std::set<int64_t> model;
    Rng rng(17);
    for (int i = 0; i < 1500; ++i) {
        int64_t key = static_cast<int64_t>(rng.nextBounded(80));
        if (rng.nextPercent(50)) {
            bool fresh = false;
            rt.run(ctx, [&](Txn &tx) { fresh = list.insert(tx, key); });
            EXPECT_EQ(fresh, model.insert(key).second);
        } else {
            bool removed = false;
            rt.run(ctx,
                   [&](Txn &tx) { removed = list.remove(tx, key); });
            EXPECT_EQ(removed, model.erase(key) == 1);
        }
    }
    EXPECT_EQ(list.sizeUnsync(), model.size());
    EXPECT_TRUE(list.isSortedUnsync());
    list.clearUnsync(ctx.mem());
}

TEST(ListTest, ConcurrentInsertsKeepOrder)
{
    TmRuntime rt(AlgoKind::kRhNOrec);
    TxList list;
    constexpr unsigned kThreads = 4;
    constexpr unsigned kPerThread = 250;
    test::runThreads(rt, kThreads, [&](unsigned t, ThreadCtx &ctx) {
        for (unsigned i = 0; i < kPerThread; ++i) {
            int64_t key = static_cast<int64_t>(i * kThreads + t);
            rt.run(ctx, [&](Txn &tx) { list.insert(tx, key); });
        }
    });
    EXPECT_EQ(list.sizeUnsync(), uint64_t(kThreads) * kPerThread);
    EXPECT_TRUE(list.isSortedUnsync());
}

//
// TxQueue
//

TEST(QueueTest, FifoOrder)
{
    TmRuntime rt(AlgoKind::kRhNOrec);
    TxQueue queue;
    ThreadCtx &ctx = rt.registerThread();
    rt.run(ctx, [&](Txn &tx) {
        EXPECT_TRUE(queue.empty(tx));
        for (uint64_t i = 0; i < 10; ++i)
            queue.push(tx, i);
    });
    rt.run(ctx, [&](Txn &tx) {
        for (uint64_t i = 0; i < 10; ++i) {
            uint64_t v = 0;
            EXPECT_TRUE(queue.pop(tx, v));
            EXPECT_EQ(v, i);
        }
        uint64_t v;
        EXPECT_FALSE(queue.pop(tx, v));
        EXPECT_TRUE(queue.empty(tx));
    });
    rt.memory().drainAll();
}

TEST(QueueTest, InterleavedPushPop)
{
    TmRuntime rt(AlgoKind::kNOrec);
    TxQueue queue;
    ThreadCtx &ctx = rt.registerThread();
    uint64_t next_push = 0, next_pop = 0;
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        if (rng.nextPercent(55) || next_push == next_pop) {
            rt.run(ctx, [&](Txn &tx) { queue.push(tx, next_push); });
            ++next_push;
        } else {
            uint64_t v = 0;
            rt.run(ctx, [&](Txn &tx) { EXPECT_TRUE(queue.pop(tx, v)); });
            EXPECT_EQ(v, next_pop);
            ++next_pop;
        }
    }
    EXPECT_EQ(queue.sizeUnsync(), next_push - next_pop);
    ThreadCtx &c2 = rt.registerThread();
    (void)c2;
    queue.clearUnsync(ctx.mem());
    EXPECT_EQ(queue.sizeUnsync(), 0u);
}

TEST(QueueTest, ConcurrentProducersConsumers)
{
    TmRuntime rt(AlgoKind::kRhNOrec);
    TxQueue queue;
    constexpr unsigned kProducers = 2;
    constexpr unsigned kConsumers = 2;
    constexpr unsigned kItems = 1500;
    std::atomic<uint64_t> popped_sum{0};
    std::atomic<uint64_t> popped_count{0};

    test::runThreads(
        rt, kProducers + kConsumers, [&](unsigned t, ThreadCtx &ctx) {
            if (t < kProducers) {
                for (unsigned i = 0; i < kItems; ++i) {
                    uint64_t v = uint64_t(t) * kItems + i + 1;
                    rt.run(ctx, [&](Txn &tx) { queue.push(tx, v); });
                }
            } else {
                while (popped_count.load() < kProducers * kItems) {
                    uint64_t v = 0;
                    bool ok = false;
                    rt.run(ctx,
                           [&](Txn &tx) { ok = queue.pop(tx, v); });
                    if (ok) {
                        popped_sum.fetch_add(v);
                        popped_count.fetch_add(1);
                    }
                }
            }
        });

    uint64_t n = uint64_t(kProducers) * kItems;
    EXPECT_EQ(popped_count.load(), n);
    EXPECT_EQ(popped_sum.load(), n * (n + 1) / 2);
    EXPECT_EQ(queue.sizeUnsync(), 0u);
}

} // namespace
} // namespace rhtm
