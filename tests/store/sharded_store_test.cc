/**
 * @file
 * Sharded-store tests across every TM algorithm: point/range
 * semantics, cross-shard RMW atomicity under concurrency, and
 * strict-serializability of recorded operation histories (including
 * cross-shard commits) via the src/check checker.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/check/history.h"
#include "src/store/sharded_store.h"
#include "src/util/barrier.h"
#include "src/util/rng.h"

namespace rhtm
{
namespace
{

constexpr uint64_t kSeedValue = 500;

StoreConfig
configFor(AlgoKind kind, unsigned shards)
{
    StoreConfig cfg;
    cfg.kind = kind;
    cfg.shards = shards;
    cfg.hashBucketsLog2 = 8;
    return cfg;
}

class StoreAlgoTest : public ::testing::TestWithParam<AlgoKind>
{
};

TEST_P(StoreAlgoTest, PutGetRoundTrip)
{
    ShardedStore store(configFor(GetParam(), 4));
    StoreWorker &w = store.registerWorker();
    for (uint64_t key = 0; key < 64; ++key)
        ASSERT_EQ(store.put(w, key, key * 10), TxnOutcome::kCommitted);
    for (uint64_t key = 0; key < 64; ++key) {
        uint64_t v = 0;
        bool found = false;
        ASSERT_EQ(store.get(w, key, v, found), TxnOutcome::kCommitted);
        EXPECT_TRUE(found) << "key " << key;
        EXPECT_EQ(v, key * 10) << "key " << key;
    }
    uint64_t v = 0;
    bool found = true;
    ASSERT_EQ(store.get(w, 9999, v, found), TxnOutcome::kCommitted);
    EXPECT_FALSE(found);
}

TEST_P(StoreAlgoTest, ScanReturnsOrderedShardResidents)
{
    ShardedStore store(configFor(GetParam(), 4));
    StoreWorker &w = store.registerWorker();
    store.seed(w, 256, kSeedValue);

    for (unsigned s = 0; s < store.shardCount(); ++s) {
        std::vector<std::pair<uint64_t, uint64_t>> out;
        ASSERT_EQ(store.scan(w, s, 0, 255, 256, out),
                  TxnOutcome::kCommitted);
        EXPECT_FALSE(out.empty()) << "shard " << s;
        uint64_t prev = 0;
        bool first = true;
        for (const auto &[key, value] : out) {
            if (!first)
                EXPECT_GT(key, prev);
            first = false;
            prev = key;
            EXPECT_EQ(value, kSeedValue);
            // Only this shard's residents may appear.
            EXPECT_EQ(store.shardOf(key), s);
        }
    }
}

TEST_P(StoreAlgoTest, SingleShardRmwAddsDelta)
{
    ShardedStore store(configFor(GetParam(), 4));
    StoreWorker &w = store.registerWorker();
    store.seed(w, 32, kSeedValue);
    // Force all keys onto one shard so the native path runs.
    std::vector<uint64_t> keys{store.keyForShard(2, 0),
                               store.keyForShard(2, 1)};
    for (uint64_t key : keys)
        ASSERT_EQ(store.put(w, key, kSeedValue), TxnOutcome::kCommitted);
    ASSERT_EQ(store.multiRmw(w, keys, 7), TxnOutcome::kCommitted);
    for (uint64_t key : keys) {
        uint64_t v = 0;
        bool found = false;
        ASSERT_EQ(store.get(w, key, v, found), TxnOutcome::kCommitted);
        EXPECT_TRUE(found);
        EXPECT_EQ(v, kSeedValue + 7);
    }
}

TEST_P(StoreAlgoTest, CrossShardRmwSpansDomains)
{
    ShardedStore store(configFor(GetParam(), 4));
    StoreWorker &w = store.registerWorker();
    // One key per shard: guaranteed cross-shard.
    std::vector<uint64_t> keys;
    for (unsigned s = 0; s < store.shardCount(); ++s) {
        keys.push_back(store.keyForShard(s, s));
        ASSERT_EQ(store.put(w, keys.back(), kSeedValue),
                  TxnOutcome::kCommitted);
    }
    ASSERT_EQ(store.multiRmw(w, keys, 3), TxnOutcome::kCommitted);
    for (uint64_t key : keys) {
        uint64_t v = 0;
        bool found = false;
        ASSERT_EQ(store.get(w, key, v, found), TxnOutcome::kCommitted);
        EXPECT_TRUE(found);
        EXPECT_EQ(v, kSeedValue + 3);
    }
    EXPECT_GE(store.stats().get(Counter::kCrossShardCommits), 1u);
}

/** Keeps the last committed operation's record. */
class LastRecordObserver final : public StoreObserver
{
  public:
    void onTxnBegin(unsigned) override {}
    void onTxnCommit(const StoreOpRecord &rec) override { last = rec; }

    StoreOpRecord last;
};

using KV = std::pair<uint64_t, uint64_t>;

// A duplicate key reads its seeded value once (the second visit sees
// the RMW's own write, which is no external read) and writes twice; a
// never-seeded key starts from zero and records no read.
TEST_P(StoreAlgoTest, NativeRmwRecordsDuplicateAndFreshKeys)
{
    ShardedStore store(configFor(GetParam(), 4));
    StoreWorker &w = store.registerWorker();
    const uint64_t seeded = store.keyForShard(1, 0);
    const uint64_t fresh = store.keyForShard(1, 1);
    ASSERT_LT(seeded, fresh);
    ASSERT_EQ(store.put(w, seeded, kSeedValue), TxnOutcome::kCommitted);

    LastRecordObserver observer;
    store.setObserver(&observer);
    ASSERT_EQ(store.multiRmw(w, {fresh, seeded, seeded}, 7),
              TxnOutcome::kCommitted);
    store.setObserver(nullptr);

    EXPECT_EQ(observer.last.reads, (std::vector<KV>{{seeded, kSeedValue}}));
    EXPECT_EQ(observer.last.writes,
              (std::vector<KV>{{seeded, kSeedValue + 7},
                               {seeded, kSeedValue + 14},
                               {fresh, 7}}));
    // A key the RMW created joins the shard's scan index.
    std::vector<KV> out;
    ASSERT_EQ(store.scan(w, 1, fresh, fresh, 0, out),
              TxnOutcome::kCommitted);
    EXPECT_EQ(out, (std::vector<KV>{{fresh, 7}}));
}

TEST_P(StoreAlgoTest, CrossShardRmwRecordsDuplicateAndFreshKeys)
{
    ShardedStore store(configFor(GetParam(), 4));
    StoreWorker &w = store.registerWorker();
    const uint64_t seeded = store.keyForShard(0, 0);
    const uint64_t fresh = store.keyForShard(2, 1);
    ASSERT_EQ(store.put(w, seeded, kSeedValue), TxnOutcome::kCommitted);

    LastRecordObserver observer;
    store.setObserver(&observer);
    ASSERT_EQ(store.multiRmw(w, {seeded, fresh, seeded}, 5),
              TxnOutcome::kCommitted);
    store.setObserver(nullptr);
    EXPECT_EQ(store.stats().get(Counter::kCrossShardCommits), 1u);

    // Shards commit in domain order (shard 0 first), keys in order.
    EXPECT_EQ(observer.last.reads, (std::vector<KV>{{seeded, kSeedValue}}));
    EXPECT_EQ(observer.last.writes,
              (std::vector<KV>{{seeded, kSeedValue + 5},
                               {seeded, kSeedValue + 10},
                               {fresh, 5}}));
    uint64_t v = 0;
    bool found = false;
    ASSERT_EQ(store.get(w, fresh, v, found), TxnOutcome::kCommitted);
    EXPECT_TRUE(found);
    EXPECT_EQ(v, 5u);
}

TEST_P(StoreAlgoTest, ConcurrentCrossShardRmwPreservesSum)
{
    const unsigned kThreads = 3;
    const unsigned kOpsPerThread = 60;
    const uint64_t kKeys = 48;

    ShardedStore store(configFor(GetParam(), 3));
    StoreWorker &seeder = store.registerWorker();
    store.seed(seeder, kKeys, kSeedValue);

    std::vector<StoreWorker *> workers(kThreads);
    for (unsigned t = 0; t < kThreads; ++t)
        workers[t] = &store.registerWorker();

    std::vector<uint64_t> committed(kThreads, 0);
    SenseBarrier barrier(kThreads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            Rng rng(1000 + t);
            barrier.arriveAndWait();
            for (unsigned op = 0; op < kOpsPerThread; ++op) {
                // Three DISTINCT keys so each committed RMW adds
                // exactly 3 to the table sum.
                std::set<uint64_t> picked;
                while (picked.size() < 3)
                    picked.insert(rng.nextBounded(kKeys));
                std::vector<uint64_t> keys(picked.begin(),
                                           picked.end());
                if (store.multiRmw(*workers[t], keys, 1) ==
                    TxnOutcome::kCommitted)
                    ++committed[t];
            }
        });
    }
    for (auto &th : pool)
        th.join();

    uint64_t totalCommitted = 0;
    for (uint64_t c : committed)
        totalCommitted += c;
    EXPECT_EQ(totalCommitted, uint64_t(kThreads) * kOpsPerThread);

    uint64_t sum = 0;
    for (uint64_t key = 0; key < kKeys; ++key) {
        uint64_t v = 0;
        bool found = false;
        ASSERT_EQ(store.get(seeder, key, v, found),
                  TxnOutcome::kCommitted);
        ASSERT_TRUE(found);
        sum += v;
    }
    EXPECT_EQ(sum, kKeys * kSeedValue + totalCommitted * 3);
}

/** StoreObserver -> check::History bridge (mirrors bench_store). */
class RecordingObserver final : public StoreObserver
{
  public:
    void
    onTxnBegin(unsigned worker) override
    {
        std::lock_guard<std::mutex> guard(lock_);
        history_.push(worker, check::HistKind::kBegin);
    }

    void
    onTxnCommit(const StoreOpRecord &rec) override
    {
        std::lock_guard<std::mutex> guard(lock_);
        history_.push(rec.worker, check::HistKind::kAttempt);
        for (const auto &[key, value] : rec.reads)
            history_.push(rec.worker, check::HistKind::kRead,
                          static_cast<unsigned>(key), value);
        for (const auto &[key, value] : rec.writes)
            history_.push(rec.worker, check::HistKind::kWrite,
                          static_cast<unsigned>(key), value);
        history_.push(rec.worker, check::HistKind::kCommit);
    }

    const check::History &history() const { return history_; }

  private:
    std::mutex lock_;
    check::History history_;
};

TEST_P(StoreAlgoTest, ConcurrentHistoriesAreStrictlySerializable)
{
    const unsigned kThreads = 3;
    const unsigned kOpsPerThread = 50;
    const uint64_t kKeys = 64; // Checker var ids are uint16.

    ShardedStore store(configFor(GetParam(), 3));
    StoreWorker &seeder = store.registerWorker();
    store.seed(seeder, kKeys, kSeedValue);

    RecordingObserver observer;
    store.setObserver(&observer);

    std::vector<StoreWorker *> workers(kThreads);
    for (unsigned t = 0; t < kThreads; ++t)
        workers[t] = &store.registerWorker();

    SenseBarrier barrier(kThreads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            Rng rng(77 + t);
            std::vector<std::pair<uint64_t, uint64_t>> scanOut;
            barrier.arriveAndWait();
            for (unsigned op = 0; op < kOpsPerThread; ++op) {
                uint64_t draw = rng.nextBounded(100);
                uint64_t key = rng.nextBounded(kKeys);
                if (draw < 30) {
                    uint64_t v = 0;
                    bool found = false;
                    ASSERT_EQ(store.get(*workers[t], key, v, found),
                              TxnOutcome::kCommitted);
                } else if (draw < 55) {
                    ASSERT_EQ(
                        store.put(*workers[t], key, rng.next() >> 1),
                        TxnOutcome::kCommitted);
                } else if (draw < 65) {
                    unsigned shard = static_cast<unsigned>(
                        rng.nextBounded(store.shardCount()));
                    ASSERT_EQ(store.scan(*workers[t], shard, key,
                                         key + 15, 8, scanOut),
                              TxnOutcome::kCommitted);
                } else {
                    std::vector<uint64_t> keys{
                        rng.nextBounded(kKeys), rng.nextBounded(kKeys),
                        rng.nextBounded(kKeys)};
                    ASSERT_EQ(store.multiRmw(*workers[t], keys, 1),
                              TxnOutcome::kCommitted);
                }
            }
        });
    }
    for (auto &th : pool)
        th.join();
    store.setObserver(nullptr);

    // Cross-shard commits must actually be exercised by the mix.
    EXPECT_GE(store.stats().get(Counter::kCrossShardCommits), 1u);

    std::vector<uint64_t> initial(kKeys, kSeedValue);
    check::CheckResult result =
        check::checkHistory(observer.history(), initial);
    EXPECT_TRUE(result.ok())
        << check::checkVerdictName(result.verdict) << ": "
        << result.detail;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, StoreAlgoTest, ::testing::ValuesIn(allAlgoKinds()),
    [](const ::testing::TestParamInfo<AlgoKind> &info) {
        std::string name = algoKindName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(ShardedStoreTest, HashPartitionCoversAllShards)
{
    ShardedStore store(configFor(AlgoKind::kRhNOrec, 4));
    std::set<unsigned> seen;
    for (uint64_t key = 0; key < 1024; ++key) {
        unsigned s = store.shardOf(key);
        ASSERT_LT(s, store.shardCount());
        seen.insert(s);
    }
    EXPECT_EQ(seen.size(), store.shardCount());
    for (unsigned s = 0; s < store.shardCount(); ++s)
        EXPECT_EQ(store.shardOf(store.keyForShard(s, 9)), s);
}

class StoreBucketSpreadTest : public ::testing::TestWithParam<unsigned>
{
};

// Shard placement takes the low bits of the key hash; if a shard's hash
// map drew its bucket from the same bits, each shard would fill only
// 1/S of its buckets and chains would be S times longer. At per-shard
// load factor 2 a get at chain position i costs 2i + 1 fast-path reads
// (head, i keys, i - 1 next pointers, the value), about 3 + lf = 5 on
// average; 3 + 2 * lf = 7 bounds it with room for hashing noise.
TEST_P(StoreBucketSpreadTest, GetReadsStayNearLoadFactorTwo)
{
    const unsigned shards = GetParam();
    const unsigned bucketsLog2 = 12;
    const double loadFactor = 2.0;
    const uint64_t keys =
        static_cast<uint64_t>(loadFactor * shards) << bucketsLog2;

    StoreConfig cfg;
    cfg.shards = shards;
    cfg.hashBucketsLog2 = bucketsLog2;
    ShardedStore store(cfg);
    StoreWorker &w = store.registerWorker();
    store.seed(w, keys, kSeedValue);
    store.resetStats();

    for (uint64_t key = 0; key < keys; ++key) {
        uint64_t v = 0;
        bool found = false;
        ASSERT_EQ(store.get(w, key, v, found), TxnOutcome::kCommitted);
        ASSERT_TRUE(found) << "key " << key;
    }
    StatsSummary st = store.stats();
    // Every get must commit on the fast path, or the fast-path read
    // count would under-report the chain walks.
    ASSERT_EQ(st.get(Counter::kCommitsFastPath), keys);
    double readsPerGet =
        static_cast<double>(st.get(Counter::kFastPathReads)) /
        static_cast<double>(keys);
    RecordProperty("reads_per_get", std::to_string(readsPerGet));
    EXPECT_LT(readsPerGet, 3.0 + 2.0 * loadFactor)
        << shards << " shards: buckets correlate with shardOf";
}

INSTANTIATE_TEST_SUITE_P(Shards, StoreBucketSpreadTest,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const ::testing::TestParamInfo<unsigned> &info) {
                             return "s" + std::to_string(info.param);
                         });

TEST(ShardedStoreTest, DeadlineZeroBudgetIsRejected)
{
    ShardedStore store(configFor(AlgoKind::kRhNOrec, 2));
    StoreWorker &w = store.registerWorker();
    store.seed(w, 16, kSeedValue);
    StoreOpts opts;
    opts.deadline = std::chrono::nanoseconds(1);
    // A 1ns budget cannot admit a cross-shard RMW; it must report the
    // deadline, not commit halfway.
    std::vector<uint64_t> keys{store.keyForShard(0, 0),
                               store.keyForShard(1, 1)};
    for (uint64_t key : keys)
        ASSERT_EQ(store.put(w, key, kSeedValue), TxnOutcome::kCommitted);
    TxnOutcome out = store.multiRmw(w, keys, 1, opts);
    if (out == TxnOutcome::kDeadlineExceeded) {
        uint64_t v = 0;
        bool found = false;
        for (uint64_t key : keys) {
            ASSERT_EQ(store.get(w, key, v, found),
                      TxnOutcome::kCommitted);
            EXPECT_TRUE(found);
            EXPECT_EQ(v, kSeedValue) << "partial cross-shard commit";
        }
    } else {
        EXPECT_EQ(out, TxnOutcome::kCommitted);
    }
}

} // namespace
} // namespace rhtm
