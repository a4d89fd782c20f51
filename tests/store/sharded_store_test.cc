/**
 * @file
 * Sharded-store tests across every TM algorithm: point/range
 * semantics, cross-shard RMW atomicity under concurrency, and
 * strict-serializability of recorded operation histories (including
 * cross-shard commits) via the src/check checker.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/check/history.h"
#include "src/store/sharded_store.h"
#include "src/util/barrier.h"
#include "src/util/rng.h"
#include "src/util/sched_point.h"

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

/**
 * True for the kinds whose cross-shard RMWs try one multi-engine
 * hardware transaction before they freeze (family B).
 */
bool
hardwareFirst(AlgoKind kind)
{
    return kind == AlgoKind::kHybridNOrec ||
           kind == AlgoKind::kHybridNOrecLazy || kind == AlgoKind::kRhNOrec;
}

/**
 * Cross-shard counters after @p spanning cross-shard RMWs all
 * committed: family B may restart hardware attempts and escalate some
 * RMWs to the freeze; every other kind freezes at once and never
 * restarts.
 */
void
expectCrossCounters(ShardedStore &store, uint64_t spanning)
{
    const StatsSummary st = store.stats();
    EXPECT_EQ(st.get(Counter::kCrossShardCommits), spanning);
    if (hardwareFirst(store.config().kind)) {
        EXPECT_LE(st.get(Counter::kCrossShardEscalations), spanning);
        return;
    }
    EXPECT_EQ(st.get(Counter::kCrossShardRestarts), 0u);
    EXPECT_EQ(st.get(Counter::kCrossShardEscalations), 0u);
}

/**
 * A fault plan that caps every hardware transaction at @p lines read
 * lines and @p lines write lines, from the first begin on.
 */
FaultPlan
capacitySqueeze(size_t lines)
{
    FaultRule rule;
    rule.site = FaultSite::kHtmBegin;
    rule.kind = FaultKind::kCapacitySqueeze;
    rule.maxFires = 1;
    rule.squeezeReadLines = lines;
    rule.squeezeWriteLines = lines;
    rule.squeezeTxns = 0; // For ever.
    FaultPlan plan;
    plan.add(rule);
    return plan;
}

/**
 * capacitySqueeze() for thread @p tid alone: on a store, worker @p tid
 * (workers register in order, so worker i is thread i on every shard).
 */
FaultPlan
capacitySqueezeFor(unsigned tid, size_t lines)
{
    FaultPlan plan = capacitySqueeze(lines);
    plan.rules.front().tid = static_cast<int>(tid);
    return plan;
}

/**
 * No cross-shard part left a coordination word behind: no HTM lock,
 * fallback registration, global lock, locked clock or TL2
 * irrevocability token on any shard.
 */
void
expectShardsQuiescent(ShardedStore &store)
{
    for (unsigned s = 0; s < store.shardCount(); ++s) {
        TmRuntime &rt = store.shardRuntime(s);
        EXPECT_EQ(rt.peek(&rt.globals().htmLock), 0u) << "shard " << s;
        EXPECT_EQ(rt.peek(&rt.globals().fallbacks), 0u) << "shard " << s;
        EXPECT_EQ(rt.peek(&rt.globals().globalLock), 0u) << "shard " << s;
        EXPECT_FALSE(clockIsLocked(rt.peek(&rt.globals().clock)))
            << "shard " << s;
        if (Tl2Globals *tl2 = rt.tl2Globals()) {
            EXPECT_EQ(tl2->irrevocableOwner().load(), 0u) << "shard " << s;
        }
    }
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
            if (!first) {
                EXPECT_GT(key, prev);
            }
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

// Every key a full per-shard scan returns carries the value get()
// reads, after puts of new and existing keys, single-shard RMWs (one
// creating a key) and cross-shard RMWs of existing keys. The scan
// loads values through the index's slot pointers, so a stale or
// misfiled slot shows up here as a wrong value or a missing key.
TEST_P(StoreAlgoTest, ScanAgreesWithGetAfterWrites)
{
    ShardedStore store(configFor(GetParam(), 4));
    StoreWorker &w = store.registerWorker();
    std::map<uint64_t, uint64_t> model;
    const uint64_t kSeeded = 256;
    store.seed(w, kSeeded, kSeedValue);
    for (uint64_t key = 0; key < kSeeded; ++key)
        model[key] = kSeedValue;

    Rng rng(99);
    for (uint64_t i = 0; i < 64; ++i) {
        uint64_t key = i % 2 == 0 ? kSeeded + i : rng.nextBounded(kSeeded);
        ASSERT_EQ(store.put(w, key, 1000 + i), TxnOutcome::kCommitted);
        model[key] = 1000 + i;
    }
    for (unsigned s = 0; s < store.shardCount(); ++s) {
        // keyForShard salts of 1 and more address keys past the seed.
        std::vector<uint64_t> keys{store.keyForShard(s, 0),
                                   store.keyForShard(s, 1 + s),
                                   store.keyForShard(s, 0)};
        ASSERT_EQ(store.multiRmw(w, keys, 3), TxnOutcome::kCommitted);
        for (uint64_t key : keys)
            model[key] += 3;
    }
    for (unsigned i = 0; i < 16; ++i) {
        std::vector<uint64_t> keys{rng.nextBounded(kSeeded),
                                   rng.nextBounded(kSeeded),
                                   rng.nextBounded(kSeeded)};
        ASSERT_EQ(store.multiRmw(w, keys, 5), TxnOutcome::kCommitted);
        for (uint64_t key : keys)
            model[key] += 5;
    }
    EXPECT_GE(store.stats().get(Counter::kCrossShardCommits), 1u);

    size_t scanned = 0;
    for (unsigned s = 0; s < store.shardCount(); ++s) {
        std::vector<KV> out;
        ASSERT_EQ(store.scan(w, s, 0, INT64_MAX, 0, out),
                  TxnOutcome::kCommitted);
        std::vector<KV> want;
        for (const auto &kv : model)
            if (store.shardOf(kv.first) == s)
                want.push_back(kv);
        EXPECT_EQ(out, want) << "shard " << s;
        for (const auto &[key, value] : out) {
            uint64_t v = 0;
            bool found = false;
            ASSERT_EQ(store.get(w, key, v, found), TxnOutcome::kCommitted);
            EXPECT_TRUE(found) << "key " << key;
            EXPECT_EQ(v, value) << "key " << key;
        }
        scanned += out.size();
    }
    EXPECT_EQ(scanned, model.size());
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
    std::vector<uint64_t> spanning(kThreads, 0);
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
                std::set<unsigned> shards;
                for (uint64_t key : keys)
                    shards.insert(store.shardOf(key));
                if (store.multiRmw(*workers[t], keys, 1) !=
                    TxnOutcome::kCommitted)
                    continue;
                ++committed[t];
                if (shards.size() > 1)
                    ++spanning[t];
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
    // Frozen shards admit no conflicting commit, so a freeze-only kind
    // commits every cross-shard RMW on its one attempt; family B
    // retries in hardware and escalates some RMWs to the freeze.
    uint64_t totalSpanning = 0;
    for (uint64_t s : spanning)
        totalSpanning += s;
    EXPECT_GT(totalSpanning, 0u);
    expectCrossCounters(store, totalSpanning);
    expectShardsQuiescent(store);
}

TEST_P(StoreAlgoTest, EscalatedCrossShardRmwPreservesSum)
{
    // Every cross-shard RMW commits, in hardware (family B) or frozen
    // (blocking freezes in domain order, all parts published before
    // any is released), and each RMW whose keys span more than one
    // shard counts one cross commit on whichever path it took.
    const unsigned kThreads = 2;
    const unsigned kOpsPerThread = 40;
    const uint64_t kKeys = 24;
    ShardedStore store(configFor(GetParam(), 3));
    StoreWorker &seeder = store.registerWorker();
    store.seed(seeder, kKeys, kSeedValue);
    std::vector<StoreWorker *> workers(kThreads);
    for (unsigned t = 0; t < kThreads; ++t)
        workers[t] = &store.registerWorker();

    std::vector<uint64_t> spanning(kThreads, 0);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            Rng rng(77 + t);
            for (unsigned op = 0; op < kOpsPerThread; ++op) {
                std::set<uint64_t> picked;
                while (picked.size() < 3)
                    picked.insert(rng.nextBounded(kKeys));
                std::vector<uint64_t> keys(picked.begin(),
                                           picked.end());
                std::set<unsigned> shards;
                for (uint64_t key : keys)
                    shards.insert(store.shardOf(key));
                if (shards.size() > 1)
                    ++spanning[t];
                EXPECT_EQ(store.multiRmw(*workers[t], keys, 1),
                          TxnOutcome::kCommitted);
            }
        });
    }
    for (auto &th : pool)
        th.join();

    uint64_t sum = 0;
    for (uint64_t key = 0; key < kKeys; ++key) {
        uint64_t v = 0;
        bool found = false;
        ASSERT_EQ(store.get(seeder, key, v, found),
                  TxnOutcome::kCommitted);
        sum += v;
    }
    EXPECT_EQ(sum, kKeys * kSeedValue + 3ull * kThreads * kOpsPerThread);
    uint64_t totalSpanning = 0;
    for (uint64_t s : spanning)
        totalSpanning += s;
    EXPECT_GT(totalSpanning, 0u);
    expectCrossCounters(store, totalSpanning);
    expectShardsQuiescent(store);
}

// One cross-shard RMW writes 20 keys on each of two shards, half of
// them fresh, so each shard's part buffers far more words than the 16
// its write index starts with and the index grows mid-body. With one
// hash bucket per shard every key's walk reads the chain head and the
// nodes this RMW already inserted, so read-own-writes span each
// growth; the repeated key must add its delta twice.
TEST_P(StoreAlgoTest, CrossShardRmwOutgrowsWriteIndex)
{
    const unsigned kKeys = 40;
    const uint64_t kDelta = 5;
    const unsigned kRepeated = 3;
    StoreConfig cfg = configFor(GetParam(), 2);
    cfg.hashBucketsLog2 = 0;
    ShardedStore store(cfg);
    StoreWorker &w = store.registerWorker();
    std::vector<uint64_t> keys;
    for (unsigned salt = 0; salt < kKeys; ++salt) {
        keys.push_back(store.keyForShard(salt % 2, salt));
        if (salt < kKeys / 2) {
            ASSERT_EQ(store.put(w, keys.back(), kSeedValue),
                      TxnOutcome::kCommitted);
        }
    }
    std::vector<uint64_t> rmwKeys = keys;
    rmwKeys.push_back(keys[kRepeated]);
    ASSERT_EQ(store.multiRmw(w, rmwKeys, kDelta), TxnOutcome::kCommitted);
    EXPECT_EQ(store.stats().get(Counter::kCrossShardCommits), 1u);
    for (unsigned i = 0; i < kKeys; ++i) {
        uint64_t v = 0;
        bool found = false;
        ASSERT_EQ(store.get(w, keys[i], v, found), TxnOutcome::kCommitted);
        EXPECT_TRUE(found) << "key " << keys[i];
        const uint64_t base = i < kKeys / 2 ? kSeedValue : 0;
        EXPECT_EQ(v, base + kDelta * (i == kRepeated ? 2 : 1))
            << "key " << keys[i];
    }
    expectShardsQuiescent(store);
}

// A cross-shard RMW that cannot freeze a shard gives up at its
// deadline instead of waiting for ever. The test holds shard 1's
// freeze word itself, so the RMW freezes shard 0 and then waits on
// shard 1 until its 2 ms budget runs out. It must report the deadline,
// change no value, and leave both shards quiescent once the word is
// let go. On family B the test holds what a slow-path writer holds, a
// fallback registration and then the clock lock: the RMW's hardware
// attempts then abort at commit under Algorithm 1's rule, and its
// freeze waits.
TEST_P(StoreAlgoTest, CrossShardFreezeHonoursDeadline)
{
    ShardedStore store(configFor(GetParam(), 2));
    StoreWorker &w = store.registerWorker();
    const std::vector<uint64_t> keys{store.keyForShard(0, 0),
                                     store.keyForShard(1, 1)};
    for (uint64_t key : keys)
        ASSERT_EQ(store.put(w, key, kSeedValue), TxnOutcome::kCommitted);

    TmRuntime &rt = store.shardRuntime(1);
    TmGlobals &g = rt.globals();
    uint64_t *word = nullptr; // The held word, for all but tl2.
    uint64_t heldFrom = 0;
    switch (GetParam()) {
    case AlgoKind::kLockElision:
        word = &g.globalLock;
        break;
    case AlgoKind::kRhTl2:
        word = &g.htmLock;
        break;
    case AlgoKind::kTl2:
        break;
    default:
        word = &g.clock;
        heldFrom = rt.peek(word);
        break;
    }
    const bool registers = hardwareFirst(GetParam());
    auto hold = [&](bool held) {
        // Register before locking; unlock before deregistering.
        if (registers && held)
            rt.poke(&g.fallbacks, 1);
        if (word != nullptr)
            rt.poke(word, heldFrom + (held ? 1 : 0));
        else
            rt.tl2Globals()->irrevocableOwner().store(held ? 1 : 0);
        if (registers && !held)
            rt.poke(&g.fallbacks, 0);
    };
    hold(true);
    // A freeze that ignored its deadline would wait for ever: let go
    // after 5 s, so that failure reports instead of hanging.
    std::atomic<bool> returned{false};
    std::thread backstop([&] {
        for (unsigned i = 0; i < 500 && !returned.load(); ++i)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        if (!returned.load())
            hold(false);
    });

    StoreOpts opts;
    opts.deadline = std::chrono::milliseconds(2);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(store.multiRmw(w, keys, 1, opts),
              TxnOutcome::kDeadlineExceeded);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1))
        << "the freeze waited past its deadline";
    returned.store(true);
    backstop.join();

    hold(false);
    expectShardsQuiescent(store);
    EXPECT_EQ(store.stats().get(Counter::kDeadlineExceeded), 1u);
    EXPECT_EQ(store.stats().get(Counter::kCrossShardCommits), 0u);
    for (uint64_t key : keys) {
        uint64_t v = 0;
        bool found = false;
        ASSERT_EQ(store.get(w, key, v, found), TxnOutcome::kCommitted);
        EXPECT_EQ(v, kSeedValue) << "key " << key;
    }
    // Nothing stayed held: the same RMW now commits.
    EXPECT_EQ(store.multiRmw(w, keys, 1), TxnOutcome::kCommitted);
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

/**
 * Run a concurrent get/put/scan/multiRmw mix on a 3-shard store of
 * @p kind and check the recorded history.
 */
void
checkConcurrentHistory(AlgoKind kind)
{
    const unsigned kThreads = 3;
    const unsigned kOpsPerThread = 50;
    const uint64_t kKeys = 64; // Checker var ids are uint16.

    ShardedStore store(configFor(kind, 3));
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

// Frozen cross-shard commits against native get, put and scan.
TEST_P(StoreAlgoTest, ConcurrentHistoriesAreStrictlySerializable)
{
    checkConcurrentHistory(GetParam());
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

/** Records every scheduling point the calling thread passes. */
class RecordingClient final : public SchedClient
{
  public:
    void
    schedYield(SchedPoint point, const void *addr, bool) override
    {
        steps.emplace_back(point, addr);
    }

    bool
    saw(SchedPoint point, const void *addr) const
    {
        for (const auto &[p, a] : steps)
            if (p == point && a == addr)
                return true;
        return false;
    }

    std::vector<std::pair<SchedPoint, const void *>> steps;
};

// ---------------------------------------------------------------------
// Family B (hy-norec, hy-norec-lazy, rh-norec): a cross-shard RMW runs
// first as one hardware transaction over the involved shards' engines.
// Its fallback freezes each shard as Algorithm 2's slow-path writer
// holds it, the clock and then the HTM lock, and publishes with plain
// stores before it releases any shard.

class StoreFamilyBTest : public ::testing::TestWithParam<AlgoKind>
{
};

TEST_P(StoreFamilyBTest, ReadOnlyFastPathSurvivesCrossShardCommit)
{
    ShardedStore store(configFor(GetParam(), 2));
    StoreWorker &rmwWorker = store.registerWorker();
    std::vector<uint64_t> keys{store.keyForShard(0, 0),
                               store.keyForShard(1, 1)};
    for (uint64_t key : keys)
        ASSERT_EQ(store.put(rmwWorker, key, kSeedValue),
                  TxnOutcome::kCommitted);

    TmRuntime &rt = store.shardRuntime(0);
    ThreadCtx &ctx = rt.registerThread();
    // Words the RMW never writes, read by a hardware fast path on an
    // involved shard.
    alignas(64) static uint64_t a = 0;
    alignas(64) static uint64_t b = 0;
    const StatsSummary before = store.shardStats(0);
    unsigned attempts = 0;
    rt.run(ctx, [&](Txn &tx) {
        ++attempts;
        tx.load(&a);
        if (attempts == 1) {
            // The whole cross-shard commit lands between two reads.
            std::thread rmw([&] {
                EXPECT_EQ(store.multiRmw(rmwWorker, keys, 1),
                          TxnOutcome::kCommitted);
            });
            rmw.join();
        }
        tx.load(&b);
    });
    const StatsSummary after = store.shardStats(0);
    auto delta = [&](Counter c) { return after.get(c) - before.get(c); };
    EXPECT_EQ(attempts, 1u);
    EXPECT_EQ(delta(Counter::kCommitsFastPath), 1u);
    EXPECT_EQ(delta(Counter::kHtmSubscriptionAborts), 0u);
    EXPECT_EQ(delta(Counter::kHtmConflictAborts), 0u);
    EXPECT_EQ(store.stats().get(Counter::kCrossShardCommits), 1u);
    EXPECT_EQ(rt.peek(&rt.globals().htmLock), 0u);
    EXPECT_EQ(rt.peek(&rt.globals().fallbacks), 0u)
        << "a fallback registration leaked";
}

/**
 * Runs the calling thread in lockstep with a controller: every
 * scheduling point the thread reaches parks it until the controller
 * resumes it, so the controller can act between any two protocol
 * steps.
 */
class LockstepClient final : public SchedClient
{
  public:
    void
    schedYield(SchedPoint, const void *, bool) override
    {
        std::unique_lock<std::mutex> lock(m_);
        if (freeRun_)
            return;
        parked_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return !parked_; });
    }

    /** Block until the thread parks or finishes; true = finished. */
    bool
    awaitStep()
    {
        std::unique_lock<std::mutex> lock(m_);
        cv_.wait(lock, [&] { return parked_ || done_; });
        return !parked_;
    }

    void
    resume()
    {
        std::lock_guard<std::mutex> lock(m_);
        parked_ = false;
        cv_.notify_all();
    }

    void
    finish()
    {
        std::lock_guard<std::mutex> lock(m_);
        done_ = true;
        cv_.notify_all();
    }

    /** Resume the thread and stop parking it. */
    void
    runFree()
    {
        std::lock_guard<std::mutex> lock(m_);
        freeRun_ = true;
        parked_ = false;
        cv_.notify_all();
    }

  private:
    std::mutex m_;
    std::condition_variable cv_;
    bool parked_ = false;
    bool done_ = false;
    bool freeRun_ = false;
};

/**
 * Cross-shard atomic visibility to native readers. Between every two
 * scheduling points of the committing thread the controller reads one
 * shard's key natively and, if that read sees the new value, reads the
 * other shard's key: it must see the new value too.
 *
 * Hardware path (@p freeze false): the readers are hardware
 * transactions that subscribe to no lock the RMW holds, so every read
 * commits; publishing each shard in its own window fails this at the
 * point between the two windows.
 *
 * Freeze (@p freeze true): only the writer's hardware attempts are
 * squeezed, so the RMW escalates once and commits frozen. A hardware
 * reader subscribes to htmLock, which the freeze raises, and a
 * software reader waits for the clock, so a read of a frozen shard
 * runs into its few-ms deadline and observes nothing. Without the
 * raise, or with per-word stores in place of it, a reader sees one
 * shard's new value beside the other's old one.
 */
void
expectNativeReadersSeeRmwAtomically(AlgoKind kind, bool freeze)
{
    StoreConfig cfg = configFor(kind, 2);
    if (freeze)
        cfg.runtime.fault = capacitySqueezeFor(0, 2);
    ShardedStore store(cfg);
    StoreWorker &writer = store.registerWorker();
    StoreWorker &reader = store.registerWorker();
    const uint64_t keys[2] = {store.keyForShard(0, 0),
                              store.keyForShard(1, 1)};
    for (uint64_t key : keys)
        ASSERT_EQ(store.put(writer, key, kSeedValue),
                  TxnOutcome::kCommitted);
    store.resetStats();

    LockstepClient client;
    TxnOutcome outcome = TxnOutcome::kDeadlineExceeded;
    std::thread rmw([&] {
        setSchedClient(&client);
        outcome = store.multiRmw(writer, {keys[0], keys[1]}, 1);
        setSchedClient(nullptr);
        client.finish();
    });

    StoreOpts opts;
    // On the hardware path a hang fails, not stalls.
    opts.deadline = freeze ? std::chrono::milliseconds(3)
                           : std::chrono::milliseconds(5000);
    // True with @p v set when the read committed; false when a frozen
    // shard held it past its deadline.
    auto read = [&](uint64_t key, uint64_t &v) {
        bool found = false;
        const TxnOutcome o = store.get(reader, key, v, found, opts);
        if (freeze && o == TxnOutcome::kDeadlineExceeded)
            return false;
        EXPECT_EQ(o, TxnOutcome::kCommitted);
        return o == TxnOutcome::kCommitted;
    };
    unsigned steps = 0;
    bool sawNew = false;
    for (;;) {
        const bool finished = client.awaitStep();
        for (unsigned first = 0; first < 2; ++first) {
            uint64_t v = 0;
            if (!read(keys[first], v) || v != kSeedValue + 1)
                continue;
            sawNew = true;
            uint64_t other = 0;
            if (read(keys[1 - first], other)) {
                EXPECT_EQ(other, kSeedValue + 1)
                    << "shard " << first << " showed the RMW, shard "
                    << 1 - first << " did not (step " << steps << ")";
            }
        }
        if (finished)
            break;
        ++steps;
        client.resume();
    }
    rmw.join();
    EXPECT_EQ(outcome, TxnOutcome::kCommitted);
    if (freeze) {
        EXPECT_EQ(store.stats().get(Counter::kCrossShardEscalations), 1u);
    }
    EXPECT_TRUE(sawNew);
    EXPECT_GT(steps, 4u) << "the commit must be observed step by step";
    expectShardsQuiescent(store);
}

TEST_P(StoreFamilyBTest, NativeReadersSeeCrossShardCommitAtomically)
{
    expectNativeReadersSeeRmwAtomically(GetParam(), /*freeze=*/false);
}

TEST_P(StoreFamilyBTest, NativeReadersSeeFrozenCrossShardCommitAtomically)
{
    expectNativeReadersSeeRmwAtomically(GetParam(), /*freeze=*/true);
}

// A frozen cross-shard RMW is not starved by native writers. Only the
// RMW worker's hardware attempts are squeezed, so it freezes. It is
// parked at every scheduling point, and at each stop a native put to
// another key commits on every involved shard whose clock is unlocked
// and whose htmLock is 0, that is, every shard the freeze does not
// hold yet. A freeze that registered as a fallback before its clock
// CAS made every such put bump the clock it was about to take, so it
// looped for as long as the puts came.
TEST_P(StoreFamilyBTest, FrozenCrossShardRmwIsNotStarvedByNativePuts)
{
    StoreConfig cfg = configFor(GetParam(), 2);
    cfg.runtime.fault = capacitySqueezeFor(0, 2);
    ShardedStore store(cfg);
    StoreWorker &rmwWorker = store.registerWorker();
    StoreWorker &putWorker = store.registerWorker();
    const uint64_t keys[2] = {store.keyForShard(0, 0),
                              store.keyForShard(1, 1)};
    const uint64_t others[2] = {store.keyForShard(0, 2),
                                store.keyForShard(1, 3)};
    for (uint64_t key : keys)
        ASSERT_EQ(store.put(rmwWorker, key, kSeedValue),
                  TxnOutcome::kCommitted);
    for (uint64_t key : others)
        ASSERT_EQ(store.put(putWorker, key, kSeedValue),
                  TxnOutcome::kCommitted);
    store.resetStats();

    LockstepClient client;
    TxnOutcome outcome = TxnOutcome::kDeadlineExceeded;
    std::thread rmw([&] {
        setSchedClient(&client);
        outcome = store.multiRmw(rmwWorker, {keys[0], keys[1]}, 1);
        setSchedClient(nullptr);
        client.finish();
    });

    StoreOpts opts;
    opts.deadline = std::chrono::milliseconds(50);
    const unsigned kMaxSteps = 300;
    unsigned steps = 0;
    unsigned puts = 0;
    for (;;) {
        if (client.awaitStep())
            break;
        if (steps == kMaxSteps) {
            ADD_FAILURE() << "the RMW did not finish in " << kMaxSteps
                          << " stops (" << puts << " puts)";
            client.runFree();
            break;
        }
        for (unsigned s = 0; s < 2; ++s) {
            TmRuntime &rt = store.shardRuntime(s);
            if (clockIsLocked(rt.peek(&rt.globals().clock)) ||
                rt.peek(&rt.globals().htmLock) != 0)
                continue;
            EXPECT_EQ(store.put(putWorker, others[s], steps, opts),
                      TxnOutcome::kCommitted)
                << "put to shard " << s << " at step " << steps;
            ++puts;
        }
        ++steps;
        client.resume();
    }
    rmw.join();
    EXPECT_EQ(outcome, TxnOutcome::kCommitted);
    EXPECT_EQ(store.stats().get(Counter::kCrossShardEscalations), 1u);
    EXPECT_GT(puts, 0u);
    expectShardsQuiescent(store);
    for (uint64_t key : keys) {
        uint64_t v = 0;
        bool found = false;
        ASSERT_EQ(store.get(rmwWorker, key, v, found),
                  TxnOutcome::kCommitted);
        EXPECT_EQ(v, kSeedValue + 1) << "key " << key;
    }
}

// A native get on a shard whose clock and htmLock are held (what a
// frozen family-B shard shows) gives up at its deadline, not long
// after: once its wait declares a stall it yields and sleeps, and it
// must read the clock at every such step rather than every 64th.
TEST_P(StoreFamilyBTest, GetOnAFrozenShardReturnsByItsDeadline)
{
    ShardedStore store(configFor(GetParam(), 2));
    StoreWorker &w = store.registerWorker();
    const uint64_t key = store.keyForShard(0, 0);
    ASSERT_EQ(store.put(w, key, kSeedValue), TxnOutcome::kCommitted);
    TmRuntime &rt = store.shardRuntime(0);
    TmGlobals &g = rt.globals();
    const uint64_t clock = rt.peek(&g.clock);
    rt.poke(&g.clock, clock + 1);
    rt.poke(&g.htmLock, 1);
    for (unsigned ms : {1u, 5u, 20u}) {
        StoreOpts opts;
        opts.deadline = std::chrono::milliseconds(ms);
        uint64_t v = 0;
        bool found = false;
        const auto start = std::chrono::steady_clock::now();
        EXPECT_EQ(store.get(w, key, v, found, opts),
                  TxnOutcome::kDeadlineExceeded);
        EXPECT_LT(std::chrono::steady_clock::now() - start,
                  opts.deadline + std::chrono::milliseconds(20))
            << "deadline " << ms << " ms";
    }
    rt.poke(&g.htmLock, 0);
    rt.poke(&g.clock, clock);
    expectShardsQuiescent(store);
    uint64_t v = 0;
    bool found = false;
    ASSERT_EQ(store.get(w, key, v, found), TxnOutcome::kCommitted);
    EXPECT_EQ(v, kSeedValue);
}

// A multi-engine hardware commit is one transaction, so it rolls the
// commit-time fault sites once, whatever the number of parts: the
// kPreCommit and kPublishWindow hits summed over the involved shards'
// injectors rise by exactly one per joint commit.
TEST_P(StoreFamilyBTest, JointCommitRollsCommitFaultsOnce)
{
    StoreConfig cfg = configFor(GetParam(), 3);
    // A rule for a thread that never registers: every worker gets an
    // injector that only counts hits.
    FaultRule idle;
    idle.site = FaultSite::kPreCommit;
    idle.kind = FaultKind::kAbortOther;
    idle.tid = 1000;
    cfg.runtime.fault.add(idle);
    ShardedStore store(cfg);
    StoreWorker &w = store.registerWorker();
    const std::vector<uint64_t> keys{store.keyForShard(0, 0),
                                     store.keyForShard(1, 1),
                                     store.keyForShard(2, 2)};
    for (uint64_t key : keys)
        ASSERT_EQ(store.put(w, key, kSeedValue), TxnOutcome::kCommitted);
    auto hits = [&](FaultSite site) {
        uint64_t n = 0;
        for (unsigned s = 0; s < store.shardCount(); ++s)
            n += store.shardRuntime(s).context(w.id()).injector()->hits(
                site);
        return n;
    };
    for (size_t parts : {2u, 3u}) {
        SCOPED_TRACE(parts);
        const uint64_t preCommit = hits(FaultSite::kPreCommit);
        const uint64_t window = hits(FaultSite::kPublishWindow);
        store.resetStats();
        const std::vector<uint64_t> span(keys.begin(),
                                         keys.begin() + parts);
        ASSERT_EQ(store.multiRmw(w, span, 1), TxnOutcome::kCommitted);
        ASSERT_EQ(store.stats().get(Counter::kCrossShardRestarts), 0u);
        ASSERT_EQ(store.stats().get(Counter::kCrossShardEscalations), 0u);
        EXPECT_EQ(hits(FaultSite::kPreCommit) - preCommit, 1u);
        EXPECT_EQ(hits(FaultSite::kPublishWindow) - window, 1u);
    }
    expectShardsQuiescent(store);
}

// With nothing in its way a cross-shard RMW commits in hardware: no
// freeze (no seqlock transition on either clock), no registration
// left behind, and no clock bump, since Algorithm 1 bumps the clock
// only while a fallback is registered. The commit counts as a cross
// commit, not as a native fast-path commit.
TEST_P(StoreFamilyBTest, CrossShardRmwCommitsInHardware)
{
    ShardedStore store(configFor(GetParam(), 2));
    StoreWorker &w = store.registerWorker();
    const std::vector<uint64_t> keys{store.keyForShard(0, 0),
                                     store.keyForShard(1, 1)};
    for (uint64_t key : keys)
        ASSERT_EQ(store.put(w, key, kSeedValue), TxnOutcome::kCommitted);
    uint64_t clocks[2];
    for (unsigned s = 0; s < 2; ++s) {
        TmRuntime &rt = store.shardRuntime(s);
        clocks[s] = rt.peek(&rt.globals().clock);
    }
    const StatsSummary before = store.stats();

    RecordingClient client;
    setSchedClient(&client);
    TxnOutcome outcome = store.multiRmw(w, keys, 4);
    setSchedClient(nullptr);
    ASSERT_EQ(outcome, TxnOutcome::kCommitted);

    const StatsSummary after = store.stats();
    auto delta = [&](Counter c) { return after.get(c) - before.get(c); };
    EXPECT_EQ(delta(Counter::kCrossShardCommits), 1u);
    EXPECT_EQ(delta(Counter::kCrossShardEscalations), 0u);
    EXPECT_EQ(delta(Counter::kCrossShardRestarts), 0u);
    EXPECT_EQ(delta(Counter::kCommitsFastPath), 0u);
    for (unsigned s = 0; s < 2; ++s) {
        TmRuntime &rt = store.shardRuntime(s);
        EXPECT_FALSE(client.saw(SchedPoint::kSeqlockAcquire,
                                &rt.globals().clock))
            << "shard " << s;
        EXPECT_EQ(rt.peek(&rt.globals().clock), clocks[s]) << "shard " << s;
    }
    expectShardsQuiescent(store);
    for (uint64_t key : keys) {
        uint64_t v = 0;
        bool found = false;
        ASSERT_EQ(store.get(w, key, v, found), TxnOutcome::kCommitted);
        EXPECT_EQ(v, kSeedValue + 4) << "key " << key;
    }
}

// A cross-shard RMW that does not fit one hardware transaction (a
// capacity abort, which retrying cannot cure) leaves the hardware
// path at once and commits frozen.
TEST_P(StoreFamilyBTest, CapacitySqueezedCrossShardRmwFreezes)
{
    StoreConfig cfg = configFor(GetParam(), 2);
    cfg.runtime.fault = capacitySqueeze(2);
    ShardedStore store(cfg);
    StoreWorker &w = store.registerWorker();
    const std::vector<uint64_t> keys{store.keyForShard(0, 0),
                                     store.keyForShard(1, 1)};
    for (uint64_t key : keys)
        ASSERT_EQ(store.put(w, key, kSeedValue), TxnOutcome::kCommitted);
    store.resetStats();

    ASSERT_EQ(store.multiRmw(w, keys, 3), TxnOutcome::kCommitted);
    const StatsSummary st = store.stats();
    EXPECT_EQ(st.get(Counter::kCrossShardCommits), 1u);
    EXPECT_EQ(st.get(Counter::kCrossShardEscalations), 1u);
    EXPECT_EQ(st.get(Counter::kCrossShardRestarts), 0u);
    EXPECT_EQ(st.get(Counter::kHtmCapacityAborts), 1u);
    expectShardsQuiescent(store);
    uint64_t sum = 0;
    for (uint64_t key : keys) {
        uint64_t v = 0;
        bool found = false;
        ASSERT_EQ(store.get(w, key, v, found), TxnOutcome::kCommitted);
        sum += v;
    }
    EXPECT_EQ(sum, 2 * (kSeedValue + 3));
}

/** Runs @p hook at the first @p point the calling thread reaches. */
class OnceAtClient final : public SchedClient
{
  public:
    OnceAtClient(SchedPoint point, std::function<void()> hook)
        : point_(point), hook_(std::move(hook))
    {}

    void
    schedYield(SchedPoint point, const void *, bool) override
    {
        if (point != point_ || !hook_)
            return;
        std::function<void()> hook = std::move(hook_);
        hook_ = nullptr;
        hook();
    }

  private:
    SchedPoint point_;
    std::function<void()> hook_;
};

// A native put to one of the RMW's keys lands between the RMW's read
// of that key and its joint commit. The commit's validation finds the
// line overwritten and aborts the attempt (kConflict, retryable); the
// retry reads the put's value and commits on top of it.
TEST_P(StoreFamilyBTest, NativePutBeforeCrossShardCommitForcesRetry)
{
    ShardedStore store(configFor(GetParam(), 2));
    StoreWorker &rmwWorker = store.registerWorker();
    StoreWorker &putWorker = store.registerWorker();
    const std::vector<uint64_t> keys{store.keyForShard(0, 0),
                                     store.keyForShard(1, 1)};
    for (uint64_t key : keys)
        ASSERT_EQ(store.put(rmwWorker, key, kSeedValue),
                  TxnOutcome::kCommitted);
    store.resetStats();

    const uint64_t kPut = 1000;
    OnceAtClient client(SchedPoint::kHtmCommit, [&] {
        std::thread put([&] {
            EXPECT_EQ(store.put(putWorker, keys[0], kPut),
                      TxnOutcome::kCommitted);
        });
        put.join();
    });
    TxnOutcome outcome = TxnOutcome::kDeadlineExceeded;
    std::thread rmw([&] {
        setSchedClient(&client);
        outcome = store.multiRmw(rmwWorker, keys, 2);
        setSchedClient(nullptr);
    });
    rmw.join();
    ASSERT_EQ(outcome, TxnOutcome::kCommitted);

    const StatsSummary st = store.stats();
    EXPECT_EQ(st.get(Counter::kCrossShardCommits), 1u);
    EXPECT_EQ(st.get(Counter::kCrossShardRestarts), 1u);
    EXPECT_EQ(st.get(Counter::kCrossShardEscalations), 0u);
    EXPECT_EQ(store.shardStats(0).get(Counter::kHtmConflictAborts), 1u);
    EXPECT_EQ(store.shardStats(0).get(Counter::kCommitsFastPath), 1u)
        << "the put";
    expectShardsQuiescent(store);
    const uint64_t want[2] = {kPut + 2, kSeedValue + 2};
    for (unsigned i = 0; i < 2; ++i) {
        uint64_t v = 0;
        bool found = false;
        ASSERT_EQ(store.get(rmwWorker, keys[i], v, found),
                  TxnOutcome::kCommitted);
        EXPECT_EQ(v, want[i]) << "key " << keys[i];
    }
}

// A cross-shard RMW holds nothing a native writer waits for. The RMW
// thread is parked at each of its scheduling points in turn, and at
// every stop a native put to another key on each involved shard must
// commit within 50 ms. A freeze, which holds the shards' clock and
// htmLock for its whole body, fails this: a put that starts inside the
// hold aborts on htmLock and then waits on the clock, past its
// deadline or, once it runs irrevocably, until the RMW moves.
// The puts run on their own thread, so such a wait fails the test
// after a second (the RMW then runs free) instead of hanging it. An
// RMW that the puts starve (each put moves the clock its freeze is
// about to take) fails it after 1000 stops.
TEST_P(StoreFamilyBTest, ParkedCrossShardRmwBlocksNoNativeWriter)
{
    ShardedStore store(configFor(GetParam(), 2));
    StoreWorker &rmwWorker = store.registerWorker();
    StoreWorker &putWorker = store.registerWorker();
    const uint64_t keys[2] = {store.keyForShard(0, 0),
                              store.keyForShard(1, 1)};
    const uint64_t others[2] = {store.keyForShard(0, 2),
                                store.keyForShard(1, 3)};
    for (uint64_t key : keys)
        ASSERT_EQ(store.put(rmwWorker, key, kSeedValue),
                  TxnOutcome::kCommitted);
    // The put worker's own arena holds the other keys' nodes, so no
    // node the RMW reads shares a cache line with one a put writes.
    for (uint64_t key : others)
        ASSERT_EQ(store.put(putWorker, key, kSeedValue),
                  TxnOutcome::kCommitted);

    LockstepClient client;
    TxnOutcome outcome = TxnOutcome::kDeadlineExceeded;
    std::thread rmw([&] {
        setSchedClient(&client);
        outcome = store.multiRmw(rmwWorker, {keys[0], keys[1]}, 1);
        setSchedClient(nullptr);
        client.finish();
    });

    StoreOpts opts;
    opts.deadline = std::chrono::milliseconds(50);
    const unsigned kMaxSteps = 1000;
    unsigned steps = 0;
    for (;;) {
        const bool finished = client.awaitStep();
        if (finished)
            break;
        if (steps == kMaxSteps) {
            ADD_FAILURE() << "the RMW did not finish in " << kMaxSteps
                          << " stops";
            client.runFree();
            break;
        }
        std::atomic<bool> done{false};
        std::thread puts([&] {
            for (unsigned s = 0; s < 2; ++s) {
                EXPECT_EQ(store.put(putWorker, others[s], steps, opts),
                          TxnOutcome::kCommitted)
                    << "put to shard " << s << " at step " << steps;
            }
            done.store(true);
        });
        const auto giveUp =
            std::chrono::steady_clock::now() + std::chrono::seconds(1);
        while (!done.load() && std::chrono::steady_clock::now() < giveUp)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (!done.load()) {
            ADD_FAILURE() << "a put waited on the parked RMW at step "
                          << steps;
            client.runFree();
            puts.join();
            break;
        }
        puts.join();
        ++steps;
        client.resume();
    }
    rmw.join();
    EXPECT_EQ(outcome, TxnOutcome::kCommitted);
    EXPECT_GT(steps, 4u) << "the RMW must be parked step by step";
    expectShardsQuiescent(store);
    for (uint64_t key : keys) {
        uint64_t v = 0;
        bool found = false;
        ASSERT_EQ(store.get(rmwWorker, key, v, found),
                  TxnOutcome::kCommitted);
        EXPECT_EQ(v, kSeedValue + 1) << "key " << key;
    }
}

INSTANTIATE_TEST_SUITE_P(
    ClockEngine, StoreFamilyBTest,
    ::testing::Values(AlgoKind::kHybridNOrec, AlgoKind::kHybridNOrecLazy,
                      AlgoKind::kRhNOrec),
    [](const ::testing::TestParamInfo<AlgoKind> &info) {
        std::string name = algoKindName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// Every shared access a cross-shard commit makes sits behind a
// scheduling point, so the interleaving explorer can drive it: the
// NOrec-family freeze reports its seqlock transitions on each shard's
// clock (rh-norec reaches its freeze under a capacity squeeze), TL2's
// 2PL reads their orec CASes, and rh-norec's hardware path begins and
// commits one hardware transaction per shard.
TEST(ShardedStoreTest, CrossShardCommitReachesSchedulingPoints)
{
    for (AlgoKind kind :
         {AlgoKind::kNOrec, AlgoKind::kRhNOrec, AlgoKind::kTl2}) {
        SCOPED_TRACE(algoKindName(kind));
        StoreConfig cfg = configFor(kind, 2);
        if (kind == AlgoKind::kRhNOrec)
            cfg.runtime.fault = capacitySqueeze(2);
        ShardedStore store(cfg);
        StoreWorker &w = store.registerWorker();
        std::vector<uint64_t> keys{store.keyForShard(0, 0),
                                   store.keyForShard(1, 1)};
        for (uint64_t key : keys)
            ASSERT_EQ(store.put(w, key, kSeedValue),
                      TxnOutcome::kCommitted);

        RecordingClient client;
        setSchedClient(&client);
        TxnOutcome outcome = store.multiRmw(w, keys, 1);
        setSchedClient(nullptr);
        ASSERT_EQ(outcome, TxnOutcome::kCommitted);
        ASSERT_EQ(store.stats().get(Counter::kCrossShardCommits), 1u);

        for (unsigned s = 0; s < store.shardCount(); ++s) {
            TmRuntime &rt = store.shardRuntime(s);
            if (kind != AlgoKind::kTl2) {
                const uint64_t *clock = &rt.globals().clock;
                EXPECT_TRUE(client.saw(SchedPoint::kSeqlockAcquire, clock))
                    << "shard " << s;
                EXPECT_TRUE(client.saw(SchedPoint::kSeqlockRelease, clock))
                    << "shard " << s;
                continue;
            }
            // The orec covering each word the body loaded; the body must
            // CAS at least one of this shard's as it reads.
            Tl2Globals &tl2 = *rt.tl2Globals();
            bool lockedOrec = false;
            for (const auto &[point, addr] : client.steps) {
                if (point != SchedPoint::kRawLoad)
                    continue;
                lockedOrec = lockedOrec ||
                             client.saw(SchedPoint::kRawRmw,
                                        &tl2.orec(tl2.orecOf(addr)));
            }
            EXPECT_TRUE(lockedOrec) << "shard " << s;
        }
    }

    ShardedStore store(configFor(AlgoKind::kRhNOrec, 2));
    StoreWorker &w = store.registerWorker();
    std::vector<uint64_t> keys{store.keyForShard(0, 0),
                               store.keyForShard(1, 1)};
    for (uint64_t key : keys)
        ASSERT_EQ(store.put(w, key, kSeedValue), TxnOutcome::kCommitted);
    RecordingClient client;
    setSchedClient(&client);
    TxnOutcome outcome = store.multiRmw(w, keys, 1);
    setSchedClient(nullptr);
    ASSERT_EQ(outcome, TxnOutcome::kCommitted);
    ASSERT_EQ(store.stats().get(Counter::kCrossShardEscalations), 0u);
    auto passes = [&](SchedPoint point) {
        unsigned n = 0;
        for (const auto &step : client.steps)
            n += step.first == point;
        return n;
    };
    EXPECT_EQ(passes(SchedPoint::kHtmBegin), store.shardCount());
    EXPECT_EQ(passes(SchedPoint::kHtmCommit), store.shardCount());
}

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

// A cross-shard commit locks its shards in shard-index order and
// relies on that being ascending domain-id order (the global lock
// order) without sorting; a second store's domains must ascend too.
TEST(ShardedStoreTest, DomainIdsAscendWithShardIndex)
{
    ShardedStore first(configFor(AlgoKind::kRhNOrec, 8));
    ShardedStore second(configFor(AlgoKind::kNOrec, 3));
    for (ShardedStore *store : {&first, &second}) {
        for (unsigned s = 1; s < store->shardCount(); ++s)
            EXPECT_LT(store->shardRuntime(s - 1).domain().id(),
                      store->shardRuntime(s).domain().id())
                << "shard " << s;
    }
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

// The single-threaded read footprint of each native op: rh-norec, 4
// shards, 2^17 keys, default HTM (no injected aborts), so every op
// commits on the fast path and the counts are deterministic. Gets and
// puts (one in nine a fresh key, which also grows the index) are
// pinned exactly. A 64-key scan (limit 32, as in perfbench's
// store-oltp) cost 102542 reads over these 512 scans when it walked
// each key's hash chain again and climbed parent links between index
// nodes; it must stay at or below 0.6x that.
TEST(ShardedStoreTest, NativeOpReadFootprintIsPinned)
{
    const uint64_t kKeys = uint64_t(1) << 17;
    const uint64_t kOps = 512;
    const uint64_t kParentScanReads = 102542;
    StoreConfig cfg;
    cfg.shards = 4;
    ShardedStore store(cfg);
    StoreWorker &w = store.registerWorker();
    store.seed(w, kKeys, kSeedValue);

    auto fastPathReads = [&](const char *op, auto body) -> uint64_t {
        store.resetStats();
        Rng rng(7);
        uint64_t committed = 0;
        for (uint64_t i = 0; i < kOps; ++i)
            committed += body(rng, i) == TxnOutcome::kCommitted;
        EXPECT_EQ(committed, kOps) << op;
        StatsSummary st = store.stats();
        EXPECT_EQ(st.get(Counter::kCommitsFastPath), kOps) << op;
        EXPECT_EQ(st.get(Counter::kSlowPathReads), 0u) << op;
        RecordProperty(std::string(op) + "_reads",
                       std::to_string(st.get(Counter::kFastPathReads)));
        return st.get(Counter::kFastPathReads);
    };
    uint64_t v = 0;
    bool found = false;
    EXPECT_EQ(fastPathReads("get",
                            [&](Rng &rng, uint64_t) {
                                return store.get(w, rng.nextBounded(kKeys),
                                                 v, found);
                            }),
              2370u);
    EXPECT_EQ(fastPathReads("put",
                            [&](Rng &rng, uint64_t) {
                                return store.put(
                                    w, rng.nextBounded(kKeys + kKeys / 8),
                                    kSeedValue);
                            }),
              7251u);
    std::vector<KV> out;
    uint64_t scanned = 0;
    uint64_t scanReads = fastPathReads("scan", [&](Rng &rng, uint64_t i) {
        uint64_t lo = rng.nextBounded(kKeys - 64);
        TxnOutcome o = store.scan(w, static_cast<unsigned>(i % 4), lo,
                                  lo + 63, 32, out);
        scanned += out.size();
        return o;
    });
    EXPECT_EQ(scanned, 8196u) << "the scans' key set moved";
    EXPECT_LE(scanReads * 10, kParentScanReads * 6)
        << scanReads << " reads over " << kOps << " scans";
}

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
