/**
 * @file
 * Unit tests for the simulated best-effort HTM.
 *
 * Cross-transaction interleavings are driven deterministically by using
 * two HtmTxn objects from one thread; the engine only cares about the
 * order of API calls, so these tests pin down exact conflict semantics.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/htm/htm_txn.h"
#include "src/util/rng.h"

namespace rhtm
{
namespace
{

struct HtmFixture : public ::testing::Test
{
    HtmFixture()
        : eng(makeConfig()), stats0(), stats1(),
          txa(eng, 0, &stats0), txb(eng, 1, &stats1)
    {}

    static HtmConfig
    makeConfig()
    {
        HtmConfig cfg;
        cfg.stripeCountLog2 = 16;
        return cfg;
    }

    HtmEngine eng;
    ThreadStats stats0, stats1;
    HtmTxn txa, txb;
    // Spread words across distinct cache lines.
    alignas(64) uint64_t x = 0;
    alignas(64) uint64_t y = 0;
    alignas(64) uint64_t z = 0;
};

TEST_F(HtmFixture, ReadSeesInitialValue)
{
    x = 17;
    txa.begin();
    EXPECT_EQ(txa.read(&x), 17u);
    txa.commit();
}

TEST_F(HtmFixture, WriteInvisibleUntilCommit)
{
    txa.begin();
    txa.write(&x, 42);
    EXPECT_EQ(eng.directLoad(&x), 0u) << "buffered write leaked";
    txa.commit();
    EXPECT_EQ(eng.directLoad(&x), 42u);
}

TEST_F(HtmFixture, ReadYourOwnWrite)
{
    txa.begin();
    txa.write(&x, 7);
    EXPECT_EQ(txa.read(&x), 7u);
    txa.write(&x, 8);
    EXPECT_EQ(txa.read(&x), 8u);
    txa.commit();
    EXPECT_EQ(eng.directLoad(&x), 8u);
}

TEST_F(HtmFixture, ReadThenWriteThenReadBack)
{
    // The first read runs while nothing is buffered (no write-buffer
    // probe); the read-back must still come from the buffer.
    x = 5;
    txa.begin();
    EXPECT_EQ(txa.read(&x), 5u);
    txa.write(&x, 6);
    EXPECT_EQ(txa.read(&x), 6u);
    EXPECT_EQ(eng.directLoad(&x), 5u) << "buffered write leaked";
    txa.commit();
    EXPECT_EQ(eng.directLoad(&x), 6u);
}

TEST_F(HtmFixture, DirectStoreAbortsReader)
{
    txa.begin();
    txa.read(&x);
    eng.directStore(&x, 1);
    EXPECT_THROW(txa.read(&y), HtmAbort);
    EXPECT_FALSE(txa.active());
    EXPECT_EQ(stats0.get(Counter::kHtmConflictAborts), 1u);
}

TEST_F(HtmFixture, DirectStoreAbortsReaderAtCommit)
{
    txa.begin();
    txa.read(&x);
    txa.write(&y, 5);
    eng.directStore(&x, 1);
    EXPECT_THROW(txa.commit(), HtmAbort);
    EXPECT_EQ(eng.directLoad(&y), 0u) << "aborted commit must not publish";
}

TEST_F(HtmFixture, CommittingWriterAbortsConcurrentReader)
{
    txa.begin();
    txa.read(&x);

    txb.begin();
    txb.write(&x, 9);
    txb.commit();

    EXPECT_THROW(txa.read(&y), HtmAbort);
}

TEST_F(HtmFixture, DisjointTransactionsBothCommit)
{
    txa.begin();
    txa.read(&x);
    txa.write(&x, 1);

    txb.begin();
    txb.read(&y);
    txb.write(&y, 2);

    txb.commit();
    txa.commit();
    EXPECT_EQ(eng.directLoad(&x), 1u);
    EXPECT_EQ(eng.directLoad(&y), 2u);
}

TEST_F(HtmFixture, UnrelatedDirectStoreDoesNotAbort)
{
    txa.begin();
    txa.read(&x);
    eng.directStore(&z, 3);
    EXPECT_EQ(txa.read(&y), 0u);
    txa.commit();
}

TEST_F(HtmFixture, AbortedTransactionCanRestart)
{
    txa.begin();
    txa.read(&x);
    eng.directStore(&x, 1);
    EXPECT_THROW(txa.read(&y), HtmAbort);
    txa.begin();
    EXPECT_EQ(txa.read(&x), 1u);
    txa.commit();
}

TEST_F(HtmFixture, ConflictAbortSetsRetryHint)
{
    txa.begin();
    txa.read(&x);
    eng.directStore(&x, 1);
    try {
        txa.read(&y);
        FAIL() << "expected abort";
    } catch (const HtmAbort &a) {
        EXPECT_EQ(a.cause, HtmAbortCause::kConflict);
        EXPECT_TRUE(a.retryOk);
    }
}

TEST_F(HtmFixture, ExplicitAbortCarriesCode)
{
    txa.begin();
    try {
        txa.abortExplicit(0xab);
        FAIL() << "expected abort";
    } catch (const HtmAbort &a) {
        EXPECT_EQ(a.cause, HtmAbortCause::kExplicit);
        EXPECT_EQ(a.code, 0xab);
    }
    EXPECT_EQ(stats0.get(Counter::kHtmExplicitAborts), 1u);
}

TEST_F(HtmFixture, SubscriptionIdiom)
{
    // Fast-path subscription: read a lock word at start; a later store
    // to it must doom the transaction before it can commit writes.
    uint64_t lock_word = 0;
    txa.begin();
    if (txa.read(&lock_word) != 0)
        FAIL() << "lock should start free";
    txa.write(&x, 77);
    eng.directStore(&lock_word, 1); // Slow path takes the lock.
    EXPECT_THROW(txa.commit(), HtmAbort);
    EXPECT_EQ(eng.directLoad(&x), 0u);
}

TEST_F(HtmFixture, ReadOnlyCommitAlwaysSucceedsWhenConsistent)
{
    txa.begin();
    txa.read(&x);
    txa.read(&y);
    txa.commit();
    SUCCEED();
}

TEST_F(HtmFixture, OpacityWithinBody)
{
    // Invariant: x == y at every commit point. A transaction that has
    // read x must never observe a y from a later snapshot.
    eng.directStore(&x, 10);
    eng.directStore(&y, 10);

    txa.begin();
    uint64_t saw_x = txa.read(&x);

    txb.begin();
    txb.write(&x, 11);
    txb.write(&y, 11);
    txb.commit();

    // txa is doomed; it must abort rather than return y == 11 while it
    // already returned x == 10.
    try {
        uint64_t saw_y = txa.read(&y);
        EXPECT_EQ(saw_x, saw_y) << "opacity violated";
        txa.commit();
    } catch (const HtmAbort &) {
        SUCCEED();
    }
}

TEST_F(HtmFixture, DirectCasSemantics)
{
    uint64_t expected = 0;
    EXPECT_TRUE(eng.directCas(&x, expected, 5));
    EXPECT_EQ(eng.directLoad(&x), 5u);
    expected = 0;
    EXPECT_FALSE(eng.directCas(&x, expected, 9));
    EXPECT_EQ(expected, 5u) << "failed CAS must report the observed value";
}

TEST_F(HtmFixture, DirectCasAbortsSubscribedTxn)
{
    txa.begin();
    txa.read(&x);
    uint64_t expected = 0;
    EXPECT_TRUE(eng.directCas(&x, expected, 5));
    EXPECT_THROW(txa.read(&y), HtmAbort);
}

TEST_F(HtmFixture, FailedCasDoesNotAbortReaders)
{
    eng.directStore(&x, 5);
    txa.begin();
    txa.read(&x);
    uint64_t expected = 0;
    EXPECT_FALSE(eng.directCas(&x, expected, 9));
    EXPECT_EQ(txa.read(&y), 0u) << "failed CAS wrote nothing";
    txa.commit();
}

TEST_F(HtmFixture, DirectFetchAddReturnsOld)
{
    eng.directStore(&x, 41);
    EXPECT_EQ(eng.directFetchAdd(&x, 1), 41u);
    EXPECT_EQ(eng.directLoad(&x), 42u);
}

TEST_F(HtmFixture, StatsCountReadWriteLines)
{
    txa.begin();
    txa.read(&x);
    txa.read(&x); // Same line: not counted twice.
    txa.read(&y);
    txa.write(&z, 1);
    EXPECT_EQ(txa.readLines(), 2u);
    EXPECT_EQ(txa.writeLines(), 1u);
    txa.commit();
}

// ---------------------------------------------------------------------
// The stamp read path: a read costs one sequence load unless some
// publication intervened since the read set's snapshot; then, and
// only then, the whole read log is re-validated against the stripes'
// publication stamps.

TEST_F(HtmFixture, QuiescentReadsTakeTheOneLoadPath)
{
    txa.begin();
    txa.read(&x);
    txa.read(&y);
    txa.read(&x);
    txa.commit();
    EXPECT_EQ(txa.revalidations(), 0u);
}

TEST_F(HtmFixture, ForeignPublicationToUnrelatedLineDoesNotAbort)
{
    txa.begin();
    txa.read(&x);
    eng.directStore(&z, 3); // Foreign publication, unrelated line.
    EXPECT_EQ(txa.read(&y), 0u) << "must survive the revalidation";
    EXPECT_EQ(txa.revalidations(), 1u);
    // The snapshot moved forward: with no further publication the
    // next reads take the one-load path again.
    txa.read(&x);
    txa.read(&z);
    EXPECT_EQ(txa.revalidations(), 1u);
    txa.commit();
    EXPECT_EQ(stats0.get(Counter::kHtmConflictAborts), 0u);
}

TEST_F(HtmFixture, PublicationToReadLineAbortsAtNextAccess)
{
    txa.begin();
    txa.read(&x);
    txb.begin();
    txb.write(&x, 9);
    txb.commit(); // A hardware commit stamps x's stripe.
    try {
        txa.read(&y); // Unrelated line: the log revalidation catches x.
        FAIL() << "expected a conflict abort";
    } catch (const HtmAbort &a) {
        EXPECT_EQ(a.cause, HtmAbortCause::kConflict);
    }
    EXPECT_EQ(stats0.get(Counter::kHtmConflictAborts), 1u);
}

TEST_F(HtmFixture, PublicationToReadLineAbortsWriterAtCommit)
{
    txa.begin();
    txa.read(&x);
    txa.write(&y, 5);
    txb.begin();
    txb.write(&x, 9);
    txb.commit();
    try {
        txa.commit(); // No further read: the commit's check catches x.
        FAIL() << "expected a conflict abort";
    } catch (const HtmAbort &a) {
        EXPECT_EQ(a.cause, HtmAbortCause::kConflict);
    }
    EXPECT_EQ(eng.directLoad(&y), 0u) << "aborted commit must not publish";
}

TEST_F(HtmFixture, ReadRacingAnOpenWindowSpinsForThePublishedValue)
{
    txa.begin();
    txa.read(&y); // Snapshot taken; y is not written below.
    std::atomic<bool> open{false};
    std::thread publisher([&] {
        JointPublication window;
        window.store(eng, &x, 42);
        open.store(true);
        // Keep the sequence odd long enough for the reader to arrive.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    });
    while (!open.load())
        std::this_thread::yield();
    EXPECT_EQ(txa.read(&x), 42u) << "read must wait out the window";
    publisher.join();
    EXPECT_EQ(txa.revalidations(), 1u);
    txa.commit();
}

TEST(HtmJointPublicationTest, WindowsStayOpenUntilTheLastStoreIsIn)
{
    HtmEngine e1, e2;
    HtmTxn reader(e2, 0, nullptr);
    alignas(64) static uint64_t a = 0;
    alignas(64) static uint64_t b = 0;
    reader.begin();
    EXPECT_EQ(reader.read(&b), 0u);
    {
        JointPublication window;
        window.store(e1, &a, 1);
        EXPECT_EQ(e1.seq() % 2, 1u);
        EXPECT_EQ(e2.seq() % 2, 0u) << "joined only on first store";
        window.store(e2, &b, 2);
        window.store(e1, &a, 3); // Already joined: same window.
        EXPECT_EQ(e1.seq() % 2, 1u);
        EXPECT_EQ(e2.seq() % 2, 1u);
    }
    EXPECT_EQ(e1.seq() % 2, 0u);
    EXPECT_EQ(e2.seq() % 2, 0u);
    EXPECT_EQ(e1.directLoad(&a), 3u);
    EXPECT_EQ(e2.directLoad(&b), 2u);
    // One window per engine: the sequences moved by exactly one
    // publication each.
    EXPECT_EQ(e1.seq(), 2u);
    EXPECT_EQ(e2.seq(), 2u);
    EXPECT_THROW(reader.read(&a), HtmAbort) << "b was stamped";
}

TEST(HtmStampTest, ResetTxnOnAnAdvancedEngineReplaysIdentically)
{
    // Stamps and the sequence are never rewound; resetForTest rewinds
    // only the transaction. Stamps are compared by order against the
    // snapshot, so a replay from a later absolute sequence must make
    // exactly the same abort decisions at the same positions.
    HtmEngine eng;
    HtmTxn tx(eng, 0, nullptr);
    alignas(64) static uint64_t w[4] = {};
    alignas(64) static uint64_t other = 0;
    auto script = [&]() {
        std::vector<int> outcome;
        for (int round = 0; round < 6; ++round) {
            int at = -1;
            try {
                tx.begin();
                tx.read(&w[0]);
                at = 1;
                eng.directStore(round % 2 == 0 ? &other : &w[0], round);
                tx.read(&w[1]);
                at = 2;
                tx.write(&w[2], round);
                tx.commit();
                at = 3;
            } catch (const HtmAbort &a) {
                EXPECT_EQ(a.cause, HtmAbortCause::kConflict);
            }
            outcome.push_back(at);
        }
        outcome.push_back(static_cast<int>(tx.revalidations()));
        return outcome;
    };
    std::vector<int> first = script();
    EXPECT_EQ(first, (std::vector<int>{3, 1, 3, 1, 3, 1, 6}));
    for (int i = 0; i < 3; ++i) {
        tx.resetForTest();
        EXPECT_EQ(script(), first) << "replay " << i;
    }
}

TEST(HtmCapacityTest, WriteCapacityAbortIsNoRetry)
{
    HtmConfig cfg;
    cfg.writeCapacityLines = 4;
    HtmEngine eng(cfg);
    ThreadStats stats;
    HtmTxn tx(eng, 0, &stats);

    std::vector<uint64_t> arr(1024, 0);
    tx.begin();
    try {
        for (size_t i = 0; i < arr.size(); i += 8)
            tx.write(&arr[i], i);
        FAIL() << "expected capacity abort";
    } catch (const HtmAbort &a) {
        EXPECT_EQ(a.cause, HtmAbortCause::kCapacity);
        EXPECT_FALSE(a.retryOk);
    }
    EXPECT_EQ(stats.get(Counter::kHtmCapacityAborts), 1u);
}

TEST(HtmCapacityTest, ReadCapacityAbort)
{
    HtmConfig cfg;
    cfg.readCapacityLines = 4;
    HtmEngine eng(cfg);
    HtmTxn tx(eng, 0, nullptr);

    std::vector<uint64_t> arr(1024, 0);
    tx.begin();
    EXPECT_THROW(
        {
            for (size_t i = 0; i < arr.size(); i += 8)
                tx.read(&arr[i]);
        },
        HtmAbort);
}

TEST(HtmCapacityTest, HyperThreadScalingHalvesCapacity)
{
    HtmConfig cfg;
    cfg.writeCapacityLines = 8;
    cfg.capacityScale = 2;
    cfg.scaledThreadsFrom = 4;
    HtmEngine eng(cfg);

    std::vector<uint64_t> arr(1024, 0);

    auto lines_before_abort = [&](unsigned tid) {
        HtmTxn tx(eng, tid, nullptr);
        tx.begin();
        size_t n = 0;
        try {
            for (size_t i = 0; i < arr.size(); i += 8, ++n)
                tx.write(&arr[i], 1);
        } catch (const HtmAbort &) {
            return n;
        }
        tx.commit();
        return n;
    };

    EXPECT_EQ(lines_before_abort(0), 8u);
    EXPECT_EQ(lines_before_abort(4), 4u);
}

/** Lines filled before @p tx first aborts; -1 if it never does. */
template <typename Access>
long
linesBeforeCapacityAbort(HtmTxn &tx, size_t lines, Access access)
{
    tx.begin();
    for (size_t i = 0; i < lines; ++i) {
        try {
            access(i);
        } catch (const HtmAbort &a) {
            EXPECT_EQ(a.cause, HtmAbortCause::kCapacity);
            return static_cast<long>(i);
        }
    }
    tx.commit();
    return -1;
}

struct alignas(64) CacheLine
{
    uint64_t word[8] = {};
};

TEST(HtmCapacityTest, LargeReadCapacityIsExact)
{
    // 16384 lines: more than a 2^14-slot table holds at 3/4 load
    // (12288), the fixed read-table size this tracking once had.
    HtmConfig cfg;
    cfg.readCapacityLines = 16384;
    HtmEngine eng(cfg);
    HtmTxn tx(eng, 0, nullptr);
    std::vector<CacheLine> arr(cfg.readCapacityLines + 1);
    auto read = [&](size_t i) { tx.read(&arr[i].word[i % 8]); };

    EXPECT_EQ(linesBeforeCapacityAbort(tx, cfg.readCapacityLines, read),
              -1);
    EXPECT_EQ(linesBeforeCapacityAbort(tx, arr.size(), read),
              static_cast<long>(cfg.readCapacityLines));
}

TEST(HtmCapacityTest, LargeWriteCapacityIsExact)
{
    // 4096 lines, every word written: more than the once-fixed 2^12
    // write-line slots (3072 at 3/4 load) and 2^14 word slots (12288)
    // held.
    HtmConfig cfg;
    cfg.writeCapacityLines = 4096;
    HtmEngine eng(cfg);
    HtmTxn tx(eng, 0, nullptr);
    std::vector<CacheLine> arr(cfg.writeCapacityLines + 1);
    auto fill = [&](size_t i) {
        for (uint64_t &w : arr[i].word)
            tx.write(&w, i);
    };

    EXPECT_EQ(linesBeforeCapacityAbort(tx, cfg.writeCapacityLines, fill),
              -1);
    const size_t last = cfg.writeCapacityLines - 1;
    EXPECT_EQ(eng.directLoad(&arr[last].word[7]), last);
    EXPECT_EQ(linesBeforeCapacityAbort(tx, arr.size(), fill),
              static_cast<long>(cfg.writeCapacityLines));
}

TEST(HtmCapacityTest, FirstCapacityAbortAtDefaultCapsIsPinned)
{
    // Default caps (4096 read lines, 448 write lines). Seeded random
    // scripts over 8192 lines, one write in 4 (the write cap binds) or
    // one in 64 (the read cap binds): the access index of each
    // script's first capacity abort is pinned (captured with the
    // tracking tables fixed at 2^14/2^14/2^12 slots), so table growth
    // must never move where capacity fires.
    HtmConfig cfg;
    HtmEngine eng(cfg);
    HtmTxn tx(eng, 0, nullptr);
    std::vector<CacheLine> arr(8192);

    std::vector<uint64_t> aborts;
    for (uint64_t write_one_in : {4, 64}) {
        for (uint64_t seed : {1, 2}) {
            Rng rng(seed);
            tx.begin();
            for (uint64_t access = 1;; ++access) {
                uint64_t *w = &arr[rng.nextBounded(arr.size())]
                                   .word[rng.nextBounded(8)];
                try {
                    if (rng.nextBounded(write_one_in) == 0)
                        tx.write(w, access);
                    else
                        tx.read(w);
                } catch (const HtmAbort &a) {
                    EXPECT_EQ(a.cause, HtmAbortCause::kCapacity);
                    aborts.push_back(access);
                    break;
                }
            }
        }
    }
    const std::vector<uint64_t> expected = {1753, 1806, 5786, 5830};
    EXPECT_EQ(aborts, expected) << ::testing::PrintToString(aborts);
}

TEST(HtmInjectionTest, ProbabilityOneAlwaysAborts)
{
    HtmConfig cfg;
    cfg.randomAbortProb = 1.0;
    HtmEngine eng(cfg);
    ThreadStats stats;
    HtmTxn tx(eng, 0, &stats);
    uint64_t w = 0;

    tx.begin();
    try {
        tx.read(&w);
        FAIL() << "expected injected abort";
    } catch (const HtmAbort &a) {
        EXPECT_EQ(a.cause, HtmAbortCause::kOther);
        EXPECT_FALSE(a.retryOk);
    }
}

TEST(HtmInjectionTest, ProbabilityZeroNeverAborts)
{
    HtmConfig cfg;
    cfg.randomAbortProb = 0.0;
    HtmEngine eng(cfg);
    HtmTxn tx(eng, 0, nullptr);
    uint64_t w = 0;
    for (int i = 0; i < 1000; ++i) {
        tx.begin();
        tx.read(&w);
        tx.write(&w, i);
        tx.commit();
    }
    EXPECT_EQ(eng.directLoad(&w), 999u);
}

TEST(HtmInjectionTest, CalibratedAbortScheduleIsPinned)
{
    // The bench calibration's interrupt-abort rate (5e-4 per access)
    // with the default seed, driven through a fixed script: each
    // transaction reads 6 words, writes 2, reads one of them back and
    // commits. The access indices (reads, writes and commits counted
    // in order, aborted attempts included) of the first injected
    // aborts are pinned, so any change to which accesses roll the
    // dice moves them. Every access draws exactly once, so these are
    // also FaultInjectorTest.BenchCalibrationScheduleIsPinned's
    // first firing calls.
    HtmConfig cfg;
    cfg.randomAbortProb = 5e-4;
    HtmEngine eng(cfg);
    ThreadStats stats;
    HtmTxn tx(eng, 0, &stats);
    struct alignas(64) Line
    {
        uint64_t word = 0;
    };
    static Line lines[16];

    std::vector<uint64_t> aborts;
    uint64_t access = 0;
    for (uint64_t txn = 0; aborts.size() < 12 && txn < 100000; ++txn) {
        tx.begin();
        try {
            uint64_t sum = 0;
            for (uint64_t i = 0; i < 6; ++i) {
                ++access;
                sum += tx.read(&lines[(txn + i) % 16].word);
            }
            for (uint64_t i = 0; i < 2; ++i) {
                ++access;
                tx.write(&lines[(txn * 3 + i) % 16].word, sum + i);
            }
            ++access;
            EXPECT_EQ(tx.read(&lines[(txn * 3) % 16].word), sum);
            ++access;
            tx.commit();
        } catch (const HtmAbort &a) {
            EXPECT_EQ(a.cause, HtmAbortCause::kOther);
            aborts.push_back(access);
        }
    }
    const std::vector<uint64_t> expected = {
        2029, 2548, 5105, 6384, 11334, 11606,
        17957, 28212, 31718, 32851, 33554, 36696};
    EXPECT_EQ(aborts, expected) << ::testing::PrintToString(aborts);
    EXPECT_EQ(stats.get(Counter::kHtmInjectedAborts), aborts.size());
}

} // namespace
} // namespace rhtm
