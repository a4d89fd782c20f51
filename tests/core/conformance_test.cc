/**
 * @file
 * Cross-algorithm conformance suite for the composable engine: every
 * AlgoKind -- however it composes the shared protocol objects (undo
 * journal, redo buffer, value read log, commit seqlock) behind its
 * dispatch descriptors -- must present identical transactional
 * semantics. Four dimensions: opacity (no intermediate state is ever
 * observable inside a transaction), write visibility (commits publish
 * all-or-nothing), irrevocable upgrade (grant barrier plus
 * exactly-once side effects), and exception unwind (user exceptions
 * roll back the transaction and propagate). The multi-threaded
 * scenarios then repeat under the irrevocable-storm and stall-serial
 * chaos schedules so each policy composition is also exercised on its
 * degraded paths (serial escalation, pre-grant aborts, stretched
 * publish windows).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/api/runtime.h"
#include "src/fault/schedules.h"
#include "tests/test_support.h"

namespace rhtm
{
namespace
{

constexpr unsigned kAccounts = 32;
constexpr unsigned kWords = 8;

alignas(64) uint64_t g_word;
alignas(64) uint64_t g_words[kWords];

struct alignas(64) Account
{
    uint64_t balance;
};

/** Runtime config, optionally degraded by a named chaos schedule. */
RuntimeConfig
conformanceConfig(const char *schedule)
{
    RuntimeConfig cfg;
    if (schedule != nullptr) {
        EXPECT_TRUE(makeChaosSchedule(schedule, 11, cfg.fault))
            << "unknown schedule " << schedule;
        // Compress the watchdog timescale so scripted stalls resolve
        // within test time (same knobs as the progress suite).
        cfg.retry.stallBudgetTicks = 512;
        cfg.retry.stallYieldPhase = 32;
        cfg.retry.stallSleepMinUs = 1;
        cfg.retry.stallSleepMaxUs = 100;
    }
    return cfg;
}

/** Every coordination word free, every serial ticket served. */
void
expectQuiescent(TmRuntime &rt, const char *algo)
{
    TmGlobals &g = rt.globals();
    EXPECT_EQ(rt.peek(&g.htmLock), 0u) << algo << ": HTM lock leaked";
    EXPECT_EQ(rt.peek(&g.fallbacks), 0u)
        << algo << ": fallback registration leaked";
    EXPECT_EQ(rt.peek(&g.serialLock), 0u)
        << algo << ": serial lock leaked";
    EXPECT_EQ(rt.peek(&g.globalLock), 0u)
        << algo << ": global lock leaked";
    EXPECT_EQ(rt.peek(&g.serialNextTicket), rt.peek(&g.serialServing))
        << algo << ": serial ticket imbalance";
    EXPECT_TRUE(g.watchdog.healthy())
        << algo << ": watchdog left unhealthy";
}

/**
 * The opacity workhorse: transfers between accounts with invariant-sum
 * readers, optionally upgrading every eighth operation to
 * irrevocability. Asserts conservation, zero observed intermediate
 * sums, exactly-once side effects per granted upgrade, and a clean
 * (quiescent) runtime afterwards.
 */
void
runTransferScenario(AlgoKind kind, const char *schedule,
                    unsigned threads, unsigned iters,
                    bool with_upgrades, bool saturate_filters = false)
{
    const char *algo = algoKindName(kind);
    RuntimeConfig cfg = conformanceConfig(schedule);
    cfg.retry.filterSaturateForTest = saturate_filters;
    TmRuntime rt(kind, cfg);
    std::vector<Account> accounts(kAccounts);
    for (auto &a : accounts)
        a.balance = 100;

    std::atomic<uint64_t> opacity_violations{0};
    std::atomic<uint64_t> upgraded{0};
    std::atomic<uint64_t> effects{0};
    test::runThreads(rt, threads, [&](unsigned t, ThreadCtx &ctx) {
        Rng rng(t * 131 + 17);
        for (unsigned i = 0; i < iters; ++i) {
            unsigned from = rng.nextBounded(kAccounts);
            unsigned to = rng.nextBounded(kAccounts);
            bool upgrade = with_upgrades && (i % 8 == 0);
            if (!upgrade && rng.nextPercent(25)) {
                rt.run(ctx, [&](Txn &tx) {
                    uint64_t sum = 0;
                    for (auto &a : accounts)
                        sum += tx.load(&a.balance);
                    if (sum != uint64_t(kAccounts) * 100)
                        opacity_violations.fetch_add(1);
                });
            } else {
                rt.run(ctx, [&](Txn &tx) {
                    uint64_t f = tx.load(&accounts[from].balance);
                    uint64_t g = tx.load(&accounts[to].balance);
                    if (upgrade) {
                        tx.becomeIrrevocable();
                        effects.fetch_add(1);
                    }
                    if (f > 0 && from != to) {
                        tx.store(&accounts[from].balance, f - 1);
                        tx.store(&accounts[to].balance, g + 1);
                    }
                });
                if (upgrade)
                    upgraded.fetch_add(1);
            }
        }
    });

    uint64_t total = 0;
    for (auto &a : accounts)
        total += rt.peek(&a.balance);
    EXPECT_EQ(total, uint64_t(kAccounts) * 100)
        << algo << ": transfers must conserve the total";
    EXPECT_EQ(opacity_violations.load(), 0u)
        << algo << ": a reader observed an intermediate state";
    if (with_upgrades) {
        EXPECT_GT(upgraded.load(), 0u) << algo;
        EXPECT_EQ(effects.load(), upgraded.load())
            << algo << ": post-grant side effects replayed";
        EXPECT_EQ(rt.stats().get(Counter::kIrrevocableUpgrades),
                  upgraded.load())
            << algo << ": every grant must commit exactly once";
    }
    expectQuiescent(rt, algo);
}

class ConformanceTest : public ::testing::TestWithParam<AlgoKind>
{
  protected:
    const char *algo() const { return algoKindName(GetParam()); }
};

TEST_P(ConformanceTest, OpacityUnderConcurrentTransfers)
{
    runTransferScenario(GetParam(), nullptr, 4, 600, false);
}

TEST_P(ConformanceTest, CommitsPublishAllOrNothing)
{
    // A writer repeatedly moves all kWords words from round r to r+1
    // in one transaction; readers must only ever observe a uniform
    // array -- a torn commit shows up as mixed rounds.
    TmRuntime rt(GetParam());
    for (auto &w : g_words)
        w = 0;

    constexpr unsigned kRounds = 400;
    constexpr unsigned kReaders = 3;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> torn{0};
    test::runThreads(rt, kReaders + 1, [&](unsigned t, ThreadCtx &ctx) {
        if (t == 0) {
            for (unsigned r = 1; r <= kRounds; ++r) {
                rt.run(ctx, [&](Txn &tx) {
                    for (auto &w : g_words)
                        tx.store(&w, r);
                });
            }
            stop.store(true, std::memory_order_release);
        } else {
            while (!stop.load(std::memory_order_relaxed)) {
                rt.run(ctx, [&](Txn &tx) {
                    uint64_t first = tx.load(&g_words[0]);
                    for (auto &w : g_words) {
                        if (tx.load(&w) != first)
                            torn.fetch_add(1);
                    }
                });
            }
        }
    });
    EXPECT_EQ(torn.load(), 0u)
        << algo() << ": a partially published write set was visible";
    for (auto &w : g_words)
        EXPECT_EQ(rt.peek(&w), uint64_t(kRounds)) << algo();
    expectQuiescent(rt, algo());
}

TEST_P(ConformanceTest, IrrevocableUpgradeGrantsExactlyOnce)
{
    TmRuntime rt(GetParam());
    ThreadCtx &ctx = rt.registerThread();
    g_word = 0;

    unsigned effects = 0;
    rt.run(ctx, [&](Txn &tx) {
        // Lock elision answers the upgrade request by replaying in
        // serial mode, where the global lock makes the body
        // irrevocable from its first statement -- so only the other
        // compositions start the (replayed) body revocable.
        if (GetParam() != AlgoKind::kLockElision) {
            EXPECT_FALSE(tx.isIrrevocable()) << algo();
        }
        tx.becomeIrrevocable();
        EXPECT_TRUE(tx.isIrrevocable()) << algo();
        tx.becomeIrrevocable(); // Idempotent on a granted transaction.
        ++effects;
        tx.store(&g_word, tx.load(&g_word) + 1);
    });
    EXPECT_EQ(effects, 1u)
        << algo() << ": the post-grant side effect must run once";
    EXPECT_EQ(rt.peek(&g_word), 1u) << algo();
    EXPECT_GE(rt.stats().get(Counter::kIrrevocableUpgrades), 1u)
        << algo();

    // Irrevocability is per-transaction: the next one starts revocable
    // and other threads can run transactions again.
    rt.run(ctx, [&](Txn &tx) {
        EXPECT_FALSE(tx.isIrrevocable()) << algo();
        tx.store(&g_word, tx.load(&g_word) + 1);
    });
    EXPECT_EQ(rt.peek(&g_word), 2u) << algo();
    expectQuiescent(rt, algo());
}

TEST_P(ConformanceTest, UserExceptionUnwindsAndPropagates)
{
    // Conflict-free and single-threaded, so even lock elision handles
    // it on its rollback-capable fast path.
    TmRuntime rt(GetParam());
    ThreadCtx &ctx = rt.registerThread();
    g_word = 1;

    EXPECT_THROW(rt.run(ctx,
                        [&](Txn &tx) {
                            tx.store(&g_word, 99);
                            throw std::runtime_error("user abort");
                        }),
                 std::runtime_error) << algo();
    EXPECT_EQ(rt.peek(&g_word), 1u) << algo() << ": aborted write leaked";

    // The unwind must leave the session reusable and the shared words
    // free -- a leaked lock would wedge this follow-up transaction.
    rt.run(ctx, [&](Txn &tx) { tx.store(&g_word, tx.load(&g_word) + 1); });
    EXPECT_EQ(rt.peek(&g_word), 2u) << algo();
    expectQuiescent(rt, algo());
}

// ----------------------------------------------------------------------
// Deadline / attempt-budget unwind (docs/OVERLOAD.md): a transaction
// that gives up must look exactly like a user-exception abort -- locks
// released, journals rolled back, onAbort fired exactly once, onCommit
// never -- on every composition.

TEST_P(ConformanceTest, DeadlineUnwindReleasesEverything)
{
    TmRuntime rt(GetParam());
    ThreadCtx &ctx = rt.registerThread();
    g_word = 5;

    unsigned abort_fires = 0;
    unsigned commit_fires = 0;
    TxnOptions opts;
    opts.maxAttempts = 1;
    TxnOutcome outcome = rt.runWith(ctx, opts, [&](Txn &tx) {
        tx.onAbort([&] { ++abort_fires; });
        tx.onCommit([&] { ++commit_fires; });
        tx.store(&g_word, 99);
        tx.retry();
    });
    EXPECT_EQ(outcome, TxnOutcome::kDeadlineExceeded) << algo();
    EXPECT_EQ(rt.peek(&g_word), 5u)
        << algo() << ": unwound write leaked";
    EXPECT_EQ(abort_fires, 1u)
        << algo() << ": onAbort must fire exactly once";
    EXPECT_EQ(commit_fires, 0u)
        << algo() << ": onCommit must never fire for an unwound txn";
    EXPECT_EQ(rt.stats().get(Counter::kDeadlineExceeded), 1u) << algo();
    EXPECT_EQ(rt.stats().get(Counter::kOperations), 0u) << algo();

    // The unwind must leave the session reusable: a leaked lock or
    // fallback registration would wedge (or tax) this follow-up.
    rt.run(ctx, [&](Txn &tx) { tx.store(&g_word, tx.load(&g_word) + 1); });
    EXPECT_EQ(rt.peek(&g_word), 6u) << algo();
    expectQuiescent(rt, algo());
}

TEST_P(ConformanceTest, WallClockDeadlineBreaksRetryLivelock)
{
    // A body that retries forever would livelock an unbounded run();
    // the wall-clock deadline must bound it on every composition,
    // including after it has escalated through its fallback tiers.
    TmRuntime rt(GetParam());
    ThreadCtx &ctx = rt.registerThread();
    g_word = 0;

    TxnOptions opts;
    opts.deadline = std::chrono::milliseconds(25);
    TxnOutcome outcome = rt.runWith(ctx, opts, [&](Txn &tx) {
        tx.store(&g_word, 1);
        tx.retry();
    });
    EXPECT_EQ(outcome, TxnOutcome::kDeadlineExceeded) << algo();
    EXPECT_EQ(rt.peek(&g_word), 0u) << algo();
    rt.run(ctx, [&](Txn &tx) { tx.store(&g_word, 7); });
    EXPECT_EQ(rt.peek(&g_word), 7u) << algo();
    expectQuiescent(rt, algo());
}

TEST_P(ConformanceTest, MidGrantBarrierDeadlineHandsTicketOn)
{
    // Scripted aborts in the pre-grant window: the four grant-barrier
    // compositions restart the upgrade on every attempt, so the
    // attempt budget expires with the serial ticket held mid-barrier
    // -- the unwind must hand it on (no wedged FIFO, no leaked
    // registration). The barrier-free compositions never hit the site
    // and simply commit.
    RuntimeConfig cfg;
    FaultRule barrier;
    barrier.site = FaultSite::kIrrevocableUpgrade;
    barrier.kind = FaultKind::kAbortConflict;
    barrier.firstHit = 1;
    barrier.period = 1;
    // Exactly the budgeted transaction's four attempts; the follow-up
    // acquirer below must then pass the barrier cleanly.
    barrier.maxFires = 4;
    cfg.fault.add(barrier);
    TmRuntime rt(GetParam(), cfg);
    ThreadCtx &ctx = rt.registerThread();
    g_word = 0;

    TxnOptions opts;
    opts.maxAttempts = 4;
    TxnOutcome outcome = rt.runWith(ctx, opts, [&](Txn &tx) {
        tx.becomeIrrevocable();
        tx.store(&g_word, tx.load(&g_word) + 1);
    });
    bool usesBarrier = GetParam() == AlgoKind::kHybridNOrec ||
                       GetParam() == AlgoKind::kHybridNOrecLazy ||
                       GetParam() == AlgoKind::kRhNOrec ||
                       GetParam() == AlgoKind::kRhTl2;
    if (usesBarrier) {
        EXPECT_EQ(outcome, TxnOutcome::kDeadlineExceeded) << algo();
        EXPECT_EQ(rt.peek(&g_word), 0u) << algo();
        EXPECT_EQ(rt.stats().get(Counter::kIrrevocableUpgrades), 0u)
            << algo() << ": the grant must never have been issued";
    } else {
        EXPECT_EQ(outcome, TxnOutcome::kCommitted) << algo();
        EXPECT_EQ(rt.peek(&g_word), 1u) << algo();
    }
    // Either way the serial FIFO must still serve new acquirers.
    rt.run(ctx, [&](Txn &tx) {
        tx.becomeIrrevocable();
        tx.store(&g_word, 42);
    });
    EXPECT_EQ(rt.peek(&g_word), 42u) << algo();
    expectQuiescent(rt, algo());
}

TEST_P(ConformanceTest, PostHtmEscalationDeadlineUnwinds)
{
    // Every hardware begin is scripted dead, so the HTM-backed
    // compositions exhaust their fast path and the budget expires on
    // the software fallback -- where the fallback registration and any
    // undo journal are live and must be released by the unwind.
    RuntimeConfig cfg;
    FaultRule hw;
    hw.site = FaultSite::kHtmBegin;
    hw.kind = FaultKind::kAbortOther;
    hw.firstHit = 1;
    hw.period = 1;
    cfg.fault.add(hw);
    TmRuntime rt(GetParam(), cfg);
    ThreadCtx &ctx = rt.registerThread();
    g_word = 3;

    TxnOptions opts;
    opts.maxAttempts = 3;
    TxnOutcome outcome = rt.runWith(ctx, opts, [&](Txn &tx) {
        tx.store(&g_word, tx.load(&g_word) + 10);
        tx.retry();
    });
    EXPECT_EQ(outcome, TxnOutcome::kDeadlineExceeded) << algo();
    if (GetParam() != AlgoKind::kLockElision) {
        EXPECT_EQ(rt.peek(&g_word), 3u)
            << algo() << ": slow-path write leaked";
    }
    // Lock Elision's serial mode writes in place and -- like a real
    // elided lock -- documents that an aborted critical section leaves
    // its partial updates visible; only the lock release is owed.
    EXPECT_EQ(rt.stats().get(Counter::kDeadlineExceeded), 1u) << algo();
    uint64_t before = rt.peek(&g_word);
    rt.run(ctx, [&](Txn &tx) { tx.store(&g_word, tx.load(&g_word) + 1); });
    EXPECT_EQ(rt.peek(&g_word), before + 1) << algo();
    expectQuiescent(rt, algo());
}

TEST_P(ConformanceTest, IrrevocableGrantSuppressesDeadline)
{
    // Once granted, the transaction must commit even though its
    // deadline expires mid-body: irrevocability outranks the deadline
    // (the grant may have already performed unrepeatable effects).
    TmRuntime rt(GetParam());
    ThreadCtx &ctx = rt.registerThread();
    g_word = 0;

    TxnOptions opts;
    opts.deadline = std::chrono::milliseconds(50);
    TxnOutcome outcome = rt.runWith(ctx, opts, [&](Txn &tx) {
        tx.becomeIrrevocable();
        std::this_thread::sleep_for(std::chrono::milliseconds(80));
        tx.store(&g_word, 11);
    });
    EXPECT_EQ(outcome, TxnOutcome::kCommitted)
        << algo() << ": a granted transaction must commit";
    EXPECT_EQ(rt.peek(&g_word), 11u) << algo();
    EXPECT_EQ(rt.stats().get(Counter::kDeadlineExceeded), 0u) << algo();
    expectQuiescent(rt, algo());
}

TEST_P(ConformanceTest, CommitPathFlagMatrix)
{
    // The commit path (docs/COMMIT_PATH.md) ships one design with no
    // switch. The second leg saturates the Bloom summaries (the
    // universal-collision pathology) so the filter's conservative
    // fallback is on-path too; semantics must be identical on every
    // composition -- algorithms without filters simply ignore it.
    for (bool saturate : {false, true}) {
        SCOPED_TRACE(std::string(algo()) +
                     (saturate ? " saturated" : " default"));
        runTransferScenario(GetParam(), nullptr, 4, 80, false, saturate);
    }
}

TEST_P(ConformanceTest, OpacityHoldsUnderIrrevocableStorm)
{
    // Pre-grant delays and aborts plus stretched post-grant clock
    // holds, while every eighth operation upgrades.
    runTransferScenario(GetParam(), "irrevocable-storm", 4, 60, true);
}

TEST_P(ConformanceTest, OpacityHoldsUnderStallSerialChaos)
{
    // Fallback starts mostly aborted and serial grants followed by
    // scripted stalls: herds every composition through its serial /
    // watchdog path while the invariants must keep holding.
    runTransferScenario(GetParam(), "stall-serial", 4, 60, false);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ConformanceTest,
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

} // namespace
} // namespace rhtm
