/**
 * @file
 * Exception-safe lifecycle tests: a user exception escaping a
 * transaction body must reach the caller exactly once, with every
 * coordination word released, the data rolled back, and the runtime
 * immediately reusable -- on every algorithm. Plus the deferred
 * commit/abort action hooks: FIFO commit handlers after commit only,
 * LIFO abort handlers per aborted attempt, flat nesting sharing one
 * log, and handler exceptions swallowed (docs/LIFECYCLE.md).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/api/runtime.h"
#include "src/core/engine/fault_points.h"
#include "src/fault/schedules.h"
#include "tests/test_support.h"

namespace rhtm
{
namespace
{

/** A user exception type only the test knows about. */
struct BodyError
{
    int code;
};

alignas(64) uint64_t g_word;

/** Every coordination word must be free and every ticket served. */
void
expectCoordinationQuiescent(TmRuntime &rt, const char *algo)
{
    TmGlobals &g = rt.globals();
    EXPECT_FALSE(clockIsLocked(rt.peek(&g.clock)))
        << algo << ": clock lock leaked";
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

TEST(ExceptionLifecycleTest, ReachesCallerExactlyOnceOnEveryAlgorithm)
{
    for (AlgoKind kind : allAlgoKinds()) {
        const char *algo = algoKindName(kind);
        TmRuntime rt(kind);
        ThreadCtx &ctx = rt.registerThread();
        g_word = 5;

        unsigned caught = 0;
        int code = 0;
        try {
            rt.run(ctx, [&](Txn &tx) {
                tx.store(&g_word, tx.load(&g_word) + 1);
                throw BodyError{42};
            });
        } catch (const BodyError &e) {
            ++caught;
            code = e.code;
        }
        EXPECT_EQ(caught, 1u) << algo;
        EXPECT_EQ(code, 42) << algo;
        EXPECT_EQ(rt.peek(&g_word), 5u)
            << algo << ": aborted attempt's write survived";
        EXPECT_EQ(rt.stats().get(Counter::kUserExceptionAborts), 1u)
            << algo;
        expectCoordinationQuiescent(rt, algo);

        // The runtime must be immediately reusable on the same ctx.
        rt.run(ctx, [&](Txn &tx) {
            tx.store(&g_word, tx.load(&g_word) + 1);
        });
        EXPECT_EQ(rt.peek(&g_word), 6u) << algo;
        EXPECT_EQ(rt.stats().get(Counter::kOperations), 1u) << algo;
    }
}

TEST(ExceptionLifecycleTest, InjectedUserExceptionFiresDeterministically)
{
    for (AlgoKind kind : {AlgoKind::kRhNOrec, AlgoKind::kHybridNOrecLazy}) {
        const char *algo = algoKindName(kind);
        RuntimeConfig cfg;
        FaultRule rule;
        rule.site = FaultSite::kUserException;
        rule.kind = FaultKind::kAbortOther;
        rule.firstHit = 1;
        rule.maxFires = 1;
        cfg.fault.add(rule);
        TmRuntime rt(kind, cfg);
        ThreadCtx &ctx = rt.registerThread();
        g_word = 0;

        unsigned caught = 0;
        auto body = [&](Txn &tx) {
            userExceptionFaultPoint(ctx.injector());
            tx.store(&g_word, tx.load(&g_word) + 1);
        };
        try {
            rt.run(ctx, body);
        } catch (const InjectedUserException &) {
            ++caught;
        }
        EXPECT_EQ(caught, 1u) << algo;
        EXPECT_EQ(rt.peek(&g_word), 0u) << algo;
        ASSERT_NE(ctx.injector(), nullptr) << algo;
        EXPECT_EQ(ctx.injector()->fires(FaultSite::kUserException), 1u)
            << algo;

        // The rule is exhausted: the same body now commits.
        rt.run(ctx, body);
        EXPECT_EQ(rt.peek(&g_word), 1u) << algo;
        EXPECT_EQ(rt.stats().get(Counter::kUserExceptionAborts), 1u)
            << algo;
        expectCoordinationQuiescent(rt, algo);
    }
}

TEST(ExceptionLifecycleTest,
     IrrevocableTransactionThatThrowsReleasesTheGrant)
{
    for (AlgoKind kind : allAlgoKinds()) {
        const char *algo = algoKindName(kind);
        TmRuntime rt(kind);
        ThreadCtx &ctx = rt.registerThread();
        g_word = 0;

        unsigned effects = 0;
        unsigned caught = 0;
        try {
            rt.run(ctx, [&](Txn &tx) {
                tx.becomeIrrevocable();
                EXPECT_TRUE(tx.isIrrevocable()) << algo;
                ++effects;
                throw BodyError{7};
            });
        } catch (const BodyError &) {
            ++caught;
        }
        EXPECT_EQ(caught, 1u) << algo;
        EXPECT_EQ(effects, 1u)
            << algo << ": a granted upgrade must never replay";
        EXPECT_GE(rt.stats().get(Counter::kIrrevocableUpgrades), 1u)
            << algo;
        expectCoordinationQuiescent(rt, algo);

        rt.run(ctx, [&](Txn &tx) {
            tx.store(&g_word, tx.load(&g_word) + 1);
        });
        EXPECT_EQ(rt.peek(&g_word), 1u) << algo;
    }
}

TEST(ActionLogTest, CommitHandlersRunFifoAfterCommitOnly)
{
    TmRuntime rt(AlgoKind::kRhNOrec);
    ThreadCtx &ctx = rt.registerThread();
    g_word = 0;

    std::vector<int> order;
    rt.run(ctx, [&](Txn &tx) {
        tx.onCommit([&] { order.push_back(1); });
        tx.onCommit([&] { order.push_back(2); });
        tx.onCommit([&] { order.push_back(3); });
        // Deferred: nothing may run while the transaction is open.
        EXPECT_TRUE(order.empty());
        EXPECT_EQ(ctx.actions().pendingCommit(), 3u);
        tx.store(&g_word, 1);
    });
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(ctx.actions().pendingCommit(), 0u);
    EXPECT_EQ(rt.stats().get(Counter::kCommitActionsRun), 3u);
}

TEST(ActionLogTest, AbortHandlersRunLifoPerAbortedAttempt)
{
    TmRuntime rt(AlgoKind::kRhNOrec);
    ThreadCtx &ctx = rt.registerThread();

    std::vector<std::string> order;
    unsigned attempt = 0;
    rt.run(ctx, [&](Txn &tx) {
        if (++attempt == 1) {
            tx.onAbort([&] { order.push_back("A"); });
            tx.onAbort([&] { order.push_back("B"); });
            tx.retry();
        }
        // The committing attempt's abort handler must be discarded.
        tx.onAbort([&] { order.push_back("C"); });
    });
    EXPECT_EQ(order, (std::vector<std::string>{"B", "A"}))
        << "abort handlers unwind LIFO, once per aborted attempt";
    EXPECT_EQ(ctx.actions().pendingAbort(), 0u);
    EXPECT_EQ(rt.stats().get(Counter::kAbortActionsRun), 2u);
    EXPECT_EQ(rt.stats().get(Counter::kCommitActionsRun), 0u);
}

TEST(ActionLogTest, CommitHandlersAreDiscardedWhenTheBodyThrows)
{
    TmRuntime rt(AlgoKind::kHybridNOrec);
    ThreadCtx &ctx = rt.registerThread();

    bool commit_ran = false;
    bool abort_ran = false;
    EXPECT_THROW(rt.run(ctx,
                        [&](Txn &tx) {
                            tx.onCommit([&] { commit_ran = true; });
                            tx.onAbort([&] { abort_ran = true; });
                            throw BodyError{1};
                        }),
                 BodyError);
    EXPECT_FALSE(commit_ran)
        << "an aborted transaction must not run its commit handlers";
    EXPECT_TRUE(abort_ran);
    EXPECT_EQ(ctx.actions().pendingCommit(), 0u);
    EXPECT_EQ(ctx.actions().pendingAbort(), 0u);
}

TEST(ActionLogTest, HandlerExceptionsAreSwallowed)
{
    TmRuntime rt(AlgoKind::kNOrec);
    ThreadCtx &ctx = rt.registerThread();

    std::vector<int> order;
    rt.run(ctx, [&](Txn &tx) {
        tx.onCommit([&] {
            order.push_back(1);
            throw std::runtime_error("late");
        });
        tx.onCommit([&] { order.push_back(2); });
    });
    // Reaching here at all means the handler exception was contained;
    // the later handler must still have run.
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(rt.stats().get(Counter::kCommitActionsRun), 2u);
}

TEST(ActionLogTest, FlatNestedRunSharesTheEnclosingLog)
{
    TmRuntime rt(AlgoKind::kRhNOrec);
    ThreadCtx &ctx = rt.registerThread();

    std::vector<int> order;
    rt.run(ctx, [&](Txn &outer) {
        outer.onCommit([&] { order.push_back(1); });
        rt.run(ctx, [&](Txn &inner) {
            inner.onCommit([&] { order.push_back(2); });
        });
        // The inner run() joined this transaction: its handler is
        // queued, not run, until the enclosing commit linearizes.
        EXPECT_TRUE(order.empty());
        EXPECT_EQ(ctx.actions().pendingCommit(), 2u);
    });
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ExceptionLifecycleTest, ConservationHoldsUnderExceptionChaos)
{
    // Multi-threaded soak: under the irrevocable-storm schedule every
    // body runs through the kUserException fault point, so exceptions
    // unwind live transactions on several threads at once. The counter
    // must equal exactly the committed run() calls, and no coordination
    // word may leak.
    RuntimeConfig cfg;
    ASSERT_TRUE(makeChaosSchedule("irrevocable-storm", 11, cfg.fault));
    cfg.retry.stallBudgetTicks = 512;
    cfg.retry.stallYieldPhase = 32;
    cfg.retry.stallSleepMinUs = 1;
    cfg.retry.stallSleepMaxUs = 100;
    TmRuntime rt(AlgoKind::kRhNOrec, cfg);

    constexpr unsigned kThreads = 4;
    constexpr unsigned kIters = 30;
    g_word = 0;
    std::atomic<uint64_t> committed{0};
    std::atomic<uint64_t> exceptions{0};
    test::runThreads(rt, kThreads, [&](unsigned, ThreadCtx &ctx) {
        for (unsigned i = 0; i < kIters; ++i) {
            try {
                rt.run(ctx, [&](Txn &tx) {
                    userExceptionFaultPoint(ctx.injector());
                    tx.store(&g_word, tx.load(&g_word) + 1);
                });
                committed.fetch_add(1);
            } catch (const InjectedUserException &) {
                exceptions.fetch_add(1);
            }
        }
    });

    EXPECT_EQ(committed.load() + exceptions.load(),
              uint64_t(kThreads) * kIters);
    EXPECT_EQ(rt.peek(&g_word), committed.load())
        << "an unwound body must contribute nothing";
    expectCoordinationQuiescent(rt, "rh-norec");
}

} // namespace
} // namespace rhtm
