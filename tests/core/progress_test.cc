/**
 * @file
 * Progress-guarantee layer tests: FIFO ticket arbitration for the
 * serial starvation lock, the stall watchdog's detect/escalate/recover
 * cycle, the stable clock read, and end-to-end no-starvation under the
 * stall-serial chaos schedule.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/core/engine/progress.h"

#include "src/api/runtime.h"
#include "src/fault/schedules.h"
#include "tests/test_support.h"

namespace rhtm
{
namespace
{

/** A policy whose watchdog reacts within a few microseconds. */
RetryPolicy
twitchyWatchdogPolicy()
{
    RetryPolicy policy;
    policy.stallBudgetTicks = 16;
    policy.stallYieldPhase = 4;
    policy.stallSleepMinUs = 1;
    policy.stallSleepMaxUs = 4;
    return policy;
}

TEST(SerialTicketLockTest, AcquireReleaseKeepsTheTicketsBalanced)
{
    HtmEngine eng;
    TmGlobals g;
    RetryPolicy policy;
    ThreadStats stats;
    for (int i = 0; i < 5; ++i) {
        serialLockAcquire(eng, g, policy, &stats);
        EXPECT_EQ(eng.directLoad(&g.serialLock), 1u);
        serialLockRelease(eng, g);
        EXPECT_EQ(eng.directLoad(&g.serialLock), 0u);
    }
    EXPECT_EQ(eng.directLoad(&g.serialNextTicket), 5u);
    EXPECT_EQ(eng.directLoad(&g.serialServing), 5u);
    EXPECT_EQ(stats.get(Counter::kSerialAcquires), 5u);
}

TEST(SerialTicketLockTest, GrantsStrictlyInTicketOrderUnderAStall)
{
    // Main takes ticket 0 and sits on the lock; eight workers queue
    // behind it. A bare CAS lock would grant the release race to an
    // arbitrary winner; the ticket lock must serve strictly in ticket
    // order, and the queued waiters must declare the holder stalled
    // while it sleeps.
    HtmEngine eng;
    TmGlobals g;
    RetryPolicy policy = twitchyWatchdogPolicy();
    serialLockAcquire(eng, g, policy, nullptr);

    constexpr unsigned kThreads = 8;
    std::vector<uint64_t> grant_order; // Guarded by the serial lock.
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&] {
            serialLockAcquire(eng, g, policy, nullptr);
            // We hold the lock: serialServing is our ticket and the
            // vector is effectively single-threaded here.
            grant_order.push_back(eng.directLoad(&g.serialServing));
            serialLockRelease(eng, g);
        });
    }

    // Wait until every worker holds a ticket, then stall long enough
    // for their tiny budgets to elapse before handing the lock over.
    spinUntil([&] {
        return eng.directLoad(&g.serialNextTicket) == kThreads + 1;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_GE(g.watchdog.stallEvents.load(), 1u)
        << "queued waiters must notice the sleeping holder";
    EXPECT_FALSE(g.watchdog.healthy());
    serialLockRelease(eng, g);
    for (auto &w : workers)
        w.join();

    ASSERT_EQ(grant_order.size(), kThreads);
    for (unsigned i = 0; i < kThreads; ++i)
        EXPECT_EQ(grant_order[i], i + 1)
            << "grant order must equal ticket order (FIFO)";
    EXPECT_EQ(eng.directLoad(&g.serialLock), 0u);
    EXPECT_EQ(eng.directLoad(&g.serialNextTicket),
              eng.directLoad(&g.serialServing));
    EXPECT_TRUE(g.watchdog.healthy())
        << "no stall may outlive its waiter";
}

TEST(StallWatchdogTest, DetectsEscalatesAndRecovers)
{
    TmGlobals g;
    RetryPolicy policy = twitchyWatchdogPolicy();
    ThreadStats stats;
    auto count = [&](Counter c) { return stats.get(c); };
    StallAwareWaiter waiter(g, policy, &stats, g.watchdog.serialEpoch);

    // Healthy phase: the budget has not elapsed.
    for (uint64_t i = 0; i < policy.stallBudgetTicks - 1; ++i)
        waiter.step();
    EXPECT_FALSE(waiter.stalled());
    EXPECT_TRUE(g.watchdog.healthy());
    EXPECT_EQ(count(Counter::kStallsDetected), 0u);

    // One more tick exhausts the budget: stall declared, yields first.
    waiter.step();
    EXPECT_TRUE(waiter.stalled());
    EXPECT_FALSE(g.watchdog.healthy());
    EXPECT_EQ(g.watchdog.stallEvents.load(), 1u);
    EXPECT_EQ(count(Counter::kStallsDetected), 1u);
    EXPECT_EQ(count(Counter::kStallYields), 1u);
    EXPECT_EQ(count(Counter::kStallSleeps), 0u);

    // Burn through the yield phase into the sleep escalation.
    for (uint32_t i = 0; i < policy.stallYieldPhase + 3; ++i)
        waiter.step();
    EXPECT_EQ(count(Counter::kStallYields), policy.stallYieldPhase);
    EXPECT_GE(count(Counter::kStallSleeps), 3u);
    EXPECT_EQ(count(Counter::kStallsDetected), 1u)
        << "one stall episode counts once, however long it lasts";

    // The holder moves: the next step recovers and re-arms the budget.
    stampEpoch(g.watchdog.serialEpoch);
    waiter.step();
    EXPECT_FALSE(waiter.stalled());
    EXPECT_TRUE(g.watchdog.healthy());
    EXPECT_EQ(count(Counter::kStallRecoveries), 1u);

    // A fresh stall after recovery is a new episode.
    for (uint64_t i = 0; i <= policy.stallBudgetTicks; ++i)
        waiter.step();
    EXPECT_TRUE(waiter.stalled());
    EXPECT_EQ(count(Counter::kStallsDetected), 2u);
}

TEST(StallWatchdogTest, ZeroBudgetDisablesDetection)
{
    TmGlobals g;
    RetryPolicy policy = twitchyWatchdogPolicy();
    policy.stallBudgetTicks = 0;
    StallAwareWaiter waiter(g, policy, nullptr,
                            g.watchdog.serialEpoch);
    for (int i = 0; i < 500; ++i)
        waiter.step();
    EXPECT_FALSE(waiter.stalled());
    EXPECT_EQ(g.watchdog.stallEvents.load(), 0u);
}

TEST(StallWatchdogTest, DestructorClearsTheHealthGauge)
{
    TmGlobals g;
    RetryPolicy policy = twitchyWatchdogPolicy();
    ThreadStats stats;
    {
        StallAwareWaiter waiter(g, policy, &stats,
                                g.watchdog.clockEpoch);
        for (uint64_t i = 0; i <= policy.stallBudgetTicks; ++i)
            waiter.step();
        EXPECT_FALSE(g.watchdog.healthy());
    }
    // A waiter that unwinds (satisfied, restarted, or aborted) must
    // not leave the runtime permanently reported unhealthy.
    EXPECT_TRUE(g.watchdog.healthy());
    EXPECT_EQ(stats.get(Counter::kStallRecoveries), 1u);
}

TEST(StableClockReadTest, ReturnsImmediatelyWhenUnlocked)
{
    HtmEngine eng;
    TmGlobals g;
    RetryPolicy policy;
    eng.directStore(&g.clock, 42);
    EXPECT_EQ(stableClockRead(eng, g, policy, nullptr), 42u);
    EXPECT_EQ(g.watchdog.stallEvents.load(), 0u);
}

TEST(StableClockReadTest, WaitsOutALockedClockInsteadOfRestarting)
{
    HtmEngine eng;
    TmGlobals g;
    RetryPolicy policy = twitchyWatchdogPolicy();
    eng.directStore(&g.clock, clockWithLock(4));
    std::thread publisher([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        eng.directStore(&g.clock, 6);
        stampEpoch(g.watchdog.clockEpoch);
    });
    uint64_t clock = stableClockRead(eng, g, policy, nullptr);
    publisher.join();
    EXPECT_EQ(clock, 6u);
    EXPECT_FALSE(clockIsLocked(clock));
    EXPECT_TRUE(g.watchdog.healthy());
}

TEST(ProgressIntegrationTest, NoThreadStarvesUnderStallSerialChaos)
{
    // The acceptance scenario: eight threads under the stall-serial
    // schedule (every fallback start 90% aborted, every serial grant
    // followed by a scripted six-figure-spin delay). Starvation or a
    // leaked ticket shows up as a hang or an imbalance; fairness shows
    // up as every thread finishing its quota.
    RuntimeConfig cfg;
    ASSERT_TRUE(makeChaosSchedule("stall-serial", 7, cfg.fault));
    cfg.retry.stallBudgetTicks = 512;
    cfg.retry.stallYieldPhase = 32;
    cfg.retry.stallSleepMinUs = 1;
    cfg.retry.stallSleepMaxUs = 100;
    // Make fallbacks plentiful (the injected fault plan supersedes the
    // engine's randomAbortProb knob, so extend the plan itself) and
    // have every mixed attempt start at the kFallbackStart fault site
    // (the prefix would absorb the first one), so the schedule's 90%
    // restart rule actually drives serial escalation.
    FaultRule begin_kill;
    begin_kill.site = FaultSite::kHtmBegin;
    begin_kill.kind = FaultKind::kAbortConflict;
    begin_kill.period = 1;
    begin_kill.probability = 0.6;
    cfg.fault.add(begin_kill);
    cfg.retry.maxFastPathRetries = 2;
    cfg.rh.enablePrefix = false;
    TmRuntime rt(AlgoKind::kRhNOrec, cfg);

    constexpr unsigned kThreads = 8;
    constexpr unsigned kIters = 25;
    alignas(64) static uint64_t word;
    word = 0;
    std::atomic<unsigned> finished{0};
    test::runThreads(rt, kThreads, [&](unsigned, ThreadCtx &ctx) {
        for (unsigned i = 0; i < kIters; ++i) {
            rt.run(ctx, [&](Txn &tx) {
                tx.store(&word, tx.load(&word) + 1);
            });
        }
        finished.fetch_add(1);
    });

    EXPECT_EQ(finished.load(), kThreads)
        << "every thread must finish its quota (no starvation)";
    EXPECT_EQ(rt.peek(&word), uint64_t(kThreads) * kIters);
    TmGlobals &g = rt.globals();
    EXPECT_EQ(rt.peek(&g.serialLock), 0u);
    EXPECT_EQ(rt.peek(&g.serialNextTicket),
              rt.peek(&g.serialServing))
        << "every taken serial ticket must have been served";
    EXPECT_TRUE(g.watchdog.healthy());
    EXPECT_GT(rt.stats().get(Counter::kSerialAcquires), 0u)
        << "the schedule must actually drive serial mode";
}

} // namespace
} // namespace rhtm
