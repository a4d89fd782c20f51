/**
 * @file
 * Tests for the static and adaptive retry policies.
 */

#include <gtest/gtest.h>

#include "src/core/engine/retry_policy.h"

#include "src/api/runtime.h"

namespace rhtm
{
namespace
{

TEST(AdaptiveRetryTest, StaticPolicyReturnsFixedBudget)
{
    RetryPolicy policy;
    policy.adaptive = false;
    policy.maxFastPathRetries = 10;
    AdaptiveRetryBudget budget(policy);
    EXPECT_EQ(budget.budget(), 10u);
    for (int i = 0; i < 100; ++i)
        budget.onFallback(10);
    EXPECT_EQ(budget.budget(), 10u) << "static policy never moves";
}

TEST(AdaptiveRetryTest, StartsMidRange)
{
    RetryPolicy policy;
    policy.adaptive = true;
    policy.adaptiveMinRetries = 2;
    policy.adaptiveMaxRetries = 24;
    AdaptiveRetryBudget budget(policy);
    EXPECT_GE(budget.budget(), 2u);
    EXPECT_LE(budget.budget(), 24u);
    EXPECT_NEAR(budget.budget(), 13, 2);
}

TEST(AdaptiveRetryTest, RepeatedFallbacksShrinkBudget)
{
    RetryPolicy policy;
    policy.adaptive = true;
    AdaptiveRetryBudget budget(policy);
    unsigned initial = budget.budget();
    for (int i = 0; i < 50; ++i)
        budget.onFallback(initial);
    EXPECT_LT(budget.budget(), initial);
    EXPECT_EQ(budget.budget(), policy.adaptiveMinRetries)
        << "hopeless retries converge to the minimum";
}

TEST(AdaptiveRetryTest, RescuedRetriesGrowBudget)
{
    RetryPolicy policy;
    policy.adaptive = true;
    AdaptiveRetryBudget budget(policy);
    unsigned initial = budget.budget();
    for (int i = 0; i < 50; ++i)
        budget.onFastCommit(3); // Retry rescued the transaction.
    EXPECT_GT(budget.budget(), initial);
    EXPECT_GE(budget.budget(), policy.adaptiveMaxRetries - 1)
        << "consistently useful retries converge toward the maximum";
}

TEST(AdaptiveRetryTest, FirstTryCommitsApplySmallRecovery)
{
    RetryPolicy policy;
    policy.adaptive = true;
    AdaptiveRetryBudget budget(policy);
    uint32_t score = budget.score();
    budget.onFastCommit(1);
    EXPECT_GT(budget.score(), score)
        << "a first-try commit is weak healthy-hardware evidence";

    // But much weaker evidence than a rescued retry.
    AdaptiveRetryBudget rescued(policy);
    rescued.onFastCommit(3);
    EXPECT_LT(budget.score() - score, rescued.score() - score);
}

TEST(AdaptiveRetryTest, FirstTryCommitsRecoverFromRareFallbacks)
{
    // Regression: without the first-try recovery, a low-contention
    // workload whose only budget signal is the occasional fallback
    // ratchets monotonically down to adaptiveMinRetries and is stuck
    // there forever, no matter how healthy the hardware is.
    RetryPolicy policy;
    policy.adaptive = true;
    AdaptiveRetryBudget budget(policy);
    for (int i = 0; i < 20; ++i)
        budget.onFallback(policy.maxFastPathRetries);
    EXPECT_EQ(budget.budget(), policy.adaptiveMinRetries);
    for (int i = 0; i < 500; ++i)
        budget.onFastCommit(1); // Long healthy streak.
    EXPECT_GT(budget.budget(), policy.adaptiveMinRetries)
        << "healthy first-try commits must claw the budget back";
}

TEST(AdaptiveRetryTest, MixedSignalsStayWithinBounds)
{
    RetryPolicy policy;
    policy.adaptive = true;
    AdaptiveRetryBudget budget(policy);
    for (int i = 0; i < 200; ++i) {
        if (i % 3 == 0)
            budget.onFallback(5);
        else
            budget.onFastCommit(2);
        EXPECT_GE(budget.budget(), policy.adaptiveMinRetries);
        EXPECT_LE(budget.budget(), policy.adaptiveMaxRetries);
    }
}

TEST(AdaptiveRetryTest, SeesKnobChangesMadeAfterConstruction)
{
    // Regression: the budget used to copy the policy at construction,
    // silently freezing `adaptive` and the bounds. The runtime hands
    // every session a reference to the one live RetryPolicy, so a
    // post-construction change (tests and benches do this) must apply.
    RetryPolicy policy;
    policy.adaptive = false;
    policy.maxFastPathRetries = 10;
    AdaptiveRetryBudget budget(policy);
    EXPECT_EQ(budget.budget(), 10u);

    policy.maxFastPathRetries = 3;
    EXPECT_EQ(budget.budget(), 3u)
        << "static budget must track the live policy";

    policy.adaptive = true;
    EXPECT_GE(budget.budget(), policy.adaptiveMinRetries);
    EXPECT_LE(budget.budget(), policy.adaptiveMaxRetries);
}

TEST(ContentionManagerTest, SameSeedProducesIdenticalDelays)
{
    ContentionManager a(nullptr, 42);
    ContentionManager b(nullptr, 42);
    for (int i = 0; i < 64; ++i) {
        WaitCause cause = static_cast<WaitCause>(i % kNumWaitCauses);
        EXPECT_EQ(a.nextDelay(cause), b.nextDelay(cause))
            << "chaos determinism depends on seeded backoff";
    }
}

TEST(ContentionManagerTest, DelaysDoubleWithJitterThenSaturate)
{
    ContentionManager cm(nullptr, 7);
    // The conflict curve starts at 16 and doubles to its 2048 cap;
    // every delay jitters within [raw/2, raw].
    uint64_t raw = 16;
    for (int i = 0; i < 8; ++i) {
        uint32_t delay = cm.nextDelay(WaitCause::kConflict);
        EXPECT_GE(delay, raw / 2);
        EXPECT_LE(delay, raw);
        raw = std::min<uint64_t>(raw * 2, 2048);
    }
    // Saturated: delays stay within the cap's jitter window (or turn
    // into yields, reported as 0).
    for (int i = 0; i < 16; ++i) {
        uint32_t delay = cm.nextDelay(WaitCause::kConflict);
        EXPECT_LE(delay, 2048u);
        if (delay != 0) {
            EXPECT_GE(delay, 1024u);
        }
    }
}

TEST(ContentionManagerTest, SaturatedWaitsAlternateSpinWithYield)
{
    ContentionManager cm(nullptr, 9);
    // Drive the capacity curve (base 8, cap 256) to saturation: five
    // doubling steps walk 8, 16, 32, 64, 128; the sixth hits the cap.
    for (int i = 0; i < 5; ++i)
        cm.nextDelay(WaitCause::kCapacity);
    // At the cap every second wait must yield the OS thread so a
    // preempted holder can run even when all waiters are saturated.
    unsigned yields = 0;
    for (int i = 0; i < 10; ++i)
        yields += cm.nextDelay(WaitCause::kCapacity) == 0 ? 1 : 0;
    EXPECT_EQ(yields, 5u);
}

TEST(ContentionManagerTest, CausesKeepIndependentGrowthState)
{
    ContentionManager cm(nullptr, 11);
    // A burst of conflicts must not inflate the first capacity wait.
    for (int i = 0; i < 6; ++i)
        cm.nextDelay(WaitCause::kConflict);
    EXPECT_EQ(cm.level(WaitCause::kConflict), 6u);
    EXPECT_EQ(cm.level(WaitCause::kCapacity), 0u);
    uint32_t first_capacity = cm.nextDelay(WaitCause::kCapacity);
    EXPECT_LE(first_capacity, 8u) << "capacity starts at its own base";

    cm.reset();
    EXPECT_EQ(cm.level(WaitCause::kConflict), 0u);
    uint32_t after_reset = cm.nextDelay(WaitCause::kConflict);
    EXPECT_LE(after_reset, 16u) << "a commit drops back to the base";
}

TEST(ContentionManagerTest, TrippedKillSwitchQuadruplesDelays)
{
    TmGlobals g;
    ContentionManager cm(&g, 13);
    g.killSwitch.cooldown.store(1); // Tripped.
    // First conflict wait: raw 16, quadrupled to 64, jitter [32, 64].
    uint32_t delay = cm.nextDelay(WaitCause::kConflict);
    EXPECT_GE(delay, 32u);
    EXPECT_LE(delay, 64u);
    g.killSwitch.cooldown.store(0);
    // Re-opened: the next wait is back on the plain curve (raw 32).
    delay = cm.nextDelay(WaitCause::kConflict);
    EXPECT_LE(delay, 32u);
}

TEST(ContentionManagerTest, OnWaitReportsTheActionTaken)
{
    ContentionManager cm(nullptr, 19);
    // The capacity curve (base 8, cap 256) spins through its five
    // doubling steps and its first capped wait; the next capped wait
    // yields the OS thread.
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(cm.onWait(WaitCause::kCapacity),
                  BackoffAction::kSpun);
    EXPECT_EQ(cm.onWait(WaitCause::kCapacity),
              BackoffAction::kYielded);
}

TEST(AdaptiveRetryTest, EndToEndWithRhNOrec)
{
    // The adaptive policy must not affect correctness: run a workload
    // with heavy injected aborts under the adaptive budget.
    RuntimeConfig cfg;
    cfg.retry.adaptive = true;
    cfg.htm.randomAbortProb = 2e-3;
    TmRuntime rt(AlgoKind::kRhNOrec, cfg);
    ThreadCtx &ctx = rt.registerThread();
    alignas(64) uint64_t counter = 0;
    for (int i = 0; i < 5000; ++i) {
        rt.run(ctx,
               [&](Txn &tx) { tx.store(&counter, tx.load(&counter) + 1); });
    }
    EXPECT_EQ(rt.peek(&counter), 5000u);
    EXPECT_GT(rt.stats().get(Counter::kFallbacks), 0u);
}

} // namespace
} // namespace rhtm
