/**
 * @file
 * Cross-algorithm behavioural tests: every TM algorithm must satisfy
 * the same transactional contract. Parameterized over all six kinds
 * the paper evaluates.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/api/runtime.h"
#include "tests/test_support.h"

namespace rhtm
{
namespace
{

class AlgoTest : public ::testing::TestWithParam<AlgoKind>
{
  protected:
    AlgoTest() : rt(GetParam()) {}

    TmRuntime rt;
};

TEST_P(AlgoTest, SingleIncrement)
{
    alignas(8) uint64_t counter = 0;
    ThreadCtx &ctx = rt.registerThread();
    rt.run(ctx, [&](Txn &tx) { tx.store(&counter, tx.load(&counter) + 1); });
    EXPECT_EQ(rt.peek(&counter), 1u);
    EXPECT_EQ(rt.stats().operations(), 1u);
}

TEST_P(AlgoTest, ReadYourOwnWrite)
{
    alignas(8) uint64_t word = 5;
    ThreadCtx &ctx = rt.registerThread();
    rt.run(ctx, [&](Txn &tx) {
        tx.store(&word, 10);
        EXPECT_EQ(tx.load(&word), 10u);
        tx.store(&word, 20);
        EXPECT_EQ(tx.load(&word), 20u);
    });
    EXPECT_EQ(rt.peek(&word), 20u);
}

TEST_P(AlgoTest, ReadOnlyTransaction)
{
    alignas(8) uint64_t word = 123;
    ThreadCtx &ctx = rt.registerThread();
    uint64_t seen = 0;
    rt.run(ctx, [&](Txn &tx) { seen = tx.load(&word); },
           TxnHint::kReadOnly);
    EXPECT_EQ(seen, 123u);
}

TEST_P(AlgoTest, ManySequentialTransactions)
{
    alignas(8) uint64_t counter = 0;
    ThreadCtx &ctx = rt.registerThread();
    for (int i = 0; i < 1000; ++i) {
        rt.run(ctx,
               [&](Txn &tx) { tx.store(&counter, tx.load(&counter) + 1); });
    }
    EXPECT_EQ(rt.peek(&counter), 1000u);
    EXPECT_EQ(rt.stats().operations(), 1000u);
}

TEST_P(AlgoTest, UserExceptionAbortsAndPropagates)
{
    if (GetParam() == AlgoKind::kLockElision) {
        // The serial lock-elision path writes in place and cannot roll
        // back; the fast path can. Only assert the fast-path behaviour
        // by keeping the transaction conflict-free (first attempt
        // stays in hardware).
    }
    alignas(8) uint64_t word = 1;
    ThreadCtx &ctx = rt.registerThread();
    EXPECT_THROW(
        rt.run(ctx,
               [&](Txn &tx) {
                   tx.store(&word, 99);
                   throw std::runtime_error("user abort");
               }),
        std::runtime_error);
    EXPECT_EQ(rt.peek(&word), 1u) << "aborted write leaked";
    // The runtime must be usable afterwards.
    rt.run(ctx, [&](Txn &tx) { tx.store(&word, 2); });
    EXPECT_EQ(rt.peek(&word), 2u);
}

TEST_P(AlgoTest, UserRetryReexecutesBody)
{
    if (GetParam() == AlgoKind::kLockElision)
        GTEST_SKIP() << "retry() is not rollback-safe on an elided lock";
    alignas(8) uint64_t word = 0;
    ThreadCtx &ctx = rt.registerThread();
    int attempts = 0;
    rt.run(ctx, [&](Txn &tx) {
        tx.store(&word, tx.load(&word) + 1);
        if (++attempts < 3)
            tx.retry();
    });
    EXPECT_EQ(attempts, 3);
    EXPECT_EQ(rt.peek(&word), 1u)
        << "aborted attempts must not accumulate";
}

TEST_P(AlgoTest, NestedRunFlattensIntoEnclosingTransaction)
{
    alignas(8) uint64_t a = 0;
    alignas(8) uint64_t b = 0;
    ThreadCtx &ctx = rt.registerThread();
    rt.run(ctx, [&](Txn &tx) {
        tx.store(&a, 1);
        // A library helper that opens its own transaction: flattens.
        rt.run(ctx, [&](Txn &inner) { inner.store(&b, 2); });
        EXPECT_EQ(tx.load(&b), 2u)
            << "the nested write belongs to the same transaction";
    });
    EXPECT_EQ(rt.peek(&a), 1u);
    EXPECT_EQ(rt.peek(&b), 2u);
    EXPECT_EQ(rt.stats().operations(), 1u)
        << "a flattened nest is one transaction, not two";
}

TEST_P(AlgoTest, NestedAbortRollsBackTheWholeTransaction)
{
    if (GetParam() == AlgoKind::kLockElision)
        GTEST_SKIP() << "serial lock elision cannot roll back";
    alignas(8) uint64_t a = 0;
    alignas(8) uint64_t b = 0;
    ThreadCtx &ctx = rt.registerThread();
    EXPECT_THROW(
        rt.run(ctx,
               [&](Txn &tx) {
                   tx.store(&a, 1);
                   rt.run(ctx, [&](Txn &inner) {
                       inner.store(&b, 2);
                       throw std::runtime_error("inner abort");
                   });
               }),
        std::runtime_error);
    EXPECT_EQ(rt.peek(&a), 0u) << "flat nesting: all or nothing";
    EXPECT_EQ(rt.peek(&b), 0u);
    // The runtime stays usable.
    rt.run(ctx, [&](Txn &tx) { tx.store(&a, 5); });
    EXPECT_EQ(rt.peek(&a), 5u);
}

TEST_P(AlgoTest, TransactionalAllocSurvivesCommit)
{
    struct Node
    {
        uint64_t value;
        Node *next;
    };
    alignas(8) Node *head = nullptr;
    ThreadCtx &ctx = rt.registerThread();
    rt.run(ctx, [&](Txn &tx) {
        Node *n = tx.allocObject<Node>();
        tx.store(&n->value, 7);
        tx.storePtr(&n->next, static_cast<Node *>(nullptr));
        tx.storePtr(&head, n);
    });
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(rt.peek(&head->value), 7u);
    rt.run(ctx, [&](Txn &tx) {
        Node *n = tx.loadPtr(&head);
        tx.storePtr(&head, static_cast<Node *>(nullptr));
        tx.freeObject(n);
    });
    EXPECT_EQ(head, nullptr);
    rt.memory().drainAll();
}

TEST_P(AlgoTest, ConcurrentCountersAddUp)
{
    constexpr unsigned kThreads = 4;
    constexpr unsigned kIters = 2000;
    alignas(64) uint64_t counter = 0;
    test::runThreads(rt, kThreads, [&](unsigned, ThreadCtx &ctx) {
        for (unsigned i = 0; i < kIters; ++i) {
            rt.run(ctx, [&](Txn &tx) {
                tx.store(&counter, tx.load(&counter) + 1);
            });
        }
    });
    EXPECT_EQ(rt.peek(&counter), uint64_t(kThreads) * kIters);
    EXPECT_EQ(rt.stats().operations(), uint64_t(kThreads) * kIters);
}

TEST_P(AlgoTest, TransfersConserveTotal)
{
    constexpr unsigned kThreads = 4;
    constexpr unsigned kIters = 1500;
    constexpr unsigned kAccounts = 64;
    struct alignas(64) Account
    {
        uint64_t balance;
    };
    std::vector<Account> accounts(kAccounts);
    for (auto &a : accounts)
        a.balance = 100;

    std::atomic<uint64_t> opacity_violations{0};
    test::runThreads(rt, kThreads, [&](unsigned t, ThreadCtx &ctx) {
        Rng rng(t + 1);
        for (unsigned i = 0; i < kIters; ++i) {
            unsigned from = rng.nextBounded(kAccounts);
            unsigned to = rng.nextBounded(kAccounts);
            if (rng.nextPercent(20)) {
                // Reader: the total must be invariant *inside* the
                // transaction (opacity: no intermediate sums).
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
                    if (f > 0 && from != to) {
                        tx.store(&accounts[from].balance, f - 1);
                        tx.store(&accounts[to].balance, g + 1);
                    }
                });
            }
        }
    });
    uint64_t total = 0;
    for (auto &a : accounts)
        total += rt.peek(&a.balance);
    EXPECT_EQ(total, uint64_t(kAccounts) * 100);
    EXPECT_EQ(opacity_violations.load(), 0u);
}

TEST_P(AlgoTest, PrivatizationSafety)
{
    if (GetParam() == AlgoKind::kTl2 ||
        GetParam() == AlgoKind::kRhTl2) {
        GTEST_SKIP() << "the TL2 family does not guarantee "
                        "privatization (paper Section 1.2)";
    }
    struct alignas(64) Box
    {
        uint64_t value;
    };
    constexpr unsigned kRounds = 200;
    constexpr unsigned kMutators = 3;

    alignas(64) Box *shared_box = nullptr;
    std::vector<Box> boxes(kRounds);
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> violations{0};

    test::runThreads(rt, kMutators + 1, [&](unsigned t, ThreadCtx &ctx) {
        if (t == 0) {
            // Privatizer. (Box accesses after privatization use
            // peek/poke -- still non-transactional, but race-free
            // against doomed readers under the C++ memory model.)
            for (unsigned r = 0; r < kRounds; ++r) {
                rt.poke(&boxes[r].value, 0);
                rt.run(ctx, [&](Txn &tx) {
                    tx.storePtr(&shared_box, &boxes[r]);
                });
                // Let mutators hammer the box transactionally.
                for (volatile int spin = 0; spin < 2000; ++spin) {
                }
                // Privatize: detach the box transactionally...
                rt.run(ctx, [&](Txn &tx) {
                    tx.storePtr(&shared_box, static_cast<Box *>(nullptr));
                });
                // ...then access it non-transactionally. No concurrent
                // transactional write may land after this point.
                uint64_t snapshot = rt.peek(&boxes[r].value);
                rt.poke(&boxes[r].value, snapshot + 1000000);
                for (volatile int spin = 0; spin < 2000; ++spin) {
                }
                if (rt.peek(&boxes[r].value) != snapshot + 1000000)
                    violations.fetch_add(1);
            }
            stop.store(true);
        } else {
            // Mutators: transactionally increment through the pointer.
            while (!stop.load(std::memory_order_relaxed)) {
                rt.run(ctx, [&](Txn &tx) {
                    Box *b = tx.loadPtr(&shared_box);
                    if (b)
                        tx.store(&b->value, tx.load(&b->value) + 1);
                });
            }
        }
    });
    EXPECT_EQ(violations.load(), 0u);
}

class HtmAlgoTest : public ::testing::TestWithParam<AlgoKind>
{
};

TEST_P(HtmAlgoTest, InjectedAbortStressKeepsConsistency)
{
    // Regression coverage for abort-path bugs (stale undo replay,
    // leaked locks): run a transfer workload while every hardware
    // transaction faces a high injected abort rate, forcing constant
    // traffic through every fallback path.
    RuntimeConfig cfg;
    cfg.htm.randomAbortProb = 2e-3;
    TmRuntime rt(GetParam(), cfg);

    constexpr unsigned kThreads = 4;
    constexpr unsigned kIters = 1200;
    constexpr unsigned kAccounts = 32;
    struct alignas(64) Account
    {
        uint64_t balance;
    };
    std::vector<Account> accounts(kAccounts);
    for (auto &a : accounts)
        a.balance = 100;

    std::atomic<uint64_t> opacity_violations{0};
    test::runThreads(rt, kThreads, [&](unsigned t, ThreadCtx &ctx) {
        Rng rng(t + 11);
        for (unsigned i = 0; i < kIters; ++i) {
            unsigned from = rng.nextBounded(kAccounts);
            unsigned to = rng.nextBounded(kAccounts);
            if (rng.nextPercent(25)) {
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
                    if (f > 0 && from != to) {
                        tx.store(&accounts[from].balance, f - 1);
                        tx.store(&accounts[to].balance, g + 1);
                    }
                });
            }
        }
    });
    uint64_t total = 0;
    for (auto &a : accounts)
        total += rt.peek(&a.balance);
    EXPECT_EQ(total, uint64_t(kAccounts) * 100);
    EXPECT_EQ(opacity_violations.load(), 0u);
    // The injection must actually have exercised the fallback paths.
    EXPECT_GT(rt.stats().get(Counter::kFallbacks), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    HtmBackedAlgorithms, HtmAlgoTest,
    ::testing::Values(AlgoKind::kLockElision, AlgoKind::kHybridNOrec,
                      AlgoKind::kHybridNOrecLazy, AlgoKind::kRhNOrec,
                      AlgoKind::kRhTl2),
    [](const ::testing::TestParamInfo<AlgoKind> &info) {
        std::string name = algoKindName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST_P(AlgoTest, StatsReportCommits)
{
    alignas(8) uint64_t word = 0;
    ThreadCtx &ctx = rt.registerThread();
    for (int i = 0; i < 100; ++i)
        rt.run(ctx, [&](Txn &tx) { tx.store(&word, i); });
    StatsSummary s = rt.stats();
    EXPECT_EQ(s.operations(), 100u);
    uint64_t commits = s.get(Counter::kCommitsFastPath) +
                       s.get(Counter::kCommitsMixedPath) +
                       s.get(Counter::kCommitsSoftwarePath) +
                       s.get(Counter::kCommitsSerialPath);
    EXPECT_EQ(commits, 100u) << "every operation commits on some path";
}

TEST(StatsPollTest, OperationsNeverDecreaseWhileWorkersRun)
{
    // stats() may be polled while the counters' owners write them
    // (a live dashboard). Each poll must see a per-counter value the
    // owner really stored, so the operation total never goes back.
    // Under -DRHTM_SANITIZE=thread this test must report no race.
    constexpr unsigned kWorkers = 2;
    constexpr unsigned kIters = 20000;
    TmRuntime rt(AlgoKind::kRhNOrec);
    struct alignas(64) Slot
    {
        uint64_t value = 0;
    };
    static Slot slots[8];
    std::atomic<bool> done{false};
    std::thread workers([&] {
        test::runThreads(rt, kWorkers, [&](unsigned t, ThreadCtx &ctx) {
            for (unsigned i = 0; i < kIters; ++i) {
                Slot &s = slots[(t * 5 + i) % 8];
                rt.run(ctx, [&](Txn &tx) {
                    tx.store(&s.value, tx.load(&s.value) + 1);
                });
            }
        });
        done.store(true, std::memory_order_release);
    });

    uint64_t last = 0;
    unsigned polls = 0, decreases = 0;
    while (!done.load(std::memory_order_acquire)) {
        const uint64_t now = rt.stats().operations();
        if (now < last)
            ++decreases;
        last = now;
        ++polls;
    }
    workers.join();
    EXPECT_GT(polls, 0u);
    EXPECT_EQ(decreases, 0u);
    EXPECT_EQ(rt.stats().operations(), uint64_t(kWorkers) * kIters);
}

TEST(AlgoKindNamesTest, NameStringRoundTripCoversEveryKind)
{
    // The registry, the CLI parser and the CSV emitter all key on the
    // canonical names; a kind that cannot round-trip through its name
    // silently drops out of --algos=all sweeps and bench summaries.
    const std::vector<AlgoKind> &kinds = allAlgoKinds();
    EXPECT_EQ(kinds.size(), 8u) << "the paper evaluates eight systems";
    std::set<std::string> seen;
    for (AlgoKind kind : kinds) {
        const char *name = algoKindName(kind);
        ASSERT_NE(name, nullptr);
        EXPECT_NE(std::string(name), "unknown");
        EXPECT_TRUE(seen.insert(name).second)
            << "duplicate algorithm name: " << name;
        AlgoKind parsed;
        ASSERT_TRUE(algoKindFromString(name, parsed)) << name;
        EXPECT_EQ(parsed, kind) << name;
    }
    AlgoKind out;
    EXPECT_FALSE(algoKindFromString("", out));
    EXPECT_FALSE(algoKindFromString("no-such-algo", out));
    EXPECT_FALSE(algoKindFromString("NOREC", out))
        << "names are case-sensitive";
    EXPECT_FALSE(algoKindFromString("norec ", out))
        << "names must match exactly, no trimming";
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgoTest,
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
