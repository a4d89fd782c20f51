/**
 * @file
 * Dedicated privatization suite (DESIGN.md §4): the property RH NOrec
 * preserves and RH-TL2 gave up (paper Sections 1.2-1.3). Exercises the
 * two classic hazards: the "delayed cleanup" problem (a doomed
 * transaction writing into privatized memory) and the "doomed reader"
 * problem (a zombie observing private writes), both under abort
 * injection.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "src/api/runtime.h"
#include "tests/test_support.h"

namespace rhtm
{
namespace
{

class PrivatizationTest : public ::testing::TestWithParam<AlgoKind>
{
};

TEST_P(PrivatizationTest, DetachedRegionSafeForPrivateUse)
{
    RuntimeConfig cfg;
    cfg.htm.randomAbortProb = 5e-4; // Keep every path busy.
    TmRuntime rt(GetParam(), cfg);

    struct alignas(64) Region
    {
        uint64_t a;
        uint64_t b;
    };
    constexpr unsigned kRounds = 150;
    constexpr unsigned kMutators = 3;
    std::vector<Region> regions(kRounds);
    alignas(64) static Region *shared;
    shared = nullptr;

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> lost_updates{0};
    std::atomic<uint64_t> dirty_reads{0};

    test::runThreads(rt, kMutators + 1, [&](unsigned t, ThreadCtx &ctx) {
        if (t == 0) {
            for (unsigned r = 0; r < kRounds; ++r) {
                rt.poke(&regions[r].a, 0);
                rt.poke(&regions[r].b, 0);
                rt.run(ctx, [&](Txn &tx) {
                    tx.storePtr(&shared, &regions[r]);
                });
                for (volatile int spin = 0; spin < 3000;) {
                    spin = spin + 1;
                }
                // Privatize.
                rt.run(ctx, [&](Txn &tx) {
                    tx.storePtr(&shared, static_cast<Region *>(nullptr));
                });
                // Private phase: updates must stick (no delayed
                // transactional write may clobber them), and the pair
                // must stay consistent (no zombie ever wrote half).
                uint64_t a = rt.peek(&regions[r].a);
                uint64_t b = rt.peek(&regions[r].b);
                if (a != b)
                    dirty_reads.fetch_add(1);
                rt.poke(&regions[r].a, a + 7);
                rt.poke(&regions[r].b, b + 7);
                for (volatile int spin = 0; spin < 3000;) {
                    spin = spin + 1;
                }
                if (rt.peek(&regions[r].a) != a + 7 ||
                    rt.peek(&regions[r].b) != b + 7) {
                    lost_updates.fetch_add(1);
                }
            }
            stop.store(true);
        } else {
            Rng rng(t + 9);
            while (!stop.load(std::memory_order_relaxed)) {
                rt.run(ctx, [&](Txn &tx) {
                    Region *p = tx.loadPtr(&shared);
                    if (!p)
                        return;
                    // Paired update: a and b move together.
                    uint64_t v = tx.load(&p->a) + 1;
                    tx.store(&p->a, v);
                    tx.store(&p->b, v);
                });
                (void)rng;
            }
        }
    });

    EXPECT_EQ(lost_updates.load(), 0u)
        << "a delayed transactional write clobbered private memory";
    EXPECT_EQ(dirty_reads.load(), 0u)
        << "privatized region observed in a torn state";
}

std::vector<AlgoKind>
privatizationSafeKinds()
{
    // The TL2 family does not promise privatization (Section 1.2).
    return {AlgoKind::kLockElision,     AlgoKind::kNOrec,
            AlgoKind::kNOrecLazy,       AlgoKind::kHybridNOrec,
            AlgoKind::kHybridNOrecLazy, AlgoKind::kRhNOrec};
}

INSTANTIATE_TEST_SUITE_P(
    PrivatizationSafeAlgorithms, PrivatizationTest,
    ::testing::ValuesIn(privatizationSafeKinds()),
    [](const ::testing::TestParamInfo<AlgoKind> &info) {
        std::string name = algoKindName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace rhtm
