/**
 * @file
 * Replay-determinism tests (docs/CHECKING.md): a schedule token
 * re-executed many times must reproduce the identical schedule and
 * the byte-for-byte identical recorded history -- the property every
 * minimized failing token's value rests on.
 */

#include <gtest/gtest.h>

#include "src/api/runtime.h"
#include "src/check/explorer.h"
#include "src/check/program.h"

namespace rhtm::check
{
namespace
{

TEST(ReplayTest, TokenReplaysIdenticallyAHundredTimes)
{
    CheckProgram program;
    ASSERT_TRUE(curatedProgram("write-skew", program));
    Explorer explorer(AlgoKind::kRhNOrec, program);

    RunOutcome original = explorer.sample(42);
    ASSERT_TRUE(original.completed);
    ASSERT_FALSE(original.token.empty());
    ASSERT_FALSE(original.historyText.empty());

    for (int i = 0; i < 100; ++i) {
        RunOutcome re = explorer.replay(original.token);
        ASSERT_TRUE(re.completed) << "iteration " << i;
        EXPECT_EQ(re.token, original.token) << "iteration " << i;
        EXPECT_EQ(re.historyText, original.historyText)
            << "iteration " << i;
        EXPECT_EQ(re.steps, original.steps) << "iteration " << i;
    }
}

TEST(ReplayTest, TokenReplaysIdenticallyAfterUnrelatedRuns)
{
    // TmRuntime::resetForTest does not rewind the HTM engine's
    // sequence or stripe stamps, so runs in between start the replay
    // from new absolute values. Stamps are only ever compared by order
    // against a transaction's snapshot, so the replay must still make
    // the same abort decisions and reproduce the history exactly.
    for (AlgoKind kind : {AlgoKind::kHybridNOrec, AlgoKind::kRhNOrec}) {
        CheckProgram program;
        ASSERT_TRUE(curatedProgram("write-skew", program));
        Explorer explorer(kind, program);
        RunOutcome original = explorer.sample(5);
        ASSERT_TRUE(original.completed) << algoKindName(kind);
        for (uint64_t seed = 6; seed < 10; ++seed)
            explorer.sample(seed);
        RunOutcome re = explorer.replay(original.token);
        ASSERT_TRUE(re.completed) << algoKindName(kind);
        EXPECT_EQ(re.token, original.token) << algoKindName(kind);
        EXPECT_EQ(re.historyText, original.historyText)
            << algoKindName(kind);
        EXPECT_EQ(re.steps, original.steps) << algoKindName(kind);
    }
}

TEST(ReplayTest, DistinctSeedsReachDistinctSchedules)
{
    CheckProgram program;
    ASSERT_TRUE(curatedProgram("prefix-race", program));
    Explorer explorer(AlgoKind::kHybridNOrec, program);
    RunOutcome a = explorer.sample(1);
    RunOutcome b = explorer.sample(2);
    ASSERT_TRUE(a.completed);
    ASSERT_TRUE(b.completed);
    // Overwhelmingly likely for a 3-thread program; pinned seeds make
    // it deterministic.
    EXPECT_NE(a.token, b.token);
}

TEST(ReplayTest, ReplayIsStableAcrossExplorerInstances)
{
    CheckProgram program;
    ASSERT_TRUE(curatedProgram("ro-snapshot", program));
    Explorer first(AlgoKind::kNOrec, program);
    RunOutcome original = first.sample(7);
    ASSERT_TRUE(original.completed);

    Explorer second(AlgoKind::kNOrec, program);
    RunOutcome re = second.replay(original.token);
    ASSERT_TRUE(re.completed);
    EXPECT_EQ(re.token, original.token);
    EXPECT_EQ(re.historyText, original.historyText);
}

} // namespace
} // namespace rhtm::check
