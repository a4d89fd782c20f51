/**
 * @file
 * Unit tests for the statistics counters and the derived metrics that
 * feed the paper's figure rows.
 */

#include <gtest/gtest.h>

#include "src/stats/stats.h"

namespace rhtm
{
namespace
{

TEST(StatsTest, CountersStartAtZero)
{
    ThreadStats ts;
    for (unsigned i = 0; i < kNumCounters; ++i)
        EXPECT_EQ(ts.get(static_cast<Counter>(i)), 0u);
}

TEST(StatsTest, IncAndGet)
{
    ThreadStats ts;
    ts.inc(Counter::kOperations);
    ts.inc(Counter::kOperations, 4);
    EXPECT_EQ(ts.get(Counter::kOperations), 5u);
    ts.reset();
    EXPECT_EQ(ts.get(Counter::kOperations), 0u);
}

TEST(StatsTest, AccumulateMergesThreads)
{
    ThreadStats a, b;
    a.inc(Counter::kCommitsFastPath, 10);
    b.inc(Counter::kCommitsFastPath, 5);
    b.inc(Counter::kFallbacks, 2);
    StatsSummary s;
    s.accumulate(a);
    s.accumulate(b);
    EXPECT_EQ(s.get(Counter::kCommitsFastPath), 15u);
    EXPECT_EQ(s.get(Counter::kFallbacks), 2u);
}

TEST(StatsTest, DerivedMetricsMatchFigureDefinitions)
{
    ThreadStats ts;
    ts.inc(Counter::kOperations, 100);
    ts.inc(Counter::kHtmConflictAborts, 25);
    ts.inc(Counter::kHtmCapacityAborts, 10);
    ts.inc(Counter::kFallbacks, 20);
    ts.inc(Counter::kCommitsMixedPath, 8);
    ts.inc(Counter::kCommitsSoftwarePath, 10);
    ts.inc(Counter::kCommitsSerialPath, 2);
    ts.inc(Counter::kSlowPathRestarts, 40);
    ts.inc(Counter::kPrefixAttempts, 10);
    ts.inc(Counter::kPrefixSuccesses, 9);
    ts.inc(Counter::kPostfixAttempts, 8);
    ts.inc(Counter::kPostfixSuccesses, 6);

    StatsSummary s;
    s.accumulate(ts);
    EXPECT_DOUBLE_EQ(s.conflictAbortsPerOp(), 0.25);   // Row 2.
    EXPECT_DOUBLE_EQ(s.capacityAbortsPerOp(), 0.10);   // Row 2.
    EXPECT_DOUBLE_EQ(s.restartsPerSlowPath(), 2.0);    // Row 3.
    EXPECT_DOUBLE_EQ(s.slowPathRatio(), 0.20);         // Row 4.
    EXPECT_DOUBLE_EQ(s.prefixSuccessRatio(), 0.9);     // Row 5.
    EXPECT_DOUBLE_EQ(s.postfixSuccessRatio(), 0.75);   // Row 5.
}

TEST(StatsTest, RatiosAreZeroNotNanOnEmptyDenominators)
{
    StatsSummary s;
    EXPECT_EQ(s.conflictAbortsPerOp(), 0.0);
    EXPECT_EQ(s.capacityAbortsPerOp(), 0.0);
    EXPECT_EQ(s.restartsPerSlowPath(), 0.0);
    EXPECT_EQ(s.slowPathRatio(), 0.0);
    EXPECT_EQ(s.prefixSuccessRatio(), 0.0);
    EXPECT_EQ(s.postfixSuccessRatio(), 0.0);
}

TEST(StatsTest, ToStringMentionsEveryMetric)
{
    ThreadStats ts;
    ts.inc(Counter::kOperations, 7);
    StatsSummary s;
    s.accumulate(ts);
    std::string dump = s.toString();
    EXPECT_NE(dump.find("operations"), std::string::npos);
    EXPECT_NE(dump.find("fast-path commits"), std::string::npos);
    EXPECT_NE(dump.find("slow-path ratio"), std::string::npos);
    EXPECT_NE(dump.find("prefix success"), std::string::npos);
}

} // namespace
} // namespace rhtm
