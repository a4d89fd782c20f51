// Tests for the benchmark's own pieces: the latency recorder against
// exact percentiles, and the determinism of the seeded op streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "latency.h"
#include "workload.h"

namespace perfbench
{
namespace
{

/** Linear-interpolated percentile of sorted samples (numpy's default). */
double
exactQuantile(const std::vector<uint64_t> &sorted, double q)
{
    double rank = q * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return static_cast<double>(sorted[lo]) * (1.0 - frac) +
           static_cast<double>(sorted[hi]) * frac;
}

TEST(LatencyRecorderTest, BucketsAreAtMostTwoPercentWide)
{
    for (unsigned b = LatencyRecorder::kSub; b < LatencyRecorder::kBuckets;
         ++b) {
        double lo = static_cast<double>(LatencyRecorder::lowerBound(b));
        double hi = static_cast<double>(LatencyRecorder::lowerBound(b + 1));
        ASSERT_LE((hi - lo) / lo, 0.02) << "bucket " << b;
        ASSERT_EQ(LatencyRecorder::bucketOf(
                      LatencyRecorder::lowerBound(b)),
                  b);
    }
}

TEST(LatencyRecorderTest, QuantilesMatchExactSortedPercentiles)
{
    // Log-normal around 1.5 us with a long tail, like an op latency.
    SplitMix rng(12345);
    std::vector<uint64_t> samples;
    LatencyRecorder rec;
    for (int i = 0; i < 200000; ++i) {
        double u1 = std::max(rng.unit(), 1e-12), u2 = rng.unit();
        double normal =
            std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
        auto ns = static_cast<uint64_t>(1500.0 * std::exp(0.6 * normal));
        samples.push_back(ns);
        rec.record(ns);
    }
    std::sort(samples.begin(), samples.end());
    ASSERT_EQ(rec.count(), samples.size());
    for (double q : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999}) {
        double exact = exactQuantile(samples, q);
        EXPECT_NEAR(rec.quantile(q), exact, 0.02 * exact) << "q=" << q;
    }
}

TEST(LatencyRecorderTest, MergeEqualsRecordingEverything)
{
    LatencyRecorder a, b, all;
    SplitMix rng(7);
    for (int i = 0; i < 10000; ++i) {
        uint64_t v = 100 + rng.bounded(100000);
        (i % 2 ? a : b).record(v);
        all.record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_DOUBLE_EQ(a.quantile(0.5), all.quantile(0.5));
    EXPECT_DOUBLE_EQ(a.quantile(0.99), all.quantile(0.99));
}

std::string
streamBytes(const WorkloadSpec &spec, const StoreKeyTables *tables,
            uint64_t seed, unsigned worker, int ops)
{
    OpStream stream(spec, tables, seed, worker);
    std::string out;
    for (int i = 0; i < ops; ++i)
        appendBytes(out, stream.next());
    return out;
}

class OpStreamTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(OpStreamTest, SameSeedGivesByteIdenticalStreamPerWorker)
{
    const WorkloadSpec *spec = findWorkload(GetParam());
    ASSERT_NE(spec, nullptr);
    std::unique_ptr<StoreKeyTables> tables;
    if (spec->store)
        tables = std::make_unique<StoreKeyTables>(spec->keys);
    for (unsigned w = 0; w < 2; ++w) {
        std::string a = streamBytes(*spec, tables.get(), 42, w, 20000);
        std::string b = streamBytes(*spec, tables.get(), 42, w, 20000);
        EXPECT_EQ(a, b) << "worker " << w;
    }
    EXPECT_NE(streamBytes(*spec, tables.get(), 42, 0, 1000),
              streamBytes(*spec, tables.get(), 42, 1, 1000));
}

TEST_P(OpStreamTest, DifferentSeedGivesDifferentStream)
{
    const WorkloadSpec *spec = findWorkload(GetParam());
    ASSERT_NE(spec, nullptr);
    std::unique_ptr<StoreKeyTables> tables;
    if (spec->store)
        tables = std::make_unique<StoreKeyTables>(spec->keys);
    for (unsigned w = 0; w < 2; ++w) {
        EXPECT_NE(streamBytes(*spec, tables.get(), 42, w, 1000),
                  streamBytes(*spec, tables.get(), 43, w, 1000));
    }
}

TEST_P(OpStreamTest, OpsStayInsideTheWorkloadContract)
{
    const WorkloadSpec *spec = findWorkload(GetParam());
    ASSERT_NE(spec, nullptr);
    std::unique_ptr<StoreKeyTables> tables;
    if (spec->store)
        tables = std::make_unique<StoreKeyTables>(spec->keys);
    OpStream stream(*spec, tables.get(), 9, 0);
    unsigned perClass[kNumClasses] = {};
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        Op op = stream.next();
        ++perClass[classOf(op.kind)];
        ASSERT_LT(op.keys[0], spec->keys);
        if (op.kind == OpKind::kPut && spec->store) {
            // Puts never write the accounts the conservation check sums.
            ASSERT_GE(op.keys[0], kRmwAccounts);
        }
        if (op.kind == OpKind::kRmw) {
            for (unsigned k = 0; k < kRmwKeys; ++k) {
                ASSERT_LT(op.keys[k], kRmwAccounts);
                for (unsigned j = 0; j < k; ++j)
                    ASSERT_NE(op.keys[j], op.keys[k]);
            }
        }
        if (op.kind == OpKind::kScan) {
            ASSERT_LT(op.shard, kStoreShards);
            ASSERT_LE(op.keys[1] - op.keys[0], kScanWidth - 1);
        }
    }
    auto pct = [&](unsigned c) { return 100.0 * perClass[c] / n; };
    if (spec->store) {
        EXPECT_NEAR(pct(kClassGet), spec->getPct, 1.0);
        EXPECT_NEAR(pct(kClassPut), spec->storePutPct, 1.0);
        EXPECT_NEAR(pct(kClassScan), spec->scanPct, 1.0);
    } else {
        EXPECT_NEAR(pct(kClassPut), spec->putPct + spec->removePct, 1.0);
        EXPECT_EQ(perClass[kClassScan] + perClass[kClassRmw], 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, OpStreamTest,
                         ::testing::Values("rbtree-rh", "rbtree-stm",
                                           "store-oltp"),
                         [](const auto &info) {
                             std::string n = info.param;
                             std::replace(n.begin(), n.end(), '-', '_');
                             return n;
                         });

} // namespace
} // namespace perfbench
