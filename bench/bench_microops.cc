/**
 * @file
 * Google-benchmark microbenchmarks: single-threaded per-transaction
 * latency of each TM algorithm on three canonical bodies (counter
 * increment, 32-word read-only scan, red-black tree lookup). These
 * quantify the instrumentation-cost gap the paper attributes to
 * STM-vs-HTM paths (e.g. Genome's "very high instrumentation costs").
 *
 * The commit-path cells (docs/COMMIT_PATH.md) time the exact path each
 * front optimizes: redo-buffer read-own-writes for the hash index,
 * foreign-commit validation for the read filter, and the eager
 * reader's snapshot extension across foreign commits. All three fronts
 * ship without a switch, so each cell is a plain `algo:` cell.
 *
 * The plain cells run the library defaults, which inject no HTM
 * aborts. The `Calibrated` arms run the bench harness's BenchConfig
 * instead (interrupt-abort probability 5e-4 per access), so every
 * simulated-HTM access also rolls the fault injector's dice: one
 * inline RNG step and compare, since each of those sites holds a lone
 * every-hit rule. BM_FaultFire times that roll on its own, next to an
 * unruled site and a site whose rules take the out-of-line walk.
 */

#include <benchmark/benchmark.h>

#include "bench/harness.h"
#include "src/api/runtime.h"
#include "src/fault/fault_injector.h"
#include "src/structures/tx_rbtree.h"

namespace
{

using namespace rhtm;

void
BM_Increment(benchmark::State &state)
{
    auto kind = static_cast<AlgoKind>(state.range(0));
    TmRuntime rt(kind);
    ThreadCtx &ctx = rt.registerThread();
    alignas(64) uint64_t counter = 0;
    for (auto _ : state) {
        rt.run(ctx, [&](Txn &tx) {
            tx.store(&counter, tx.load(&counter) + 1);
        });
    }
    state.SetLabel(algoKindName(kind));
}

/** The bench harness's calibrated runtime (BenchConfig defaults). */
RuntimeConfig
calibratedConfig()
{
    return bench::BenchConfig().runtime;
}

void
readOnlyScan(benchmark::State &state, const RuntimeConfig &cfg)
{
    auto kind = static_cast<AlgoKind>(state.range(0));
    TmRuntime rt(kind, cfg);
    ThreadCtx &ctx = rt.registerThread();
    alignas(64) uint64_t words[32] = {};
    for (auto _ : state) {
        uint64_t sum = 0;
        rt.run(ctx,
               [&](Txn &tx) {
                   for (auto &w : words)
                       sum += tx.load(&w);
               },
               TxnHint::kReadOnly);
        benchmark::DoNotOptimize(sum);
    }
    state.SetLabel(algoKindName(kind));
}

void
BM_ReadOnlyScan(benchmark::State &state)
{
    readOnlyScan(state, RuntimeConfig());
}

void
BM_ReadOnlyScanCalibrated(benchmark::State &state)
{
    readOnlyScan(state, calibratedConfig());
}

void
rbTreeGet(benchmark::State &state, const RuntimeConfig &cfg)
{
    auto kind = static_cast<AlgoKind>(state.range(0));
    TmRuntime rt(kind, cfg);
    ThreadCtx &ctx = rt.registerThread();
    TxRbTree tree;
    for (int64_t k = 0; k < 1024; ++k)
        rt.run(ctx, [&](Txn &tx) { tree.put(tx, k * 2, k); });
    int64_t key = 0;
    for (auto _ : state) {
        int64_t v = 0;
        rt.run(ctx,
               [&](Txn &tx) {
                   benchmark::DoNotOptimize(tree.get(tx, key, v));
               },
               TxnHint::kReadOnly);
        key = (key + 97) % 2048;
    }
    state.SetLabel(algoKindName(kind));
}

void
BM_RbTreeGet(benchmark::State &state)
{
    rbTreeGet(state, RuntimeConfig());
}

void
BM_RbTreeGetCalibrated(benchmark::State &state)
{
    rbTreeGet(state, calibratedConfig());
}

/**
 * One FaultInjector::fire() call under the plan HtmTxn builds from the
 * calibrated randomAbortProb (p = 5e-4 on tx-read, tx-write and
 * pre-commit). range(0) = 1 fires tx-read, whose lone every-hit rule
 * fire() rolls inline; range(0) = 0 fires publish-window (a site with
 * no rule); range(0) = 2 fires prefix-commit, which carries an extra
 * period-7 rule with the same probability and so takes the rule walk.
 */
void
BM_FaultFire(benchmark::State &state)
{
    const double p = calibratedConfig().htm.randomAbortProb;
    FaultPlan plan = interruptAbortPlan(p, 1);
    FaultSite site = FaultSite::kPublishWindow;
    if (state.range(0) == 1) {
        site = FaultSite::kTxRead;
    } else if (state.range(0) == 2) {
        site = FaultSite::kPrefixCommit;
        FaultRule walked;
        walked.site = site;
        walked.kind = FaultKind::kAbortOther;
        walked.period = 7;
        walked.probability = p;
        plan.add(walked);
    }
    FaultInjector inj(plan, 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(inj.fire(site));
    state.counters["fires"] = static_cast<double>(inj.totalFires());
    state.SetLabel(faultSiteName(site));
}

void
addAllAlgos(benchmark::internal::Benchmark *bench)
{
    for (AlgoKind kind : allAlgoKinds())
        bench->Arg(static_cast<int>(kind));
}

// ---------------------------------------------------------------------
// Commit-path cells (docs/COMMIT_PATH.md). range(0) is the AlgoKind.
// The instrumentation-cost model is zeroed so the timing is the commit
// path itself, not the modeled libitm overhead every kind pays.
// ---------------------------------------------------------------------

RuntimeConfig
penaltyFreeConfig()
{
    RuntimeConfig cfg;
    cfg.stmAccessPenalty = 0;
    return cfg;
}

/** Drive a complete single-location write transaction on @p s. */
void
writeTxn(TxSession &s, uint64_t *addr, uint64_t value)
{
    s.begin(TxnHint::kNone);
    s.write(addr, value);
    s.commit();
    s.onComplete();
}

/**
 * Front 2 (redo-buffer hash index): one lazy transaction buffers 64
 * distinct words, then performs 512 read-own-writes lookups. Every
 * lookup must come from the redo buffer's stamped open-addressing
 * probe.
 */
void
BM_ReadOwnWrites(benchmark::State &state)
{
    auto kind = static_cast<AlgoKind>(state.range(0));
    TmRuntime rt(kind, penaltyFreeConfig());
    ThreadCtx &ctx = rt.registerThread();
    alignas(64) uint64_t words[64] = {};
    for (auto _ : state) {
        uint64_t sum = 0;
        rt.run(ctx, [&](Txn &tx) {
            for (uint64_t i = 0; i < 64; ++i)
                tx.store(&words[i], i);
            for (uint64_t i = 0; i < 512; ++i)
                sum += tx.load(&words[(i * 17) % 64]);
        });
        benchmark::DoNotOptimize(sum);
    }
    state.SetLabel(algoKindName(kind));
}

/**
 * Front 1 (read-set filter ring): a lazy reader re-reads 8 hot words
 * 32 times each -- NOrec's value log keeps duplicates, so the log is
 * 256 entries long while the read summary stays 8 addresses sparse.
 * A second session then commits 8 disjoint writes; each commit forces
 * the reader's next read to validate, which the filter-ring
 * disjointness skip answers without walking the 256-entry log.
 */
void
BM_ValidateAcrossCommits(benchmark::State &state)
{
    auto kind = static_cast<AlgoKind>(state.range(0));
    TmRuntime rt(kind, penaltyFreeConfig());
    TxSession &reader = rt.registerThread().session();
    TxSession &writer = rt.registerThread().session();
    alignas(64) uint64_t reads[8] = {};
    alignas(64) uint64_t foreign[8] = {};
    for (auto _ : state) {
        uint64_t sum = 0;
        reader.begin(TxnHint::kNone);
        for (unsigned rep = 0; rep < 32; ++rep)
            for (auto &w : reads)
                sum += reader.read(&w);
        for (uint64_t i = 0; i < 8; ++i) {
            writeTxn(writer, &foreign[i], i);
            sum += reader.read(&reads[i]);
        }
        reader.commit();
        reader.onComplete();
        benchmark::DoNotOptimize(sum);
    }
    StatsSummary ss = rt.stats();
    state.counters["revals"] =
        static_cast<double>(ss.get(Counter::kRevalidations));
    state.counters["skips"] =
        static_cast<double>(ss.get(Counter::kRevalidationsSkipped));
    state.SetLabel(algoKindName(kind));
}

/**
 * Front 3 (timestamp extension): an eager reader interleaves 8 reads
 * with 8 disjoint foreign commits, each of which the next read absorbs
 * by extending its snapshot in place.
 */
void
BM_ExtendAcrossCommits(benchmark::State &state)
{
    auto kind = static_cast<AlgoKind>(state.range(0));
    TmRuntime rt(kind, penaltyFreeConfig());
    TxSession &reader = rt.registerThread().session();
    TxSession &writer = rt.registerThread().session();
    alignas(64) uint64_t reads[8] = {};
    alignas(64) uint64_t foreign[8] = {};
    for (auto _ : state) {
        uint64_t sum = 0;
        reader.begin(TxnHint::kNone);
        for (uint64_t i = 0; i < 8; ++i) {
            sum += reader.read(&reads[i]);
            writeTxn(writer, &foreign[i], i);
        }
        reader.commit(); // Read-only eager commit: never restarts.
        reader.onComplete();
        benchmark::DoNotOptimize(sum);
    }
    state.SetLabel(algoKindName(kind));
}

BENCHMARK(BM_Increment)->Apply(addAllAlgos);
BENCHMARK(BM_ReadOnlyScan)->Apply(addAllAlgos);
BENCHMARK(BM_RbTreeGet)->Apply(addAllAlgos);
BENCHMARK(BM_ReadOnlyScanCalibrated)->Apply(addAllAlgos);
BENCHMARK(BM_RbTreeGetCalibrated)->Apply(addAllAlgos);
BENCHMARK(BM_FaultFire)->ArgName("ruled")->Arg(1)->Arg(0)->Arg(2);

BENCHMARK(BM_ReadOwnWrites)
    ->ArgName("algo")
    ->Arg(static_cast<int>(AlgoKind::kNOrecLazy));
BENCHMARK(BM_ValidateAcrossCommits)
    ->ArgName("algo")
    ->Arg(static_cast<int>(AlgoKind::kNOrecLazy));
BENCHMARK(BM_ExtendAcrossCommits)
    ->ArgName("algo")
    ->Arg(static_cast<int>(AlgoKind::kNOrec));

} // namespace

BENCHMARK_MAIN();
