/**
 * @file
 * Ablation: eager vs lazy NOrec (Section 3.1: "we found that for the
 * low concurrency in our benchmarks, the eager NOrec design delivers
 * better performance"). Compares the two pure-software designs on the
 * red-black tree at two mutation ratios and on Vacation-Low.
 *
 * Usage: bench_ablation_eager_lazy [common flags]
 */

#include <memory>
#include <string>

#include "bench/harness.h"
#include "src/workloads/rbtree_bench.h"
#include "src/workloads/vacation.h"

int
main(int argc, char **argv)
{
    using namespace rhtm;
    CliOptions opts(argc, argv);
    bench::BenchConfig cfg = bench::parseBenchConfig(opts);
    opts.exitOnErrors();
    cfg.algos = {AlgoKind::kNOrec, AlgoKind::kNOrecLazy};

    for (unsigned mutation : {10u, 40u}) {
        RbTreeBenchParams params;
        params.mutationPct = mutation;
        bench::runBenchmark(
            "eager-lazy-rbtree-" + std::to_string(mutation) + "pct",
            [params] {
                return std::make_unique<RbTreeBenchWorkload>(params);
            },
            cfg);
    }
    bench::runBenchmark("eager-lazy-vacation-low", [] {
        return std::make_unique<VacationWorkload>(VacationParams::low());
    }, cfg);
    return 0;
}
