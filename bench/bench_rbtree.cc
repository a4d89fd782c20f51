/**
 * @file
 * Figure 4: the red-black tree microbenchmark. One run per mutation
 * ratio (default: the paper's 4%, 10% and 40% columns) over a 10,000
 * node tree, sweeping algorithms and thread counts and emitting the
 * throughput plus all four analysis rows.
 *
 * Usage: bench_rbtree [--mutation=4,10,40] [--size=10000]
 *                     [--threads=...] [--seconds=...] [--algos=...]
 */

#include <memory>
#include <string>

#include "bench/harness.h"
#include "src/workloads/rbtree_bench.h"

int
main(int argc, char **argv)
{
    using namespace rhtm;
    CliOptions opts(argc, argv);
    bench::BenchConfig cfg = bench::parseBenchConfig(opts);
    auto mutations = opts.getIntList("mutation", {4, 10, 40});
    unsigned size = static_cast<unsigned>(opts.getInt("size", 10000));
    opts.exitOnErrors();

    for (int64_t mutation : mutations) {
        RbTreeBenchParams params;
        params.initialSize = size;
        params.mutationPct = static_cast<unsigned>(mutation);
        std::string name =
            "rbtree-" + std::to_string(mutation) + "pct";
        bench::runBenchmark(name, [params] {
            return std::make_unique<RbTreeBenchWorkload>(params);
        }, cfg);
    }
    return 0;
}
