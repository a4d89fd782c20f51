/**
 * @file
 * Ablation: the contribution of RH NOrec's two small hardware
 * transactions (DESIGN.md ablation index). Runs RH NOrec with the
 * prefix and postfix independently disabled on the 10%-mutation
 * red-black tree; "neither" reduces the mixed slow path to the Hybrid
 * NOrec software path, and Hybrid NOrec itself is included as the
 * reference row.
 *
 * Usage: bench_ablation_rh [--mutation=10] [common flags]
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
    bench::BenchConfig base = bench::parseBenchConfig(opts);

    RbTreeBenchParams params;
    params.mutationPct =
        static_cast<unsigned>(opts.getInt("mutation", 10));
    opts.exitOnErrors();
    auto factory = [params] {
        return std::make_unique<RbTreeBenchWorkload>(params);
    };

    struct Variant
    {
        const char *name;
        bool prefix;
        bool postfix;
    };
    const Variant variants[] = {
        {"rh-both", true, true},
        {"rh-prefix-only", true, false},
        {"rh-postfix-only", false, true},
        {"rh-neither", false, false},
    };

    for (const Variant &v : variants) {
        bench::BenchConfig cfg = base;
        cfg.algos = {AlgoKind::kRhNOrec};
        cfg.runtime.rh.enablePrefix = v.prefix;
        cfg.runtime.rh.enablePostfix = v.postfix;
        bench::runBenchmark(v.name, factory, cfg);
    }

    // Reference: true Hybrid NOrec.
    bench::BenchConfig cfg = base;
    cfg.algos = {AlgoKind::kHybridNOrec};
    bench::runBenchmark("hy-norec-ref", factory, cfg);
    return 0;
}
