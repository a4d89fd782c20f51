/**
 * @file
 * Ablation: the static retry policy (Section 3.3: 10 fast-path
 * retries; Section 3.4: one attempt per small HTM). Sweeps the
 * fast-path retry budget and the small-HTM attempt budget on the
 * high-contention intruder kernel.
 *
 * Usage: bench_ablation_retry [common flags]
 */

#include <memory>
#include <string>

#include "bench/harness.h"
#include "src/workloads/intruder.h"

int
main(int argc, char **argv)
{
    using namespace rhtm;
    CliOptions opts(argc, argv);
    bench::BenchConfig base = bench::parseBenchConfig(opts);
    opts.exitOnErrors();

    auto factory = [] {
        IntruderParams params;
        return std::make_unique<IntruderWorkload>(params);
    };

    for (unsigned retries : {1u, 3u, 10u, 20u}) {
        bench::BenchConfig cfg = base;
        cfg.algos = {AlgoKind::kRhNOrec, AlgoKind::kHybridNOrec};
        cfg.runtime.retry.maxFastPathRetries = retries;
        bench::runBenchmark("retry-fast-" + std::to_string(retries),
                            factory, cfg);
    }
    {
        // Dynamic-adaptive fast-path budget (the paper's future-work
        // direction).
        bench::BenchConfig cfg = base;
        cfg.algos = {AlgoKind::kRhNOrec, AlgoKind::kHybridNOrec};
        cfg.runtime.retry.adaptive = true;
        bench::runBenchmark("retry-fast-adaptive", factory, cfg);
    }
    for (unsigned attempts : {1u, 2u, 4u}) {
        bench::BenchConfig cfg = base;
        cfg.algos = {AlgoKind::kRhNOrec};
        cfg.runtime.retry.smallHtmAttempts = attempts;
        bench::runBenchmark("retry-small-htm-" +
                                std::to_string(attempts),
                            factory, cfg);
    }
    return 0;
}
