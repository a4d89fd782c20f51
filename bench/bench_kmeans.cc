/**
 * @file
 * Section 3.6 ("Kmeans ... similar to SSCA2"): the STAMP Kmeans
 * kernel (small transactions; contention set by the cluster count).
 *
 * Usage: bench_kmeans [--clusters=N] [common flags]
 */

#include <memory>

#include "bench/harness.h"
#include "src/workloads/kmeans.h"

int
main(int argc, char **argv)
{
    using namespace rhtm;
    CliOptions opts(argc, argv);
    bench::BenchConfig cfg = bench::parseBenchConfig(opts);
    KmeansParams params;
    params.clusters =
        static_cast<unsigned>(opts.getInt("clusters", 16));
    opts.exitOnErrors();

    bench::runBenchmark("kmeans", [params] {
        return std::make_unique<KmeansWorkload>(params);
    }, cfg);
    return 0;
}
