/**
 * @file
 * Figure 5 column 3: the STAMP Genome kernel (moderate transactions,
 * low-to-moderate contention, high instrumentation cost).
 *
 * Usage: bench_genome [--length=N] [--dup=N] [common flags]
 */

#include <memory>

#include "bench/harness.h"
#include "src/workloads/genome.h"

int
main(int argc, char **argv)
{
    using namespace rhtm;
    CliOptions opts(argc, argv);
    bench::BenchConfig cfg = bench::parseBenchConfig(opts);
    GenomeParams params;
    params.genomeLength =
        static_cast<unsigned>(opts.getInt("length", 32768));
    params.duplication = static_cast<unsigned>(opts.getInt("dup", 4));
    opts.exitOnErrors();

    bench::runBenchmark("genome", [params] {
        return std::make_unique<GenomeWorkload>(params);
    }, cfg);
    return 0;
}
