/**
 * @file
 * Figure 5 column 2: the STAMP Intruder kernel (short, high-contention
 * transactions over a shared packet queue).
 *
 * Usage: bench_intruder [--flows=N] [common flags]
 */

#include <memory>

#include "bench/harness.h"
#include "src/workloads/intruder.h"

int
main(int argc, char **argv)
{
    using namespace rhtm;
    CliOptions opts(argc, argv);
    bench::BenchConfig cfg = bench::parseBenchConfig(opts);
    IntruderParams params;
    // The stream wraps with fresh flow ids, so any run length works.
    params.flows = static_cast<unsigned>(opts.getInt("flows", 4096));
    opts.exitOnErrors();

    bench::runBenchmark("intruder", [params] {
        return std::make_unique<IntruderWorkload>(params);
    }, cfg);
    return 0;
}
