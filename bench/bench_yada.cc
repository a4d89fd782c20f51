/**
 * @file
 * Figure 6 column 3: the STAMP Yada kernel (mesh refinement;
 * moderate-to-long transactions over a contended work queue).
 *
 * Usage: bench_yada [--triangles=N] [common flags]
 */

#include <memory>

#include "bench/harness.h"
#include "src/workloads/yada.h"

int
main(int argc, char **argv)
{
    using namespace rhtm;
    CliOptions opts(argc, argv);
    bench::BenchConfig cfg = bench::parseBenchConfig(opts);
    YadaParams params;
    params.initialTriangles =
        static_cast<unsigned>(opts.getInt("triangles", 8192));
    opts.exitOnErrors();

    bench::runBenchmark("yada", [params] {
        return std::make_unique<YadaWorkload>(params);
    }, cfg);
    return 0;
}
