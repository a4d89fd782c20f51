/**
 * @file
 * Benchmark harness shared by every bench driver.
 *
 * bench_paper's figure table names one runBenchmark sweep per row of
 * the paper's Figures 4-6 and the ablations: for every (algorithm,
 * thread count) cell it runs a timed window of the workload and emits
 * a CSV row with the throughput (figure row 1) and the four analysis
 * series (rows 2-5): HTM conflict/capacity aborts per operation,
 * slow-path restarts per slow-path, slow-path execution ratio, and the
 * RH prefix/postfix success ratios. A summary line then prints the
 * paper-style headline ratios (RH NOrec vs Hybrid NOrec throughput and
 * HTM-conflict reduction) at the highest measured concurrency.
 */

#ifndef RHTM_BENCH_HARNESS_H
#define RHTM_BENCH_HARNESS_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/stats/latency.h"
#include "src/util/cli.h"
#include "src/workloads/workload.h"

namespace rhtm
{
namespace bench
{

/** Factory building a fresh workload instance per cell. */
using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

/** Sweep configuration, parsed from the common CLI flags. */
struct BenchConfig
{
    std::vector<int64_t> threads{1, 2, 4, 8};
    double seconds = 1.0;               //!< Timed window per cell.
    std::vector<AlgoKind> algos;        //!< Default: allAlgoKinds().
    RuntimeConfig runtime;              //!< Base runtime config.
    bool verify = true;                 //!< Check invariants per cell.
    uint64_t seed = 1;
    unsigned irrevocablePct = 0;        //!< Upgraded-op percentage.

    BenchConfig();
};

/**
 * Parse the common flags:
 *   --threads=1,2,4,8  --seconds=1.0  --algos=rh-norec,hy-norec
 *   --algos=all                (sweep every registered algorithm)
 *   --seed=N           --no-verify
 *   --ht-from=8 --ht-scale=2   (HyperThreading capacity model)
 *   --abort-prob=5e-4          (interrupt-style HTM abort injection)
 *   --stm-penalty=64           (instrumentation-cost model, cycles)
 *   --fault-schedule=NAME      (named chaos schedule, seeded by --seed)
 *   --stall-budget=N           (watchdog stall budget in wait ticks;
 *                               0 disables the watchdog)
 *   --irrevocable-pct=N        (percent of ops upgraded to
 *                               irrevocability, workloads permitting)
 * Exits 2 with a message on unknown algorithms or schedules, a
 * --threads entry below 1, or --seconds at or below 0. The caller
 * reads its own flags, then calls opts.exitOnErrors() to reject
 * unknown flags and unparsable values before running.
 */
BenchConfig parseBenchConfig(const CliOptions &opts);

/** One cell's outcome. */
struct CellResult
{
    AlgoKind algo;
    unsigned threads;
    double seconds;
    uint64_t ops;
    StatsSummary stats;
    LatencyHistogram latency; //!< Per-operation latency (merged).

    // Persistence-overlay recovery counters (docs/PERSISTENCE.md);
    // zero for benches that run without the overlay.
    uint64_t crashesInjected = 0;
    uint64_t recordsReplayed = 0;
    uint64_t recordsDiscarded = 0;
    double recoveryMs = 0.0; //!< Total recovery replay time.

    bool verified;
};

/**
 * Run one cell: set up a fresh workload on an @p algo runtime, drive
 * it from @p threads workers (setup excluded from the stats), then
 * verify it unless cfg.verify is off.
 *
 * @param opsPerThread Ops each worker runs; 0 runs the timed window
 *        of cfg.seconds instead.
 */
CellResult runCell(const WorkloadFactory &make, const BenchConfig &cfg,
                   AlgoKind algo, unsigned threads,
                   uint64_t opsPerThread = 0);

/**
 * Run the full sweep for one benchmark and print the CSV plus the
 * headline-summary block to stdout.
 *
 * @param bench_name Name for the CSV's first column.
 * @param make Workload factory (fresh instance per cell).
 * @param cfg Sweep configuration.
 * @return All cell results (for binaries that post-process).
 */
std::vector<CellResult> runBenchmark(const std::string &bench_name,
                                     const WorkloadFactory &make,
                                     const BenchConfig &cfg);

/** Print the CSV header (called by runBenchmark; exposed for reuse). */
void printCsvHeader();

/** Print one CSV row. */
void printCsvRow(const std::string &bench_name, const CellResult &cell);

} // namespace bench
} // namespace rhtm

#endif // RHTM_BENCH_HARNESS_H
