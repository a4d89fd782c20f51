#include "bench/harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "src/fault/schedules.h"
#include "src/util/barrier.h"
#include "src/util/timer.h"

namespace rhtm
{
namespace bench
{

BenchConfig::BenchConfig()
{
    algos = allAlgoKinds();
    // Model the paper's HyperThreading effect: threads beyond the
    // 8 physical cores halve the per-transaction HTM capacity.
    runtime.htm.scaledThreadsFrom = 8;
    runtime.htm.capacityScale = 2;
    // Real best-effort HTM aborts on every interrupt, context switch,
    // page fault and TLB miss; the simulated HTM survives them, so an
    // injected per-access abort probability restores the background
    // fallback traffic that feeds the hybrid dynamics (DESIGN.md).
    runtime.htm.randomAbortProb = 5e-4;
}

BenchConfig
parseBenchConfig(const CliOptions &opts)
{
    BenchConfig cfg;
    cfg.threads = opts.getIntList("threads", cfg.threads);
    cfg.seconds = opts.getDouble("seconds", cfg.seconds);
    for (int64_t t : cfg.threads) {
        if (t < 1) {
            std::fprintf(stderr,
                         "--threads entries must be >= 1 (got %lld)\n",
                         static_cast<long long>(t));
            std::exit(2);
        }
    }
    if (!(cfg.seconds > 0)) {
        std::fprintf(stderr, "--seconds must be > 0 (got %g)\n",
                     cfg.seconds);
        std::exit(2);
    }
    cfg.seed = static_cast<uint64_t>(opts.getInt("seed", 1));
    cfg.verify = !opts.has("no-verify");
    cfg.runtime.htm.scaledThreadsFrom = static_cast<unsigned>(
        opts.getInt("ht-from", cfg.runtime.htm.scaledThreadsFrom));
    cfg.runtime.htm.capacityScale = static_cast<size_t>(
        opts.getInt("ht-scale", cfg.runtime.htm.capacityScale));
    cfg.runtime.htm.randomAbortProb =
        opts.getDouble("abort-prob", cfg.runtime.htm.randomAbortProb);
    cfg.runtime.stmAccessPenalty = static_cast<unsigned>(
        opts.getInt("stm-penalty", cfg.runtime.stmAccessPenalty));
    cfg.runtime.retry.stallBudgetTicks = static_cast<uint64_t>(
        opts.getInt("stall-budget",
                    static_cast<int64_t>(
                        cfg.runtime.retry.stallBudgetTicks)));
    int64_t irrev = opts.getInt("irrevocable-pct", 0);
    if (irrev < 0 || irrev > 100) {
        std::fprintf(stderr,
                     "--irrevocable-pct must be in [0,100] (got %lld)\n",
                     static_cast<long long>(irrev));
        std::exit(2);
    }
    cfg.irrevocablePct = static_cast<unsigned>(irrev);
    if (opts.has("fault-schedule")) {
        std::string name = opts.getString("fault-schedule", "");
        if (!makeChaosSchedule(name, cfg.seed, cfg.runtime.fault)) {
            std::fprintf(stderr, "unknown fault schedule: %s (known:",
                         name.c_str());
            for (const std::string &n : chaosScheduleNames())
                std::fprintf(stderr, " %s", n.c_str());
            std::fprintf(stderr, ")\n");
            std::exit(2);
        }
    }

    if (opts.has("algos")) {
        cfg.algos.clear();
        for (const std::string &name : opts.getList("algos", {})) {
            if (name == "all") {
                // Sweep mode: every registered algorithm, in the
                // canonical allAlgoKinds() order.
                for (AlgoKind kind : allAlgoKinds())
                    cfg.algos.push_back(kind);
                continue;
            }
            AlgoKind kind;
            if (!algoKindFromString(name, kind)) {
                std::fprintf(stderr, "unknown algorithm: %s\n",
                             name.c_str());
                std::exit(2);
            }
            cfg.algos.push_back(kind);
        }
    }
    return cfg;
}

void
printCsvHeader()
{
    std::printf(
        "bench,algo,threads,seconds,ops,throughput_ops_per_sec,"
        "conflict_aborts_per_op,capacity_aborts_per_op,"
        "restarts_per_slowpath,slowpath_ratio,"
        "prefix_success_ratio,postfix_success_ratio,"
        "injected_aborts_per_op,subscription_aborts_per_op,"
        "fastpath_attempts_per_op,killswitch_activations,"
        "killswitch_bypass_ratio,p50_us,p99_us,max_us,"
        "stalls_detected,irrevocable_upgrades,accesses_per_op,"
        "crashes_injected,records_replayed,records_discarded,"
        "recovery_ms,deadline_exceeded,admission_shed,"
        "admission_queued_ticks,verified\n");
}

void
printCsvRow(const std::string &bench_name, const CellResult &cell)
{
    const StatsSummary &s = cell.stats;
    uint64_t ops = s.operations();
    double attempts_per_op =
        ops ? double(s.get(Counter::kFastPathAttempts)) / ops : 0.0;
    double bypass_ratio =
        ops ? double(s.get(Counter::kKillSwitchBypasses)) / ops : 0.0;
    std::printf("%s,%s,%u,%.2f,%llu,%.0f,%.4f,%.4f,%.4f,%.4f,%.4f,"
                "%.4f,%.4f,%.4f,%.4f,%llu,%.4f,%.2f,%.2f,%.2f,%llu,"
                "%llu,%.4f,%llu,%llu,%llu,%.3f,%llu,%llu,%llu,%s\n",
                bench_name.c_str(), algoKindName(cell.algo),
                cell.threads, cell.seconds,
                static_cast<unsigned long long>(cell.ops),
                cell.ops / cell.seconds, s.conflictAbortsPerOp(),
                s.capacityAbortsPerOp(), s.restartsPerSlowPath(),
                s.slowPathRatio(), s.prefixSuccessRatio(),
                s.postfixSuccessRatio(), s.injectedAbortsPerOp(),
                s.subscriptionAbortsPerOp(), attempts_per_op,
                static_cast<unsigned long long>(
                    s.get(Counter::kKillSwitchActivations)),
                bypass_ratio,
                cell.latency.percentileNs(50) / 1000.0,
                cell.latency.percentileNs(99) / 1000.0,
                cell.latency.maxNs() / 1000.0,
                static_cast<unsigned long long>(
                    s.get(Counter::kStallsDetected)),
                static_cast<unsigned long long>(
                    s.get(Counter::kIrrevocableUpgrades)),
                s.accessesPerOp(),
                static_cast<unsigned long long>(cell.crashesInjected),
                static_cast<unsigned long long>(cell.recordsReplayed),
                static_cast<unsigned long long>(cell.recordsDiscarded),
                cell.recoveryMs,
                static_cast<unsigned long long>(
                    s.get(Counter::kDeadlineExceeded)),
                static_cast<unsigned long long>(
                    s.get(Counter::kAdmissionShed)),
                static_cast<unsigned long long>(
                    s.get(Counter::kAdmissionQueuedTicks)),
                cell.verified ? "ok" : "FAIL");
    std::fflush(stdout);
}

CellResult
runCell(const WorkloadFactory &make, const BenchConfig &cfg,
        AlgoKind algo, unsigned threads, uint64_t opsPerThread)
{
    RuntimeConfig rt_cfg = cfg.runtime;
    rt_cfg.rngSeed = cfg.seed;
    TmRuntime rt(algo, rt_cfg);
    std::unique_ptr<Workload> workload = make();
    workload->setIrrevocablePct(cfg.irrevocablePct);

    {
        ThreadCtx &setup_ctx = rt.registerThread();
        workload->setup(rt, setup_ctx);
    }
    rt.resetStats(); // Exclude setup from the measured window.

    std::vector<ThreadCtx *> ctxs(threads);
    for (unsigned t = 0; t < threads; ++t)
        ctxs[t] = &rt.registerThread();

    std::atomic<bool> stop{false};
    std::vector<uint64_t> per_thread_ops(threads, 0);
    std::vector<LatencyHistogram> per_thread_lat(threads);
    SenseBarrier barrier(threads + 1);

    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            Rng rng(cfg.seed * 1000003 + t * 7919 + 1);
            LatencyHistogram &lat = per_thread_lat[t];
            barrier.arriveAndWait();
            uint64_t ops = 0;
            using LatClock = std::chrono::steady_clock;
            while (opsPerThread ? ops < opsPerThread
                                : !stop.load(std::memory_order_relaxed)) {
                auto op_start = LatClock::now();
                workload->runOp(rt, *ctxs[t], rng);
                auto delta = LatClock::now() - op_start;
                lat.record(static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        delta)
                        .count()));
                ++ops;
            }
            per_thread_ops[t] = ops;
        });
    }

    barrier.arriveAndWait();
    Timer timer;
    if (opsPerThread == 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(cfg.seconds));
        stop.store(true, std::memory_order_release);
    }
    for (auto &w : workers)
        w.join();
    double elapsed = timer.elapsedSeconds();

    CellResult cell;
    cell.algo = algo;
    cell.threads = threads;
    cell.seconds = elapsed;
    cell.ops = 0;
    for (uint64_t n : per_thread_ops)
        cell.ops += n;
    for (const LatencyHistogram &h : per_thread_lat)
        cell.latency.merge(h);
    cell.stats = rt.stats();
    cell.verified = true;
    if (cfg.verify) {
        std::string why;
        cell.verified = workload->verify(rt, &why);
        if (!cell.verified)
            std::fprintf(stderr, "VERIFY FAILED: %s\n", why.c_str());
    }
    return cell;
}

namespace
{

double
throughputOf(const std::vector<CellResult> &cells, AlgoKind algo,
             unsigned threads)
{
    for (const CellResult &c : cells) {
        if (c.algo == algo && c.threads == threads && c.seconds > 0)
            return c.ops / c.seconds;
    }
    return 0.0;
}

double
conflictsOf(const std::vector<CellResult> &cells, AlgoKind algo,
            unsigned threads)
{
    for (const CellResult &c : cells) {
        if (c.algo == algo && c.threads == threads)
            return c.stats.conflictAbortsPerOp();
    }
    return 0.0;
}

} // namespace

std::vector<CellResult>
runBenchmark(const std::string &bench_name, const WorkloadFactory &make,
             const BenchConfig &cfg)
{
    printCsvHeader();
    std::vector<CellResult> cells;
    for (AlgoKind algo : cfg.algos) {
        for (int64_t threads : cfg.threads) {
            CellResult cell = runCell(make, cfg, algo,
                                      static_cast<unsigned>(threads));
            printCsvRow(bench_name, cell);
            cells.push_back(cell);
        }
    }

    // Headline summary (paper Sections 1.3 / 3.5-3.6): RH NOrec vs
    // Hybrid NOrec at the highest measured concurrency.
    bool have_rh = false, have_hy = false;
    for (AlgoKind a : cfg.algos) {
        have_rh |= (a == AlgoKind::kRhNOrec);
        have_hy |= (a == AlgoKind::kHybridNOrec);
    }
    if (have_rh && have_hy && !cfg.threads.empty()) {
        unsigned max_threads = static_cast<unsigned>(
            *std::max_element(cfg.threads.begin(), cfg.threads.end()));
        double rh = throughputOf(cells, AlgoKind::kRhNOrec, max_threads);
        double hy =
            throughputOf(cells, AlgoKind::kHybridNOrec, max_threads);
        double rh_conf =
            conflictsOf(cells, AlgoKind::kRhNOrec, max_threads);
        double hy_conf =
            conflictsOf(cells, AlgoKind::kHybridNOrec, max_threads);
        std::printf("# summary %s @%u threads: "
                    "rh/hy throughput = %.2fx, "
                    "hy/rh HTM conflicts = %.2fx\n",
                    bench_name.c_str(), max_threads,
                    hy > 0 ? rh / hy : 0.0,
                    rh_conf > 0 ? hy_conf / rh_conf : 0.0);
    }
    return cells;
}

} // namespace bench
} // namespace rhtm
