/**
 * @file
 * Adversarial pathology harness (docs/OVERLOAD.md).
 *
 * For every (pathology, algorithm, thread count) cell this runs a
 * fixed per-thread op count of one named pathology twice: the baseline
 * arm (admission off, unbounded transactions -- the tail collapses)
 * and the protected arm (admission gate on, every op carrying a
 * wall-clock deadline -- the tail stays bounded and the shed/deadline
 * counters account for the load the gate refused). The CSV rows carry
 * the standard columns including deadline_exceeded / admission_shed /
 * admission_queued_ticks; --json emits a BENCH_7-style machine-
 * readable report; the summary block states, per pathology, the
 * off/on p99 ratio at the highest measured concurrency.
 *
 * Usage: bench_adversary [--threads=1,2,4,8] [--algos=all]
 *                        [--pathologies=adv-capacity-bomb,...]
 *                        [--ops=150] [--deadline-ms=5]
 *                        [--admission=off|on|both] [--seed=N]
 *                        [--json=FILE]
 *
 * Exit status: 0 when every cell's invariant verified, 1 otherwise.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/util/barrier.h"
#include "src/util/rng.h"
#include "src/workloads/adversary.h"

namespace rhtm
{
namespace
{

/** Everything bench_adversary adds on top of the common sweep flags. */
struct AdvConfig
{
    uint64_t opsPerThread = 150;
    uint64_t deadlineMs = 5;
    bool runOff = true;
    bool runOn = true;
    std::vector<Pathology> pathologies;
    std::string jsonPath;
};

/** One cell's outcome, CSV fields plus the JSON extras. */
struct AdvCell
{
    bench::CellResult csv;
    Pathology pathology;
    bool admission = false;
    uint64_t committed = 0;
    uint64_t deadlineExceeded = 0;
    uint64_t shed = 0;
    uint64_t queuedTicks = 0;
};

AdvCell
runAdversaryCell(Pathology pathology, AlgoKind algo, unsigned threads,
                 bool admission, const bench::BenchConfig &cfg,
                 const AdvConfig &ac)
{
    RuntimeConfig rt_cfg = cfg.runtime;
    rt_cfg.rngSeed = cfg.seed;
    rt_cfg.admission.enabled = admission;
    TmRuntime rt(algo, rt_cfg);

    AdversaryParams params;
    params.pathology = pathology;
    AdversaryWorkload workload(params);
    if (admission) {
        // The protected arm: every op is sheddable and carries a
        // wall-clock deadline, so no single transaction can be dragged
        // into an unbounded wait by the pathology.
        TxnOptions opts;
        opts.deadline = std::chrono::milliseconds(ac.deadlineMs);
        opts.allowShed = true;
        workload.setTxnOptions(opts);
    }

    {
        ThreadCtx &setup_ctx = rt.registerThread();
        workload.setup(rt, setup_ctx);
    }
    rt.resetStats(); // Exclude setup from the measured window.

    std::vector<ThreadCtx *> ctxs(threads);
    for (unsigned t = 0; t < threads; ++t)
        ctxs[t] = &rt.registerThread();

    std::vector<LatencyHistogram> per_thread_lat(threads);
    SenseBarrier barrier(threads + 1);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            Rng rng(cfg.seed * 1000003 + t * 7919 + 1);
            LatencyHistogram &lat = per_thread_lat[t];
            using LatClock = std::chrono::steady_clock;
            barrier.arriveAndWait();
            for (uint64_t op = 0; op < ac.opsPerThread; ++op) {
                auto op_start = LatClock::now();
                workload.runOp(rt, *ctxs[t], rng);
                auto delta = LatClock::now() - op_start;
                lat.record(static_cast<uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(delta)
                        .count()));
            }
        });
    }
    barrier.arriveAndWait();
    auto t0 = std::chrono::steady_clock::now();
    for (auto &w : workers)
        w.join();
    double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    AdvCell cell;
    cell.pathology = pathology;
    cell.admission = admission;
    cell.csv.algo = algo;
    cell.csv.threads = threads;
    cell.csv.seconds = elapsed;
    cell.csv.ops = ac.opsPerThread * threads; // Attempted, not committed.
    for (const LatencyHistogram &h : per_thread_lat)
        cell.csv.latency.merge(h);
    cell.csv.stats = rt.stats();
    cell.committed = cell.csv.stats.get(Counter::kOperations);
    cell.deadlineExceeded =
        cell.csv.stats.get(Counter::kDeadlineExceeded);
    cell.shed = cell.csv.stats.get(Counter::kAdmissionShed);
    cell.queuedTicks =
        cell.csv.stats.get(Counter::kAdmissionQueuedTicks);
    cell.csv.verified = true;
    if (cfg.verify) {
        std::string why;
        cell.csv.verified = workload.verify(rt, &why);
        if (!cell.csv.verified)
            std::fprintf(stderr, "VERIFY FAILED: %s\n", why.c_str());
    }
    return cell;
}

void
writeJson(const std::string &path, const bench::BenchConfig &cfg,
          const AdvConfig &ac, const std::vector<AdvCell> &cells)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"adversary\",\n");
    std::fprintf(f, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(cfg.seed));
    std::fprintf(f, "  \"ops_per_thread\": %llu,\n",
                 static_cast<unsigned long long>(ac.opsPerThread));
    std::fprintf(f, "  \"deadline_ms\": %llu,\n",
                 static_cast<unsigned long long>(ac.deadlineMs));
    std::fprintf(f, "  \"cells\": [\n");
    for (size_t i = 0; i < cells.size(); ++i) {
        const AdvCell &c = cells[i];
        std::fprintf(
            f,
            "    {\"pathology\": \"%s\", \"algo\": \"%s\", "
            "\"threads\": %u, \"admission\": %s, \"ops\": %llu, "
            "\"committed\": %llu, \"deadline_exceeded\": %llu, "
            "\"admission_shed\": %llu, \"admission_queued_ticks\": "
            "%llu, \"seconds\": %.4f, \"p50_us\": %.2f, "
            "\"p99_us\": %.2f, \"max_us\": %.2f, \"verified\": %s}%s\n",
            pathologyName(c.pathology), algoKindName(c.csv.algo),
            c.csv.threads, c.admission ? "true" : "false",
            static_cast<unsigned long long>(c.csv.ops),
            static_cast<unsigned long long>(c.committed),
            static_cast<unsigned long long>(c.deadlineExceeded),
            static_cast<unsigned long long>(c.shed),
            static_cast<unsigned long long>(c.queuedTicks),
            c.csv.seconds, c.csv.latency.percentileNs(50) / 1000.0,
            c.csv.latency.percentileNs(99) / 1000.0,
            c.csv.latency.maxNs() / 1000.0,
            c.csv.verified ? "true" : "false",
            i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

double
medianP99Us(const std::vector<AdvCell> &cells, Pathology p,
            unsigned threads, bool admission)
{
    std::vector<double> vals;
    for (const AdvCell &c : cells) {
        if (c.pathology == p && c.csv.threads == threads &&
            c.admission == admission)
            vals.push_back(c.csv.latency.percentileNs(99) / 1000.0);
    }
    if (vals.empty())
        return 0.0;
    std::sort(vals.begin(), vals.end());
    return vals[vals.size() / 2];
}

} // namespace
} // namespace rhtm

int
main(int argc, char **argv)
{
    using namespace rhtm;
    CliOptions opts(argc, argv);
    bench::BenchConfig cfg = bench::parseBenchConfig(opts);

    AdvConfig ac;
    ac.opsPerThread = static_cast<uint64_t>(opts.getInt("ops", 150));
    ac.deadlineMs =
        static_cast<uint64_t>(opts.getInt("deadline-ms", 5));
    ac.jsonPath = opts.getString("json", "");
    std::string admission = opts.getString("admission", "both");
    if (admission == "off") {
        ac.runOn = false;
    } else if (admission == "on") {
        ac.runOff = false;
    } else if (admission != "both") {
        std::fprintf(stderr,
                     "--admission must be off, on, or both (got %s)\n",
                     admission.c_str());
        return 2;
    }

    for (const std::string &name : opts.getList("pathologies", {})) {
        Pathology p;
        if (!pathologyFromString(name, p)) {
            std::fprintf(stderr, "unknown pathology: %s\n",
                         name.c_str());
            return 2;
        }
        ac.pathologies.push_back(p);
    }
    if (ac.pathologies.empty())
        ac.pathologies = allPathologies();
    opts.exitOnErrors();

    bench::printCsvHeader();
    std::vector<AdvCell> cells;
    bool all_ok = true;
    for (Pathology p : ac.pathologies) {
        for (AlgoKind algo : cfg.algos) {
            for (int64_t threads : cfg.threads) {
                for (int arm = 0; arm < 2; ++arm) {
                    bool admit_on = arm == 1;
                    if ((admit_on && !ac.runOn) ||
                        (!admit_on && !ac.runOff))
                        continue;
                    AdvCell cell = runAdversaryCell(
                        p, algo, static_cast<unsigned>(threads),
                        admit_on, cfg, ac);
                    std::string name = std::string(pathologyName(p)) +
                                       (admit_on ? "-on" : "-off");
                    bench::printCsvRow(name, cell.csv);
                    all_ok &= cell.csv.verified;
                    cells.push_back(std::move(cell));
                }
            }
        }
    }
    if (!ac.jsonPath.empty())
        writeJson(ac.jsonPath, cfg, ac, cells);

    // Per-pathology headline at the highest measured concurrency: the
    // A/B the acceptance criterion asks for (median p99 across the
    // measured algorithms, plus the gate's accounting).
    if (ac.runOff && ac.runOn && !cfg.threads.empty()) {
        unsigned max_threads =
            static_cast<unsigned>(cfg.threads.back());
        unsigned bounded = 0;
        for (Pathology p : ac.pathologies) {
            double off = medianP99Us(cells, p, max_threads, false);
            double on = medianP99Us(cells, p, max_threads, true);
            uint64_t shed = 0, dl = 0;
            for (const AdvCell &c : cells) {
                if (c.pathology == p && c.admission &&
                    c.csv.threads == max_threads) {
                    shed += c.shed;
                    dl += c.deadlineExceeded;
                }
            }
            bool demonstrated = on > 0 && off / on >= 2.0 &&
                                (shed + dl) > 0;
            bounded += demonstrated ? 1 : 0;
            std::printf("# summary %s @%u threads: p99 off=%.0fus "
                        "on=%.0fus ratio=%.1fx shed=%llu "
                        "deadline=%llu%s\n",
                        pathologyName(p), max_threads, off, on,
                        on > 0 ? off / on : 0.0,
                        static_cast<unsigned long long>(shed),
                        static_cast<unsigned long long>(dl),
                        demonstrated ? " [bounded]" : "");
        }
        std::printf("# summary adversary: %u/%zu pathologies bounded "
                    "by admission control\n",
                    bounded, ac.pathologies.size());
    }
    return all_ok ? 0 : 1;
}
