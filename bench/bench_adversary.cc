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
#include <vector>

#include "bench/harness.h"
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
    std::vector<bool> arms{false, true}; //!< Admission off, on.
    std::vector<Pathology> pathologies;
    std::string jsonPath;
};

/** One cell's outcome plus the arm it ran. */
struct AdvCell
{
    bench::CellResult csv;
    Pathology pathology;
    bool admission = false;
};

/**
 * A factory for @p pathology. The protected arm makes every op
 * sheddable and gives it a wall-clock deadline, so no single
 * transaction can be dragged into an unbounded wait by the pathology.
 */
bench::WorkloadFactory
adversaryFactory(Pathology pathology, bool admission,
                 uint64_t deadlineMs)
{
    return [=] {
        AdversaryParams params;
        params.pathology = pathology;
        auto workload = std::make_unique<AdversaryWorkload>(params);
        if (admission) {
            TxnOptions opts;
            opts.deadline = std::chrono::milliseconds(deadlineMs);
            opts.allowShed = true;
            workload->setTxnOptions(opts);
        }
        return workload;
    };
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
        const StatsSummary &st = c.csv.stats;
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
            static_cast<unsigned long long>(st.get(Counter::kOperations)),
            static_cast<unsigned long long>(
                st.get(Counter::kDeadlineExceeded)),
            static_cast<unsigned long long>(
                st.get(Counter::kAdmissionShed)),
            static_cast<unsigned long long>(
                st.get(Counter::kAdmissionQueuedTicks)),
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
        ac.arms = {false};
    } else if (admission == "on") {
        ac.arms = {true};
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
                for (bool admit_on : ac.arms) {
                    bench::BenchConfig arm_cfg = cfg;
                    arm_cfg.runtime.admission.enabled = admit_on;
                    AdvCell cell{
                        bench::runCell(
                            adversaryFactory(p, admit_on, ac.deadlineMs),
                            arm_cfg, algo,
                            static_cast<unsigned>(threads),
                            ac.opsPerThread),
                        p, admit_on};
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
    if (ac.arms.size() == 2 && !cfg.threads.empty()) {
        unsigned max_threads = static_cast<unsigned>(
            *std::max_element(cfg.threads.begin(), cfg.threads.end()));
        unsigned bounded = 0;
        for (Pathology p : ac.pathologies) {
            double off = medianP99Us(cells, p, max_threads, false);
            double on = medianP99Us(cells, p, max_threads, true);
            uint64_t shed = 0, dl = 0;
            for (const AdvCell &c : cells) {
                if (c.pathology == p && c.admission &&
                    c.csv.threads == max_threads) {
                    shed += c.csv.stats.get(Counter::kAdmissionShed);
                    dl += c.csv.stats.get(Counter::kDeadlineExceeded);
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
