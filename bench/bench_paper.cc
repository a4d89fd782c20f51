/**
 * @file
 * The paper's evidence in one driver: Figures 4-6 (RBTree at 4/10/40%
 * mutation, the STAMP kernels) and the ablations of Sections 2.4, 3.1,
 * 3.3 and 3.4 (DESIGN.md experiment index). Each figure is a list of
 * rows; a row is one runBenchmark sweep over a workload, optionally
 * pinned to fixed algorithms and with a RuntimeConfig tweak.
 *
 * Usage: bench_paper --figure=NAME[,NAME]|all [--mutation=4,10,40]
 *                    [--size=10000] [common flags]
 * --mutation lists the rbtree figure's columns (default 4,10,40) and
 * gives the one ratio of ablation-rh and ablation-prefix-len (default
 * 10); --size is every RBTree row's node count.
 *
 * Exit status: 0 when every cell verified, 1 if any failed, 2 on a bad
 * command line.
 */

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/workloads/genome.h"
#include "src/workloads/intruder.h"
#include "src/workloads/kmeans.h"
#include "src/workloads/labyrinth.h"
#include "src/workloads/rbtree_bench.h"
#include "src/workloads/ssca2.h"
#include "src/workloads/vacation.h"
#include "src/workloads/yada.h"

namespace rhtm
{
namespace
{

/** One runBenchmark sweep of a figure. */
struct Row
{
    std::string bench;              //!< The CSV `bench` column.
    bench::WorkloadFactory make;
    std::vector<AlgoKind> algos{};  //!< Empty: the --algos sweep.
    std::function<void(RuntimeConfig &)> tweak{}; //!< Optional.
};

struct Figure
{
    std::string name;
    bool oneMutation; //!< Runs at a single --mutation ratio.
    std::vector<Row> rows;
};

template <typename W, typename P>
bench::WorkloadFactory
factoryOf(P params)
{
    return [params] { return std::make_unique<W>(params); };
}

/** A figure of one row named after it, on the --algos sweep. */
Figure
single(const std::string &name, bench::WorkloadFactory make)
{
    return {name, false, {{name, std::move(make)}}};
}

/**
 * The figure table. @p mutations is --mutation as given (empty when
 * absent); @p size is --size.
 */
std::vector<Figure>
figureTable(const std::vector<int64_t> &mutations, unsigned size)
{
    auto rbtree = [size](int64_t mutation) {
        return factoryOf<RbTreeBenchWorkload>(RbTreeBenchParams{
            .initialSize = size,
            .mutationPct = static_cast<unsigned>(mutation)});
    };
    auto vacation_low = factoryOf<VacationWorkload>(VacationParams::low());
    const std::vector<AlgoKind> rh = {AlgoKind::kRhNOrec};
    const std::vector<AlgoKind> rh_hy = {AlgoKind::kRhNOrec,
                                         AlgoKind::kHybridNOrec};

    Figure fig4{"rbtree", false, {}};
    for (int64_t m : mutations.empty() ? std::vector<int64_t>{4, 10, 40}
                                       : mutations)
        fig4.rows.push_back(
            {"rbtree-" + std::to_string(m) + "pct", rbtree(m)});

    // ablation-rh: RH NOrec with the prefix and postfix HTMs each
    // disabled; "neither" reduces the mixed slow path to the Hybrid
    // NOrec software path, and Hybrid NOrec itself is the reference.
    auto ablation = rbtree(mutations.empty() ? 10 : mutations.front());
    auto rh_halves = [](bool prefix, bool postfix) {
        return [prefix, postfix](RuntimeConfig &rt) {
            rt.rh.enablePrefix = prefix;
            rt.rh.enablePostfix = postfix;
        };
    };
    Figure ablation_rh{"ablation-rh", true, {
        {"rh-both", ablation, rh, rh_halves(true, true)},
        {"rh-prefix-only", ablation, rh, rh_halves(true, false)},
        {"rh-postfix-only", ablation, rh, rh_halves(false, true)},
        {"rh-neither", ablation, rh, rh_halves(false, false)},
        {"hy-norec-ref", ablation, {AlgoKind::kHybridNOrec}},
    }};

    // ablation-eager-lazy (Section 3.1): the two pure-software NOrec
    // designs on a read-heavy and a write-heavy tree and Vacation-Low.
    const std::vector<AlgoKind> eager_lazy = {AlgoKind::kNOrec,
                                              AlgoKind::kNOrecLazy};
    Figure ablation_eager_lazy{"ablation-eager-lazy", false, {
        {"eager-lazy-rbtree-10pct", rbtree(10), eager_lazy},
        {"eager-lazy-rbtree-40pct", rbtree(40), eager_lazy},
        {"eager-lazy-vacation-low", vacation_low, eager_lazy},
    }};

    // ablation-retry (Sections 3.3-3.4): the fast-path retry budget,
    // its dynamic-adaptive variant (the paper's future-work
    // direction) and the small-HTM attempt budget, on intruder.
    auto retry_intruder = factoryOf<IntruderWorkload>(IntruderParams{});
    Figure ablation_retry{"ablation-retry", false, {}};
    for (unsigned retries : {1u, 3u, 10u, 20u})
        ablation_retry.rows.push_back(
            {"retry-fast-" + std::to_string(retries), retry_intruder,
             rh_hy, [retries](RuntimeConfig &rt) {
                 rt.retry.maxFastPathRetries = retries;
             }});
    ablation_retry.rows.push_back(
        {"retry-fast-adaptive", retry_intruder, rh_hy,
         [](RuntimeConfig &rt) { rt.retry.adaptive = true; }});
    for (unsigned attempts : {1u, 2u, 4u})
        ablation_retry.rows.push_back(
            {"retry-small-htm-" + std::to_string(attempts),
             retry_intruder, rh, [attempts](RuntimeConfig &rt) {
                 rt.retry.smallHtmAttempts = attempts;
             }});

    // ablation-prefix-len (Section 2.4): adaptive prefix length
    // against fixed lengths.
    Figure ablation_prefix_len{"ablation-prefix-len", true, {
        {"prefix-adaptive", ablation, rh,
         [](RuntimeConfig &rt) { rt.rh.adaptivePrefix = true; }},
    }};
    for (unsigned len : {8u, 64u, 1024u})
        ablation_prefix_len.rows.push_back(
            {"prefix-fixed-" + std::to_string(len), ablation, rh,
             [len](RuntimeConfig &rt) {
                 rt.rh.adaptivePrefix = false;
                 rt.rh.maxPrefixLength = len;
                 rt.rh.minPrefixLength = len;
             }});

    return {
        fig4,
        single("vacation-low", vacation_low),
        single("vacation-high",
               factoryOf<VacationWorkload>(VacationParams::high())),
        // The intruder stream wraps, so any run length works.
        single("intruder", factoryOf<IntruderWorkload>(
                               IntruderParams{.flows = 4096})),
        single("genome", factoryOf<GenomeWorkload>(GenomeParams{
                             .genomeLength = 32768, .duplication = 4})),
        single("ssca2", factoryOf<Ssca2Workload>(Ssca2Params{})),
        single("yada", factoryOf<YadaWorkload>(
                           YadaParams{.initialTriangles = 8192})),
        single("kmeans", factoryOf<KmeansWorkload>(KmeansParams{})),
        single("labyrinth", factoryOf<LabyrinthWorkload>(LabyrinthParams{})),
        ablation_rh,
        ablation_eager_lazy,
        ablation_retry,
        ablation_prefix_len,
    };
}

/** Report a bad --figure with the known names; returns exit status 2. */
int
badFigure(const std::string &what, const std::vector<Figure> &table)
{
    std::fprintf(stderr, "%s (known: all", what.c_str());
    for (const Figure &f : table)
        std::fprintf(stderr, " %s", f.name.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
}

} // namespace
} // namespace rhtm

int
main(int argc, char **argv)
{
    using namespace rhtm;
    CliOptions opts(argc, argv);
    bench::BenchConfig base = bench::parseBenchConfig(opts);
    std::vector<std::string> names = opts.getList("figure", {});
    std::vector<int64_t> mutations = opts.getIntList("mutation", {});
    unsigned size = static_cast<unsigned>(opts.getInt("size", 10000));
    opts.exitOnErrors();

    std::vector<Figure> table = figureTable(mutations, size);
    if (names.empty())
        return badFigure("--figure needs a name", table);
    std::vector<const Figure *> figures;
    for (const std::string &name : names) {
        size_t before = figures.size();
        for (const Figure &f : table) {
            if (name == "all" || name == f.name)
                figures.push_back(&f);
        }
        if (figures.size() == before)
            return badFigure("unknown figure: " + name, table);
    }
    for (const Figure *f : figures) {
        if (f->oneMutation && mutations.size() > 1) {
            std::fprintf(stderr, "--figure=%s takes one --mutation value\n",
                         f->name.c_str());
            return 2;
        }
    }

    bool all_ok = true;
    for (const Figure *f : figures) {
        for (const Row &row : f->rows) {
            bench::BenchConfig cfg = base;
            if (!row.algos.empty())
                cfg.algos = row.algos;
            if (row.tweak)
                row.tweak(cfg.runtime);
            for (const bench::CellResult &c :
                 bench::runBenchmark(row.bench, row.make, cfg))
                all_ok &= c.verified;
        }
    }
    return all_ok ? 0 : 1;
}
