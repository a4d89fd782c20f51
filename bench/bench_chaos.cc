/**
 * @file
 * Chaos soak benchmark: runs the invariant-conserving bank-transfer
 * workload for a timed window under each named fault schedule,
 * sweeping algorithms and thread counts. Every sum-reader transaction
 * checks opacity (no torn total) and verify() checks conservation and
 * that no coordination word leaked, so a long soak doubles as a
 * robustness stress test. The CSV rows carry the fault columns
 * (injected/subscription aborts, fast-path attempts, kill-switch
 * activations and bypass ratio) and a per-cell stats block prints the
 * per-cause abort breakdown.
 *
 * Usage: bench_chaos [--schedule=prefix-kill,...] [--accounts=64]
 *                    [--threads=...] [--seconds=...] [--algos=...]
 *                    [--seed=N] [--stats]
 */

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/core/engine/fault_points.h"
#include "src/fault/schedules.h"
#include "src/structures/tx_hashmap.h"

namespace rhtm
{
namespace
{

/**
 * Bank transfers over the transactional hash map: account i holds its
 * balance under key i. Writers move random amounts between two
 * accounts (no overdrafts, so the total is conserved exactly);
 * readers sum every account in one transaction and count any total
 * that is not the expected constant -- a torn snapshot is an opacity
 * violation.
 */
class ChaosBankWorkload : public Workload
{
  public:
    explicit ChaosBankWorkload(unsigned accounts)
        : accounts_(accounts), total_(uint64_t(accounts) * kBalance),
          bank_(8)
    {
    }

    const char *name() const override { return "chaos-bank"; }

    void
    setup(TmRuntime &rt, ThreadCtx &ctx) override
    {
        rt.run(ctx, [&](Txn &tx) {
            for (uint64_t a = 0; a < accounts_; ++a)
                bank_.put(tx, a, kBalance);
        });
    }

    void
    runOp(TmRuntime &rt, ThreadCtx &ctx, Rng &rng) override
    {
        if (rng.nextPercent(70)) {
            uint64_t from = rng.nextBounded(accounts_);
            uint64_t to = rng.nextBounded(accounts_);
            uint64_t amount = 1 + rng.nextBounded(50);
            // Decided outside the transaction: a transfer that must
            // also notify an external system (the irrevocability use
            // case) makes the same choice on every replayed attempt.
            bool want_irrevocable = irrevocablePct_ > 0 &&
                                    rng.nextPercent(irrevocablePct_);
            bool upgraded = false;
            try {
                rt.run(ctx, [&](Txn &tx) {
                    // Opt-in: lets the schedule script a user
                    // exception at the top of the body, before any
                    // upgrade (docs/LIFECYCLE.md).
                    userExceptionFaultPoint(ctx.injector());
                    uint64_t balance = 0;
                    bank_.get(tx, from, balance);
                    if (balance < amount)
                        return; // No overdrafts; still conserves.
                    if (want_irrevocable) {
                        tx.becomeIrrevocable();
                        // Simulated external side effect: runs exactly
                        // once per granted transaction, never replayed
                        // (verify() counts it against upgraded
                        // commits).
                        sideEffects_.fetch_add(1,
                                               std::memory_order_relaxed);
                        upgraded = true;
                    }
                    bank_.put(tx, from, balance - amount);
                    bank_.addTo(tx, to, amount);
                });
            } catch (const InjectedUserException &) {
                return; // Aborted cleanly; conservation is unchanged.
            }
            if (upgraded)
                irrevocableCommits_.fetch_add(1,
                                              std::memory_order_relaxed);
        } else {
            uint64_t sum = 0;
            try {
                rt.run(ctx, [&](Txn &tx) {
                    userExceptionFaultPoint(ctx.injector());
                    sum = 0; // The body may re-execute under faults.
                    for (uint64_t a = 0; a < accounts_; ++a) {
                        uint64_t balance = 0;
                        bank_.get(tx, a, balance);
                        sum += balance;
                    }
                });
            } catch (const InjectedUserException &) {
                return; // Aborted mid-sum; the snapshot is void.
            }
            if (sum != total_)
                tornTotals_.fetch_add(1, std::memory_order_relaxed);
        }
    }

    bool
    verify(TmRuntime &rt, std::string *why) const override
    {
        if (uint64_t torn = tornTotals_.load()) {
            if (why)
                *why = std::to_string(torn) +
                       " torn bank totals (opacity violation)";
            return false;
        }
        uint64_t effects = sideEffects_.load();
        uint64_t upgrades = irrevocableCommits_.load();
        if (effects != upgrades) {
            if (why)
                *why = "irrevocable side effects ran " +
                       std::to_string(effects) + " times for " +
                       std::to_string(upgrades) +
                       " upgraded commits (replayed grant)";
            return false;
        }
        uint64_t final_total = 0;
        bank_.forEachUnsync(
            [&](uint64_t, uint64_t value) { final_total += value; });
        if (final_total != total_) {
            if (why)
                *why = "bank total " + std::to_string(final_total) +
                       " != " + std::to_string(total_) +
                       " (money created or destroyed)";
            return false;
        }
        TmGlobals &g = rt.globals();
        if (clockIsLocked(rt.peek(&g.clock)) ||
            rt.peek(&g.htmLock) != 0 || rt.peek(&g.fallbacks) != 0 ||
            rt.peek(&g.serialLock) != 0) {
            if (why)
                *why = "a coordination word leaked out of the run";
            return false;
        }
        // Ticket balance: at quiescence every taken serial ticket must
        // have been served, or some thread exited holding (or still
        // queued on) the serial lock.
        uint64_t next = rt.peek(&g.serialNextTicket);
        uint64_t serving = rt.peek(&g.serialServing);
        if (next != serving) {
            if (why)
                *why = "serial ticket imbalance: next=" +
                       std::to_string(next) +
                       " serving=" + std::to_string(serving);
            return false;
        }
        return true;
    }

  private:
    static constexpr uint64_t kBalance = 1000;

    unsigned accounts_;
    uint64_t total_;
    TxHashMap bank_;
    std::atomic<uint64_t> tornTotals_{0};
    std::atomic<uint64_t> sideEffects_{0};
    std::atomic<uint64_t> irrevocableCommits_{0};
};

/** Per-cell per-cause abort and kill-switch breakdown. */
void
printStatsBlock(const std::string &name,
                const std::vector<bench::CellResult> &cells)
{
    for (const bench::CellResult &c : cells) {
        const StatsSummary &s = c.stats;
        std::printf(
            "# stats %s %s@%u: conflict=%llu capacity=%llu "
            "explicit=%llu other=%llu injected=%llu subscription=%llu "
            "attempts=%llu ks-activations=%llu ks-bypasses=%llu "
            "irrev-upgrades=%llu user-exc-aborts=%llu\n",
            name.c_str(), algoKindName(c.algo), c.threads,
            (unsigned long long)s.get(Counter::kHtmConflictAborts),
            (unsigned long long)s.get(Counter::kHtmCapacityAborts),
            (unsigned long long)s.get(Counter::kHtmExplicitAborts),
            (unsigned long long)s.get(Counter::kHtmOtherAborts),
            (unsigned long long)s.get(Counter::kHtmInjectedAborts),
            (unsigned long long)s.get(Counter::kHtmSubscriptionAborts),
            (unsigned long long)s.get(Counter::kFastPathAttempts),
            (unsigned long long)s.get(Counter::kKillSwitchActivations),
            (unsigned long long)s.get(Counter::kKillSwitchBypasses),
            (unsigned long long)s.get(Counter::kIrrevocableUpgrades),
            (unsigned long long)s.get(Counter::kUserExceptionAborts));
    }
}

} // namespace
} // namespace rhtm

int
main(int argc, char **argv)
{
    using namespace rhtm;
    CliOptions opts(argc, argv);
    bench::BenchConfig cfg = bench::parseBenchConfig(opts);
    unsigned accounts =
        static_cast<unsigned>(opts.getInt("accounts", 64));
    bool want_stats = opts.has("stats");

    std::vector<std::string> schedules =
        opts.getList("schedule", chaosScheduleNames());
    if (schedules.empty()) {
        std::fprintf(stderr, "--schedule needs at least one name\n");
        return 2;
    }
    opts.exitOnErrors();

    bool all_ok = true;
    for (const std::string &schedule : schedules) {
        bench::BenchConfig run_cfg = cfg;
        if (!makeChaosSchedule(schedule, cfg.seed, run_cfg.runtime.fault)) {
            std::fprintf(stderr, "unknown fault schedule: %s\n",
                         schedule.c_str());
            return 2;
        }
        std::string name = "chaos-" + schedule;
        std::vector<bench::CellResult> cells =
            bench::runBenchmark(name, [accounts] {
                return std::make_unique<ChaosBankWorkload>(accounts);
            }, run_cfg);
        if (want_stats)
            printStatsBlock(name, cells);
        for (const bench::CellResult &c : cells)
            all_ok &= c.verified;
    }
    return all_ok ? 0 : 1;
}
