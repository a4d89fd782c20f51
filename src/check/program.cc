#include "src/check/program.h"

namespace rhtm::check
{

namespace
{

TxOp
rd(unsigned var)
{
    return TxOp{TxOpKind::kRead, var, 0};
}

TxOp
wr(unsigned var, uint64_t value)
{
    return TxOp{TxOpKind::kWrite, var, value};
}

TxOp
add(unsigned var, uint64_t value)
{
    return TxOp{TxOpKind::kAdd, var, value};
}

CheckProgram
writeSkew()
{
    // The canonical snapshot-isolation litmus: each thread reads the
    // OTHER thread's variable, then writes its own. Serializable
    // outcomes: at least one thread observes the other's write.
    CheckProgram p;
    p.name = "write-skew";
    p.vars = 2;
    p.init = {0, 0};
    p.threads = {
        ThreadSpec{{TxnSpec{{rd(1), wr(0, 1)}}}},
        ThreadSpec{{TxnSpec{{rd(0), wr(1, 1)}}}},
    };
    return p;
}

CheckProgram
readOnlySnapshot()
{
    // A read-only transaction races a two-word writer: it must see
    // {0,0} or {1,1}, never a mix. Exercises the read-only fast-path
    // commit (no clock bump) against the writeback window.
    CheckProgram p;
    p.name = "ro-snapshot";
    p.vars = 2;
    p.init = {0, 0};
    p.threads = {
        ThreadSpec{
            {TxnSpec{{rd(0), rd(1)}, TxnHint::kReadOnly}}},
        ThreadSpec{{TxnSpec{{wr(0, 1), wr(1, 1)}}}},
    };
    return p;
}

CheckProgram
prefixRace()
{
    // A read-prefix-then-write transaction (the shape RH NOrec runs
    // as an HTM prefix) races a writer that overwrites the prefix's
    // footprint mid-stream, plus a shared counter increment whose
    // read-modify-write must stay atomic.
    CheckProgram p;
    p.name = "prefix-race";
    p.vars = 4;
    p.init = {0, 0, 0, 0};
    p.threads = {
        ThreadSpec{{TxnSpec{{rd(0), rd(1), rd(2), wr(3, 7)}}}},
        ThreadSpec{{TxnSpec{{wr(0, 5), wr(1, 5)}},
                    TxnSpec{{add(2, 1)}}}},
        ThreadSpec{{TxnSpec{{add(2, 1)}}}},
    };
    return p;
}

CheckProgram
postfixRace()
{
    // Writer transactions whose writebacks (RH NOrec's HTM postfix,
    // the hybrids' clock-held in-place phase) overlap a reader that
    // spans both footprints.
    CheckProgram p;
    p.name = "postfix-race";
    p.vars = 3;
    p.init = {0, 0, 0};
    p.threads = {
        ThreadSpec{{TxnSpec{{rd(0), wr(1, 3), wr(2, 3)}}}},
        ThreadSpec{{TxnSpec{{rd(1), wr(0, 9), add(2, 1)}}}},
    };
    return p;
}

CheckProgram
irrevocableUpgrade()
{
    // An attempt upgrades to irrevocable mid-body (which may restart
    // it pre-grant) while a writer churns both its already-read and
    // its about-to-write footprint.
    CheckProgram p;
    p.name = "irrevocable-upgrade";
    p.vars = 2;
    p.init = {0, 0};
    p.threads = {
        ThreadSpec{{TxnSpec{
            {rd(0), TxOp{TxOpKind::kIrrevocable}, wr(1, 1)}}}},
        ThreadSpec{{TxnSpec{{wr(0, 1), wr(1, 2)}}}},
    };
    return p;
}

} // namespace

std::vector<CheckProgram>
curatedPrograms()
{
    std::vector<CheckProgram> out;
    out.push_back(writeSkew());
    out.push_back(readOnlySnapshot());
    out.push_back(prefixRace());
    out.push_back(postfixRace());
    out.push_back(irrevocableUpgrade());
    // Commit-path campaign programs, fix in place: the extension
    // zombie workload and the saturated-filter pathology run under
    // every kind in the matrix.
    out.push_back(makeTsExtensionProgram(false));
    out.push_back(makeFilterCollisionProgram());
    return out;
}

bool
curatedProgram(const std::string &name, CheckProgram &out)
{
    for (CheckProgram &p : curatedPrograms()) {
        if (p.name == name) {
            out = std::move(p);
            return true;
        }
    }
    return false;
}

CheckProgram
makeFirstTryBudgetProgram(bool reverted)
{
    // Thread 0: the first transaction's hardware write takes one
    // injected non-retryable abort (score 512 -> 448, one software
    // fallback commit); the twelve clean single-write transactions
    // after it commit first-try in hardware. With the recovery fix
    // each first-try commit adds (1024-score)/64, lifting the score
    // past 540; reverted, first-try commits add nothing and it stays
    // at 448 -- on EVERY schedule, because thread 1 is a read-only
    // bystander on a disjoint variable and can never force thread 0
    // off its first attempt.
    CheckProgram p;
    p.name = "regress-first-try-budget";
    p.vars = 2;
    p.init = {0, 0};
    ThreadSpec t0;
    for (unsigned i = 0; i < 13; ++i)
        t0.txns.push_back(TxnSpec{{wr(0, i + 1)}});
    p.threads = {t0,
                 ThreadSpec{{TxnSpec{{rd(1)}, TxnHint::kReadOnly}}}};
    p.configure = [reverted](RuntimeConfig &cfg) {
        cfg.retry.adaptive = true;
        cfg.retry.revertFirstTryBudgetFix = reverted;
        FaultRule abortFirstWrite;
        abortFirstWrite.site = FaultSite::kTxWrite;
        abortFirstWrite.kind = FaultKind::kAbortOther;
        abortFirstWrite.firstHit = 1;
        abortFirstWrite.maxFires = 1;
        abortFirstWrite.tid = 0;
        cfg.fault.add(abortFirstWrite);
    };
    p.invariant = [](TmRuntime &rt, std::string *why) {
        uint32_t score = rt.context(0).session().adaptiveScoreForTest();
        if (score >= 500)
            return true;
        if (why != nullptr)
            *why = "adaptive score stuck at " + std::to_string(score) +
                   " (< 500): first-try commits earned no recovery";
        return false;
    };
    return p;
}

CheckProgram
makeKillSwitchStreakProgram(bool reverted)
{
    // Start with the breaker tripped and one decay step from reopen
    // (cooldown = 1). Threads 0 and 1 each complete one transaction
    // (bypassed into software while tripped; an injected retryable
    // conflict keeps them out of hardware even after the reopen, so
    // neither can ever register a hardware commit that would reset
    // the streak legitimately). Exactly one of their completions wins
    // the cooldown 1 -> 0 CAS and reopens the breaker; thread 2 waits
    // for the reopen, then runs two transactions whose hardware
    // attempts each take an injected non-retryable abort, building
    // the failure streak to the threshold (2) -- so the breaker MUST
    // trip again. Under the reverted fix, a schedule that parks the
    // losing decayer at kKillSwitchDecay across the reopen and thread
    // 2's first failure lets its stale-snapshot CAS failure wipe the
    // streak, and the second trip never happens.
    CheckProgram p;
    p.name = "regress-kill-switch-streak";
    p.vars = 3;
    p.init = {0, 0, 0};
    ThreadSpec t2;
    t2.waitKillSwitchOpen = true;
    t2.txns = {TxnSpec{{wr(2, 1)}}, TxnSpec{{wr(2, 2)}}};
    p.threads = {ThreadSpec{{TxnSpec{{wr(0, 1)}}}},
                 ThreadSpec{{TxnSpec{{wr(1, 1)}}}}, t2};
    p.configure = [reverted](RuntimeConfig &cfg) {
        cfg.retry.maxFastPathRetries = 1;
        cfg.retry.killSwitchThreshold = 2;
        cfg.retry.killSwitchCooldownOps = 100;
        cfg.retry.revertKillSwitchStreakFix = reverted;
        for (int tid = 0; tid < 2; ++tid) {
            FaultRule conflict;
            conflict.site = FaultSite::kHtmBegin;
            conflict.kind = FaultKind::kAbortConflict;
            conflict.firstHit = 1;
            conflict.period = 1;
            conflict.tid = tid;
            cfg.fault.add(conflict);
        }
        FaultRule fail;
        fail.site = FaultSite::kHtmBegin;
        fail.kind = FaultKind::kAbortOther;
        fail.firstHit = 1;
        fail.period = 1;
        fail.tid = 2;
        cfg.fault.add(fail);
    };
    p.setup = [](TmRuntime &rt) {
        // Pre-tripped, one decay from reopen. Runtime metadata (plain
        // atomics), deliberately outside TM-visible memory.
        rt.globals().killSwitch.cooldown.store(
            1, std::memory_order_relaxed);
    };
    p.invariant = [](TmRuntime &rt, std::string *why) {
        uint64_t trips = rt.globals().killSwitch.activations.load(
            std::memory_order_relaxed);
        if (trips >= 1)
            return true;
        if (why != nullptr)
            *why = "breaker never re-tripped: the probing thread's "
                   "failure streak was wiped by a stale decayer";
        return false;
    };
    return p;
}

CheckProgram
makePolicySnapshotProgram(bool reverted)
{
    // Sessions are built with the default static policy; after
    // registration the program flips the ONE live policy to adaptive
    // with min == max == 2. Every session must serve budget() == 2
    // from then on. Under the reverted fix the budget object froze a
    // copy at construction (adaptive = false) and keeps serving the
    // static budget of 10 -- deterministically, on every schedule.
    CheckProgram p;
    p.name = "regress-policy-snapshot";
    p.vars = 1;
    p.init = {0};
    p.threads = {ThreadSpec{{TxnSpec{{wr(0, 1)}}}},
                 ThreadSpec{{TxnSpec{{add(0, 1)}}}}};
    p.configure = [reverted](RuntimeConfig &cfg) {
        cfg.retry.revertPolicySnapshotFix = reverted;
    };
    p.postRegister = [](TmRuntime &rt) {
        RetryPolicy &live = rt.mutableRetryPolicyForTest();
        live.adaptive = true;
        live.adaptiveMinRetries = 2;
        live.adaptiveMaxRetries = 2;
    };
    p.invariant = [](TmRuntime &rt, std::string *why) {
        unsigned budget =
            rt.context(0).session().fastRetryBudgetForTest();
        if (budget == 2)
            return true;
        if (why != nullptr)
            *why = "live policy change invisible: budget() == " +
                   std::to_string(budget) + ", want 2";
        return false;
    };
    return p;
}

CheckProgram
makeDeadlineUnwindProgram(bool reverted)
{
    // Thread 0's single add(var0) is bounded to three attempts. The
    // injected faults walk it through the exact states the bug needs:
    // every hardware read aborts (attempt 1 burns the zero fast-path
    // budget and falls back), and every software write restarts (each
    // slow attempt registers the fallback, then unwinds via
    // TxRestart, which deliberately KEEPS the registration for the
    // next attempt). The attempt budget then expires at a boundary
    // with the registration still published, and only the unwind
    // tail's deregistration -- the fix under test -- drops it. Thread
    // 1 is a fault-free bystander on var1 whose two commits prove the
    // runtime stayed healthy. Deterministic on every schedule: the
    // faults are keyed to thread 0's own program order.
    CheckProgram p;
    p.name = "regress-deadline-unwind";
    p.vars = 2;
    p.init = {0, 0};
    TxnSpec bounded;
    bounded.ops = {add(0, 1)};
    bounded.maxAttempts = 3;
    p.threads = {ThreadSpec{{bounded}},
                 ThreadSpec{{TxnSpec{{wr(1, 1)}}, TxnSpec{{wr(1, 2)}}}}};
    p.configure = [reverted](RuntimeConfig &cfg) {
        cfg.retry.maxFastPathRetries = 0;
        cfg.retry.revertDeadlineUnwindFix = reverted;
        FaultRule hwRead;
        hwRead.site = FaultSite::kTxRead;
        hwRead.kind = FaultKind::kAbortConflict;
        hwRead.firstHit = 1;
        hwRead.period = 1;
        hwRead.tid = 0;
        cfg.fault.add(hwRead);
        FaultRule swWrite;
        swWrite.site = FaultSite::kSoftwareWrite;
        swWrite.kind = FaultKind::kAbortOther;
        swWrite.firstHit = 1;
        swWrite.period = 1;
        swWrite.tid = 0;
        cfg.fault.add(swWrite);
    };
    p.invariant = [](TmRuntime &rt, std::string *why) {
        uint64_t leaked = rt.globals().fallbacks;
        uint64_t unwound =
            rt.stats().get(Counter::kDeadlineExceeded);
        uint64_t committed = rt.stats().get(Counter::kOperations);
        if (leaked == 0 && unwound == 1 && committed == 2)
            return true;
        if (why != nullptr)
            *why = "deadline unwind left fallbacks=" +
                   std::to_string(leaked) + " (want 0), " +
                   "deadline_exceeded=" + std::to_string(unwound) +
                   " (want 1), operations=" +
                   std::to_string(committed) + " (want 2)";
        return false;
    };
    return p;
}

CheckProgram
makeTsExtensionProgram(bool reverted)
{
    // Thread 0 writes var1 then var0 in ONE transaction (eager kinds
    // write in place under the held clock, in program order). Thread 1
    // reads var0 then var1. Atomicity demands it observe {0,0} or
    // {1,1}. The zombie: reader logs var0==0, the writer locks the
    // clock and stores var1, and the reader's var1 read extends --
    // under the reverted fix it value-checks the still-unwritten var0
    // against the mid-writeback image, adopts the LOCKED clock, and
    // returns var1==1; its read-only commit then records the
    // impossible {0,1}. The fixed extension blocks on the lock, sees
    // var0 overwritten (the writer's published summary covers var0,
    // so the ring skip declines), and restarts. The reverted branch is
    // taken before the ring skip, whose stable-clock wait would close
    // the window. Hardware begins scripted dead so the hybrids run the
    // same software phase (a no-op for pure STM).
    CheckProgram p;
    p.name = "ts-extend-zombie";
    p.vars = 2;
    p.init = {0, 0};
    p.threads = {
        ThreadSpec{{TxnSpec{{wr(1, 1), wr(0, 1)}}}},
        ThreadSpec{{TxnSpec{{rd(0), rd(1)}}}},
    };
    p.configure = [reverted](RuntimeConfig &cfg) {
        cfg.retry.revertTsExtensionFix = reverted;
        cfg.retry.maxFastPathRetries = 0;
        FaultRule hw;
        hw.site = FaultSite::kHtmBegin;
        hw.kind = FaultKind::kAbortConflict;
        hw.firstHit = 1;
        hw.period = 1;
        cfg.fault.add(hw);
    };
    return p;
}

CheckProgram
makeFilterCollisionProgram()
{
    // Disjoint writers on var0/var1 race a spanning reader while every
    // Bloom summary is saturated (the universal collision): all
    // published write sets intersect all read summaries, so the
    // disjointness skip must never fire and every clock bump must take
    // the conservative full revalidation -- which has to keep
    // committing the workload correctly (the history checker verifies
    // the values; the invariant verifies no skip was taken).
    CheckProgram p;
    p.name = "filter-collision";
    p.vars = 3;
    p.init = {0, 0, 0};
    p.threads = {
        ThreadSpec{{TxnSpec{{wr(0, 1)}}, TxnSpec{{add(0, 1)}}}},
        ThreadSpec{{TxnSpec{{wr(1, 1)}}, TxnSpec{{add(1, 1)}}}},
        ThreadSpec{{TxnSpec{{rd(0), rd(1), rd(2)}}}},
    };
    p.configure = [](RuntimeConfig &cfg) {
        cfg.retry.filterSaturateForTest = true;
    };
    p.invariant = [](TmRuntime &rt, std::string *why) {
        uint64_t skipped =
            rt.stats().get(Counter::kRevalidationsSkipped);
        if (skipped == 0)
            return true;
        if (why != nullptr)
            *why = "saturated summaries passed the disjointness skip " +
                   std::to_string(skipped) + " time(s)";
        return false;
    };
    return p;
}

} // namespace rhtm::check
