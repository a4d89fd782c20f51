/**
 * @file
 * SessionCore: the shared state block and protocol steps every
 * HTM-backed session composes.
 *
 * The eight algorithm sessions used to each carry a private copy of
 * the same machinery -- mode/attempt bookkeeping, the kill-switch
 * bypass, fallback registration, the NOrec fast-path commit, the
 * hardware-abort retry ruling, serial-lock handling, the irrevocable
 * grant barrier, and the end-of-transaction reset. SessionCore owns
 * one copy; a session is the composition of this block with its
 * algorithm-specific read/write/commit policies (bound per mode as
 * TxDispatch descriptors).
 *
 * The pure STM sessions (NOrec, TL2) have no hardware transaction and
 * use only the AccessTally piece plus the protocol objects
 * (UndoJournal, ValueReadLog, CommitSeqlock).
 */

#ifndef RHTM_CORE_ENGINE_SESSION_CORE_H
#define RHTM_CORE_ENGINE_SESSION_CORE_H

#include <cstdint>

#include "src/core/engine/clock_subscription.h"
#include "src/core/engine/deadline.h"
#include "src/core/engine/domain.h"
#include "src/core/engine/fault_points.h"
#include "src/core/engine/globals.h"
#include "src/core/engine/progress.h"
#include "src/core/engine/retry_policy.h"
#include "src/htm/htm_engine.h"
#include "src/htm/htm_txn.h"
#include "src/persist/tx_persist.h"
#include "src/stats/stats.h"

namespace rhtm
{

/**
 * Execution phase of the current attempt, shared by every algorithm.
 * kSlow is the algorithm's non-serial fallback: the mixed (small-HTM)
 * path for the RH algorithms, the all-software path for the hybrids.
 * Which commit counter a kSlow commit lands on is a per-algorithm
 * policy choice (see SessionCore::completeTail).
 */
enum class ExecMode : uint8_t
{
    kFast = 0, //!< Pure hardware attempt.
    kSlow,     //!< Mixed/software fallback.
    kSerial    //!< Holding the serial starvation lock.
};

/**
 * Per-transaction access counts, kept as plain increments on the hot
 * path and flushed to ThreadStats once per transaction so the
 * instrumented accessors never pay an indirect stats call per access.
 */
struct AccessTally
{
    uint64_t fastReads = 0;
    uint64_t fastWrites = 0;
    uint64_t slowReads = 0;
    uint64_t slowWrites = 0;

    void
    flush(ThreadStats *stats)
    {
        if (stats != nullptr) {
            stats->inc(Counter::kFastPathReads, fastReads);
            stats->inc(Counter::kFastPathWrites, fastWrites);
            stats->inc(Counter::kSlowPathReads, slowReads);
            stats->inc(Counter::kSlowPathWrites, slowWrites);
        }
        fastReads = fastWrites = slowReads = slowWrites = 0;
    }
};

/**
 * Shared session state + the protocol steps that were previously
 * duplicated per algorithm. Held by value inside each HTM-backed
 * session; the session's static dispatch accessors read and write it
 * directly.
 */
struct SessionCore
{
    HtmEngine &eng;
    TmDomain &domain; //!< Coordination domain this session commits into.
    TmGlobals &g;     //!< Alias for domain.globals (the hot-path handle).
    HtmTxn &htm;
    ThreadStats *stats;
    const RetryPolicy &policy;
    AdaptiveRetryBudget retryBudget;
    ContentionManager cm;
    unsigned penalty; //!< Simulated per-access instrumentation cost.

    ExecMode mode = ExecMode::kFast;
    unsigned attempts = 0;     //!< Hardware fast-path tries this txn.
    unsigned slowRestarts = 0; //!< Slow-path restarts this txn.
    bool registered = false;   //!< Counted in TmGlobals::fallbacks.
    bool serialHeld = false;   //!< Holding the serial ticket lock.
    bool irrevocable = false;  //!< Granted irrevocability.
    uint64_t txVersion = 0;    //!< Clock snapshot reads validate at.
    AccessTally tally;

    /**
     * Durable-commit driver, or nullptr when persistence is off
     * (docs/PERSISTENCE.md). Set by the composing session right after
     * construction; when attached, beginFastPath() escalates every
     * attempt to the logged slow path, since a hardware transaction
     * cannot contain the pwb/pfence ordering the durable redo log
     * needs (the Persistent HyTM split).
     */
    TxPersist *persist = nullptr;

    /**
     * Per-thread deadline state, or nullptr until the runtime attaches
     * it (TxSession::attachDeadline). Threaded into every indefinite
     * wait under this session -- serial FIFO, clock spins, contention-
     * manager backoff -- so an armed deadline bounds them all
     * (docs/OVERLOAD.md); grantIrrevocable() suppresses it, because a
     * granted transaction must commit.
     */
    DeadlineState *deadline = nullptr;

  private:
    uint64_t cmSeed_; //!< Kept so resetForTest can reseed the CM.

  public:

    SessionCore(HtmEngine &engine, TmDomain &dom, HtmTxn &htmTxn,
                ThreadStats *threadStats, const RetryPolicy &retryPolicy,
                unsigned accessPenalty, uint64_t cmSeed)
        : eng(engine), domain(dom), g(dom.globals), htm(htmTxn),
          stats(threadStats), policy(retryPolicy),
          retryBudget(retryPolicy),
          cm(&dom.globals, cmSeed), penalty(accessPenalty),
          cmSeed_(cmSeed)
    {}

    /**
     * Restore the exact post-construction state (test isolation: the
     * interleaving explorer resets sessions between runs so identical
     * schedules replay identical histories). The per-transaction
     * fields are covered by finishReset(); this additionally rewinds
     * the cross-transaction adaptive state.
     */
    void
    resetForTest()
    {
        finishReset();
        registered = false;
        serialHeld = false;
        txVersion = 0;
        tally = AccessTally{};
        retryBudget.resetForTest();
        cm.reseedForTest(cmSeed_);
    }

    void
    count(Counter c)
    {
        if (stats != nullptr)
            stats->inc(c);
    }

    // ------------------------------------------------------------------
    // Fast-path begin.

    /**
     * Start a hardware fast-path attempt, honoring the anti-lemming
     * kill switch: returns true with a live hardware transaction
     * subscribed to @p subscribeWord, or false after routing the
     * attempt to @p bypassMode (bypass counted as a fallback).
     */
    /** True when the durable-commit overlay is attached and armed. */
    bool
    persistOn() const
    {
        return persist != nullptr && persist->enabled();
    }

    bool
    beginFastPath(ExecMode bypassMode, const uint64_t *subscribeWord)
    {
        if (persistOn()) {
            // Persistence escalation: route to the algorithm's logged
            // fallback without charging the retry budget or the kill
            // switch -- this is a mode requirement, not contention.
            mode = bypassMode;
            count(Counter::kPersistEscalations);
            count(Counter::kFallbacks);
            return false;
        }
        if (killSwitchBypass(g, policy)) {
            mode = bypassMode;
            count(Counter::kKillSwitchBypasses);
            count(Counter::kFallbacks);
            return false;
        }
        ++attempts;
        count(Counter::kFastPathAttempts);
        htm.begin();
        htmEarlySubscribe(htm, subscribeWord);
        return true;
    }

    // ------------------------------------------------------------------
    // Slow-path registration and the serial lock.

    /** Join the published fallback count (idempotent per txn). */
    void
    registerFallback()
    {
        if (!registered) {
            eng.directFetchAdd(&g.fallbacks, 1);
            registered = true;
        }
    }

    void
    deregisterFallback()
    {
        if (registered) {
            eng.directFetchAdd(&g.fallbacks,
                               static_cast<uint64_t>(-1));
            registered = false;
        }
    }

    /** FIFO-acquire the serial starvation lock (idempotent). */
    void
    acquireSerial()
    {
        if (!serialHeld) {
            serialLockAcquire(eng, g, policy, stats, deadline);
            serialHeld = true;
        }
    }

    void
    releaseSerial()
    {
        if (serialHeld) {
            serialLockRelease(eng, g);
            serialHeld = false;
        }
    }

    /** Stall-aware unlocked read of the shared NOrec clock. */
    uint64_t
    stableClock()
    {
        return stableClockRead(eng, g, policy, stats, deadline);
    }

    // ------------------------------------------------------------------
    // NOrec-family fast-path commit (paper Algorithm 1 / Section 2.3).

    /**
     * Commit the hardware fast path: read-only commits are free; a
     * writer commits under htmWriterCommitCheck (no software writeback
     * in flight; the clock bumped iff a slow path is live to see it).
     */
    void
    fastCommitNOrec()
    {
        if (htm.isReadOnly()) {
            htm.commit();
            count(Counter::kReadOnlyCommits);
            return;
        }
        htmWriterCommitCheck(htm, g);
        htm.commit();
    }

    // ------------------------------------------------------------------
    // Hardware-abort disposition.

    /**
     * The fast path needs irrevocability (or another fallback-only
     * service): route to @p fallbackMode with no budget, kill-switch,
     * or contention-manager charge -- the abort is a mode-change
     * request, not evidence of contention.
     */
    void
    fallbackUncharged(ExecMode fallbackMode)
    {
        mode = fallbackMode;
        count(Counter::kFallbacks);
    }

    /**
     * Rule on a fast-path hardware abort (after htm.cancel()): true
     * means retry in hardware (contention-manager wait applied); false
     * means the budget is burned or the abort non-retryable -- the
     * session is switched to @p fallbackMode and the fallback counted.
     */
    bool
    htmAbortFast(const HtmAbort &abort, ExecMode fallbackMode)
    {
        if (!abort.retryOk)
            killSwitchOnHardwareFailure(g, policy, stats);
        if (abort.retryOk && attempts < retryBudget.budget()) {
            cm.onWait(waitCauseOf(abort), deadline);
            return true;
        }
        retryBudget.onFallback(attempts);
        mode = fallbackMode;
        count(Counter::kFallbacks);
        return false;
    }

    /**
     * Software-phase restart bookkeeping: count it, escalate a
     * persistently restarting slow path to the serial lock, and apply
     * the restart backoff.
     */
    void
    restartEscalate()
    {
        irrevocable = false;
        count(Counter::kSlowPathRestarts);
        if (++slowRestarts >= policy.maxSlowPathRestarts &&
            mode == ExecMode::kSlow) {
            mode = ExecMode::kSerial;
        }
        cm.onWait(WaitCause::kRestart, deadline);
    }

    // ------------------------------------------------------------------
    // Irrevocability grant barrier (docs/LIFECYCLE.md).

    /**
     * Enter the grant barrier from a software phase: serialize via the
     * FIFO ticket lock (so at most one irrevocable transaction runs)
     * and give the fault injector its pre-grant window. May unwind
     * with TxRestart; the ticket is retained across pre-grant restarts
     * (serialHeld stays true) exactly as the lifecycle contract
     * requires.
     */
    void
    grantBarrierEnter(bool switchToSerialMode = true)
    {
        if (switchToSerialMode)
            mode = ExecMode::kSerial;
        acquireSerial();
        sessionFaultPoint(htm, FaultSite::kIrrevocableUpgrade);
    }

    /** The algorithm-specific validation passed: grant is final. */
    void
    grantIrrevocable()
    {
        irrevocable = true;
        // Irrevocability outranks the deadline: the transaction is now
        // guaranteed to commit, so no later poll may unwind it.
        if (deadline != nullptr)
            deadline->suppress();
        count(Counter::kIrrevocableUpgrades);
    }

    // ------------------------------------------------------------------
    // End-of-transaction tails.

    /**
     * Commit-side tail shared by every HTM-backed session: adaptive
     * budget and kill-switch credit, the per-mode commit counter
     * (@p slowCommitCounter names the algorithm's kSlow bucket), the
     * fallback/serial releases, and the access-tally flush. Sessions
     * run their algorithm-specific post-commit hooks after this, then
     * call finishReset().
     */
    void
    completeTail(Counter slowCommitCounter)
    {
        if (mode == ExecMode::kFast) {
            retryBudget.onFastCommit(attempts);
            killSwitchOnHardwareCommit(g);
        }
        killSwitchOnComplete(g, &policy);
        switch (mode) {
          case ExecMode::kFast:
            count(Counter::kCommitsFastPath);
            break;
          case ExecMode::kSlow:
            count(slowCommitCounter);
            break;
          case ExecMode::kSerial:
            count(Counter::kCommitsSerialPath);
            break;
        }
        deregisterFallback();
        releaseSerial();
        tally.flush(stats);
    }

    /** Reset the shared per-transaction state for the next txn. */
    void
    finishReset()
    {
        irrevocable = false;
        mode = ExecMode::kFast;
        attempts = 0;
        slowRestarts = 0;
        cm.reset();
    }

    /**
     * User-exception unwind tail: the transaction is over (no retry),
     * so release everything and reset, but leave the contention
     * manager's curves alone -- an unwound transaction is not evidence
     * that contention cleared.
     */
    void
    unwindTail()
    {
        // The reverted bug (tests only): the deadline/user-abort unwind
        // forgot to drop the published fallback registration, leaving a
        // permanent +1 on TmGlobals::fallbacks that makes every later
        // fast-path writer validate and bump the clock forever.
        if (!policy.revertDeadlineUnwindFix)
            deregisterFallback();
        releaseSerial();
        tally.flush(stats);
        irrevocable = false;
        mode = ExecMode::kFast;
        attempts = 0;
        slowRestarts = 0;
    }
};

} // namespace rhtm

#endif // RHTM_CORE_ENGINE_SESSION_CORE_H
