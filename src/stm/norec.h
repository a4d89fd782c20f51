/**
 * @file
 * The NOrec STM of Dalessandro, Spear and Scott, in the two flavours
 * the paper evaluates (Section 3.1):
 *
 *  - eager: encounter-time writes. The first write locks the global
 *    clock and subsequent writes go straight to memory.
 *  - lazy: a deferred write set; the clock is held only across the
 *    commit-time write-back.
 *
 * Both read phases keep NOrec's value-based read log: when the clock
 * moves, a reader extends its snapshot by value-validating the log
 * (skipped when the CommitFilterRing proves every intervening commit
 * disjoint) and restarts only if a logged value changed. The paper's
 * eager NOrec restarted on any commit instead; see docs/ALGORITHMS.md.
 *
 * These are the pure-software baselines ("NOrec" in the figures); the
 * hybrid algorithms in src/core implement their own slow paths
 * following the paper's pseudocode.
 *
 * Composition over the shared engine: both flavours use the
 * CommitSeqlock clock protocol over RawMem (no watchdog epoch -- pure
 * STMs predate the stall machinery and stamp nothing) and the
 * ValueReadLog's read/extend path, the eager one the UndoJournal, the
 * lazy one a RedoBuffer. Each phase
 * is a TxDispatch descriptor; there is no SessionCore because the pure
 * STMs have no hardware transaction, mode ladder, or retry budget.
 */

#ifndef RHTM_STM_NOREC_H
#define RHTM_STM_NOREC_H

#include <cstdint>

#include "src/core/engine/commit_seqlock.h"
#include "src/core/engine/journal.h"
#include "src/core/engine/mem_access.h"
#include "src/core/engine/session.h"
#include "src/core/engine/session_core.h"
#include "src/stats/stats.h"
#include "src/util/backoff.h"

namespace rhtm
{

/**
 * Eager (encounter-time-write) NOrec STM session.
 *
 * Divergence note: the paper's eager NOrec keeps no logs at all and
 * restarts its read phase on any commit. This one keeps a value read
 * log and extends across unrelated commits (commit-path front 3), and
 * an undo journal of (addr, old value) pairs, used only to roll back
 * in-place writes when user code throws or calls Txn::retry() after
 * the first write.
 */
class NOrecEagerSession : public TxSession
{
  public:
    /**
     * @param domain Coordination domain (only its clock is used).
     * @param stats Per-thread counters; may be null.
     * @param policy Reverted-fix gates only (the pure STMs take no
     *        retry budget from it); may be null.
     */
    NOrecEagerSession(TmDomain &domain, ThreadStats *stats,
                      unsigned access_penalty = 0,
                      TxPersist *persist = nullptr,
                      const RetryPolicy *policy = nullptr);

    void begin(TxnHint hint) override;
    void commit() override;
    void becomeIrrevocable() override;
    bool isIrrevocable() const override { return irrevocable_; }
    void onHtmAbort(const HtmAbort &abort) override;
    void onRestart() override;
    void onUserAbort() override;
    void onComplete() override;
    const char *name() const override { return "norec"; }

    void
    resetForTest() override
    {
        backoff_.reset();
        tally_ = AccessTally{};
        txVersion_ = 0;
        writeDetected_ = false;
        serialized_ = false;
        irrevocable_ = false;
        restarts_ = 0;
        undo_.clear();
        readLog_.clear();
        writeFilter_.clear();
    }

  private:
    static uint64_t readPhaseRead(void *self, const uint64_t *addr);
    static void readPhaseWrite(void *self, uint64_t *addr,
                               uint64_t value);
    static uint64_t writerRead(void *self, const uint64_t *addr);
    static void writerWrite(void *self, uint64_t *addr, uint64_t value);

    static constexpr TxDispatch kReadPhaseDispatch = {&readPhaseRead,
                                                      &readPhaseWrite};
    static constexpr TxDispatch kWriterDispatch = {&writerRead,
                                                   &writerWrite};

    /**
     * CAS the clock from txVersion_ to its locked form, extending the
     * snapshot on every failure (restarts on a changed value).
     */
    void acquireClockLock();

    /**
     * ValueReadLog::extend, plus the kTsExtensions count and the
     * revertTsExtensionFix check-matrix leg.
     */
    uint64_t extend();

    /** Undo in-place writes and release the clock (if held). */
    void rollbackWriter();

    [[noreturn]] void restart();

    TmGlobals &g_;
    ThreadStats *stats_;
    unsigned penalty_;
    RawMem mem_;
    CommitSeqlock<RawMem> seqlock_;
    Backoff backoff_;
    AccessTally tally_;
    uint64_t txVersion_ = 0;
    bool writeDetected_ = false;
    bool serialized_ = false;
    bool irrevocable_ = false;
    unsigned restarts_ = 0;
    UndoJournal undo_;
    ValueReadLog readLog_;
    //! Write-set summary published to the CommitFilterRing (front 1).
    TxFilter writeFilter_;
    TxPersist *persist_; //!< Durable-commit driver; null = off.
    const RetryPolicy *policy_; //!< Reverted-fix gates; may be null.
};

/**
 * Lazy (commit-time-write) NOrec STM session, per the original NOrec
 * algorithm: value-based read validation with snapshot extension, and
 * a redo write set applied while holding the clock at commit.
 */
class NOrecLazySession : public TxSession
{
  public:
    /** Parameters as for NOrecEagerSession. */
    NOrecLazySession(TmDomain &domain, ThreadStats *stats,
                     unsigned access_penalty = 0,
                     TxPersist *persist = nullptr,
                     const RetryPolicy *policy = nullptr);

    void begin(TxnHint hint) override;
    void commit() override;
    void becomeIrrevocable() override;
    bool isIrrevocable() const override { return irrevocable_; }
    void onHtmAbort(const HtmAbort &abort) override;
    void onRestart() override;
    void onUserAbort() override;
    void onComplete() override;
    const char *name() const override { return "norec-lazy"; }

    void
    resetForTest() override
    {
        backoff_.reset();
        tally_ = AccessTally{};
        txVersion_ = 0;
        serialized_ = false;
        clockHeld_ = false;
        irrevocable_ = false;
        restarts_ = 0;
        readLog_.clear();
        writes_.clear();
    }

  private:
    static uint64_t softRead(void *self, const uint64_t *addr);
    static void softWrite(void *self, uint64_t *addr, uint64_t value);
    static uint64_t pinnedRead(void *self, const uint64_t *addr);

    static constexpr TxDispatch kSoftDispatch = {&softRead, &softWrite};
    static constexpr TxDispatch kPinnedDispatch = {&pinnedRead,
                                                   &softWrite};

    /** ValueReadLog::extend from txVersion_. */
    uint64_t extend();

    TmGlobals &g_;
    ThreadStats *stats_;
    unsigned penalty_;
    RawMem mem_;
    CommitSeqlock<RawMem> seqlock_;
    Backoff backoff_;
    AccessTally tally_;
    uint64_t txVersion_ = 0;
    bool serialized_ = false;
    bool clockHeld_ = false;
    bool irrevocable_ = false;
    unsigned restarts_ = 0;
    ValueReadLog readLog_;
    RedoBuffer writes_;
    TxPersist *persist_; //!< Durable-commit driver; null = off.
    const RetryPolicy *policy_; //!< Test hooks only; may be null.
};

} // namespace rhtm

#endif // RHTM_STM_NOREC_H
