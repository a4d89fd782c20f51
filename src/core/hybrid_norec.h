/**
 * @file
 * Hybrid NOrec of Dalessandro et al., in the optimized eager form the
 * paper evaluates as "HY-NOrec" (Section 3.1):
 *
 *  - Hardware fast path: subscribes to global_htm_lock at start (the
 *    early subscription RH NOrec removes), runs uninstrumented, and at
 *    commit -- when slow paths exist -- checks the clock lock and
 *    increments the global clock to signal them.
 *  - Software slow path: the eager encounter-time NOrec STM, which on
 *    its first write locks the clock and raises global_htm_lock,
 *    aborting all hardware transactions for its whole write phase
 *    (the source of the false aborts RH NOrec eliminates). Its read
 *    phase value-logs and extends across foreign commits
 *    (ValueReadLog::extend) where the paper's restarts on any commit.
 *
 * The serial starvation lock of Section 3.3 backs a slow path that
 * restarts too often.
 *
 * Composition over the shared engine: SessionCore + CommitSeqlock +
 * UndoJournal; the fast path, the validating software read phase, and
 * the clock-held write phase are three TxDispatch descriptors.
 */

#ifndef RHTM_CORE_HYBRID_NOREC_H
#define RHTM_CORE_HYBRID_NOREC_H

#include <cstdint>

#include "src/core/engine/commit_seqlock.h"
#include "src/core/engine/journal.h"
#include "src/core/engine/mem_access.h"
#include "src/core/engine/session.h"
#include "src/core/engine/session_core.h"
#include "src/htm/htm_txn.h"
#include "src/stats/stats.h"

namespace rhtm
{

/** Per-thread Hybrid NOrec session. */
class HybridNOrecSession : public TxSession
{
  public:
    HybridNOrecSession(HtmEngine &eng, TmDomain &domain, HtmTxn &htm,
                       ThreadStats *stats, const RetryPolicy &policy,
                       unsigned access_penalty = 0,
                       uint64_t cm_seed = 1,
                       TxPersist *persist = nullptr);

    void begin(TxnHint hint) override;
    void commit() override;
    void becomeIrrevocable() override;
    bool isIrrevocable() const override { return core_.irrevocable; }
    void onHtmAbort(const HtmAbort &abort) override;
    void onRestart() override;
    void onUserAbort() override;
    void onComplete() override;
    const char *name() const override { return "hy-norec"; }

    void
    onDeadlineAttached() override
    {
        core_.deadline = deadline_;
    }

    void
    resetForTest() override
    {
        core_.resetForTest();
        writeDetected_ = false;
        htmLockSet_ = false;
        undo_.clear();
        readLog_.clear();
        writeFilter_.clear();
    }

    unsigned
    fastRetryBudgetForTest() const override
    {
        return core_.retryBudget.budget();
    }

    uint32_t
    adaptiveScoreForTest() const override
    {
        return core_.retryBudget.score();
    }

  private:
    static uint64_t fastRead(void *self, const uint64_t *addr);
    static void fastWrite(void *self, uint64_t *addr, uint64_t value);
    static uint64_t readPhaseRead(void *self, const uint64_t *addr);
    static void readPhaseWrite(void *self, uint64_t *addr,
                               uint64_t value);
    static uint64_t writerRead(void *self, const uint64_t *addr);
    static void writerWrite(void *self, uint64_t *addr, uint64_t value);

    static constexpr TxDispatch kFastDispatch = {&fastRead, &fastWrite};
    static constexpr TxDispatch kReadPhaseDispatch = {&readPhaseRead,
                                                      &readPhaseWrite};
    static constexpr TxDispatch kWriterDispatch = {&writerRead,
                                                   &writerWrite};

    /** Begin a software (or serial) slow-path attempt. */
    void beginSoftware();

    /** First slow-path write: lock clock, raise the HTM lock. */
    void handleFirstWrite();

    /**
     * ValueReadLog::extend, plus the kTsExtensions count and the
     * revertTsExtensionFix check-matrix leg.
     */
    uint64_t extend();

    /** Journal-backed in-place write (clock + HTM lock held). */
    void inPlaceWrite(uint64_t *addr, uint64_t value);

    /** Undo slow-path writes and drop both locks. */
    void rollbackWriter();

    [[noreturn]] void restart();

    SessionCore core_;
    CommitSeqlock<EngineMem> seqlock_;

    bool writeDetected_ = false;
    bool htmLockSet_ = false;
    UndoJournal undo_;
    ValueReadLog readLog_;
    //! Write-set summary published to the CommitFilterRing (front 1).
    TxFilter writeFilter_;
};

} // namespace rhtm

#endif // RHTM_CORE_HYBRID_NOREC_H
