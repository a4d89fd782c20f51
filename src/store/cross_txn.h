/**
 * @file
 * CrossShardPart: one shard's view of a cross-shard transaction.
 *
 * A cross-shard transaction runs one logical body over several
 * TmRuntimes at once. The coordinator (ShardedStore::runCross) drives
 * it in one of two modes, and this class is a TxSession in both, so
 * Txn and the transactional containers work unchanged against it.
 *
 *  - Hardware (family B only, tried first): each part runs on the
 *    worker's HtmTxn for its shard, begun and subscribed to htmLock
 *    as a native fast path is, and the parts commit as one
 *    multi-engine hardware transaction (HtmTxn::commitJoint) after
 *    each writing part passes Algorithm 1's writer check
 *    (htmWriterCommitCheck). Nothing is held while the body runs, so
 *    native commits go on; a conflicting one aborts the attempt.
 *  - Freeze (every family; family B's fallback): the coordinator
 *    freezes every involved shard in ascending domain-id order with
 *    its family's blocking exclusion, runs the body with direct reads
 *    into a per-part RedoBuffer, publishes every part through one
 *    JointPublication, and releases the parts in reverse order. A
 *    frozen shard admits no native commit, so the body needs no read
 *    log and the publication cannot fail.
 *
 * Families (by the shard's AlgoKind), and the freeze each takes:
 *
 *  - clock (A = norec, norec-lazy over RawMem; B = hy-norec,
 *    hy-norec-lazy, rh-norec over EngineMem): the shard's
 *    CommitSeqlock, as RH NOrec's slow path takes it (Algorithm 1).
 *    B passes the watchdog's clock epoch, as the hybrid sessions do,
 *    and registers in TmGlobals::fallbacks before the clock CAS
 *    (dropped after the clock is released): with a fallback
 *    registered every fast-path writer reads the clock at commit and
 *    aborts while it is locked, yet read-only hardware transactions,
 *    which subscribe only to htmLock, run on. Publication goes through
 *    the JointPublication, so a hardware reader sees every involved
 *    shard's new values or none of them. Release advances the clock
 *    if the part wrote, else restores it.
 *  - global-lock (C = lock-elision): the word lock on globalLock. Fast
 *    paths subscribe the lock word and serial natives spin on it.
 *  - tl2 (D): the irrevocability token, which licenses this thread to
 *    wait on orecs; each word's orec is then 2PL-locked when the body
 *    first reads or writes it, with a cross-owner id far above the
 *    native tid range. Release stamps written orecs with a fresh clock
 *    version and restores read-only orecs to the value they were
 *    locked at.
 *  - rh-tl2 (E): the word lock on htmLock (C's routine); publication
 *    follows the native order (orec = wv, then value, clock last).
 *
 * Every wait polls the coordinator's DeadlineState and unwinds with
 * TxnDeadlineExceeded when it expires; release() then drops whatever
 * the part holds. See docs/STORE.md "Freeze order and deadlock
 * freedom".
 *
 * Not supported inside cross-shard bodies: becomeIrrevocable() and
 * tx.retry().
 */

#ifndef RHTM_STORE_CROSS_TXN_H
#define RHTM_STORE_CROSS_TXN_H

#include <cstdint>
#include <vector>

#include "src/api/runtime.h"
#include "src/core/engine/commit_seqlock.h"
#include "src/core/engine/journal.h"
#include "src/core/engine/mem_access.h"
#include "src/htm/htm_txn.h"

namespace rhtm
{

/** Freeze protocol family of a shard's AlgoKind. */
enum class CrossFamily : uint8_t
{
    kClockRaw,    //!< norec, norec-lazy (RawMem clock).
    kClockEngine, //!< hy-norec, hy-norec-lazy, rh-norec.
    kGlobalLock,  //!< lock-elision (globalLock).
    kTl2,         //!< tl2 (token + orec 2PL).
    kRhTl2,       //!< rh-tl2 (htmLock).
};

/**
 * TL2 cross-commit owner ids start here, far above any plausible
 * native tid, so Tl2Globals::ownerOf can never confuse a cross lock
 * with a native thread's eager lock.
 */
constexpr unsigned kCrossOwnerBase = 1u << 20;

class CrossShardPart final : public TxSession
{
  public:
    /**
     * @param rt      The shard's runtime.
     * @param ctx     This worker's ThreadCtx registered on @p rt.
     * @param ownerId Store-wide worker index (lock owner identity).
     */
    CrossShardPart(TmRuntime &rt, ThreadCtx &ctx, unsigned ownerId);

    TmRuntime &runtime() { return rt_; }
    ThreadCtx &threadCtx() { return ctx_; }
    bool wrote() const { return !writes_.empty(); }

    /** This part's hardware transaction (the worker's, on this shard). */
    HtmTxn &htm() { return htm_; }

    /** True when the shard's family tries the hardware mode first. */
    bool hardwareFirst() const
    {
        return family_ == CrossFamily::kClockEngine;
    }

    // -----------------------------------------------------------------
    // Lifecycle, driven by the store's coordinator.

    /**
     * Enter the shard and begin this part of a multi-engine hardware
     * transaction, subscribed to htmLock; @p parts lists every
     * involved part's htm() in domain order, for the joint checks
     * each access makes. Family B only. An HtmAbort from here, the
     * body, commitCheck() or the joint commit ends the attempt, and
     * the coordinator release()s every part.
     */
    void beginHardware(HtmTxn *const *parts, size_t n);

    /** Algorithm 1's writer check, just before the joint commit. */
    void commitCheck();

    /**
     * Enter the shard and take its family's freeze, blocking. The
     * coordinator calls parts in ascending domain order, so the waits
     * cannot deadlock. Every wait, here and in the body's TL2 orec
     * locks, polls @p deadline and throws TxnDeadlineExceeded once it
     * expires.
     */
    void freeze(DeadlineState &deadline);

    /** Write back the buffered writes; engine-visible stores go
     *  through @p window so every involved shard publishes at once. */
    void publish(JointPublication &window);

    /**
     * Drop whatever the part holds (a live hardware transaction is
     * cancelled) and leave the shard; a no-op on a part that was never
     * begun or frozen. @p published: the writes went out, so clocks
     * and written orecs advance; otherwise they are restored. Called
     * in descending domain order.
     */
    void release(bool published);

    // -----------------------------------------------------------------
    // TxSession. The coordinator, not the session, owns begin/commit;
    // these exist so Txn and the transactional containers bind.

    void begin(TxnHint hint) override { (void)hint; }
    void commit() override {}
    void becomeIrrevocable() override;
    bool isIrrevocable() const override { return false; }
    void onHtmAbort(const HtmAbort &abort) override { (void)abort; }
    void onRestart() override {}
    void onUserAbort() override { release(/*published=*/false); }
    void onComplete() override {}
    const char *name() const override { return "cross-shard"; }

  private:
    struct OwnedOrec
    {
        size_t idx;
        uint64_t oldValue;
        bool written;
    };

    static uint64_t readDispatchFn(void *self, const uint64_t *addr);
    static void writeDispatchFn(void *self, uint64_t *addr,
                                uint64_t value);
    static const TxDispatch kDispatch;
    static uint64_t htmReadFn(void *self, const uint64_t *addr);
    static void htmWriteFn(void *self, uint64_t *addr, uint64_t value);
    static const TxDispatch kHtmDispatch;

    void waitSpin(unsigned iter);
    template <typename Mem>
    void lockClock(const Mem &mem, CommitSeqlock<Mem> &seqlock);
    template <typename Mem>
    void unlockClock(const Mem &mem, CommitSeqlock<Mem> &seqlock,
                     bool advance);
    void lockWord(uint64_t *word);
    void unlockWord();
    void lockToken();
    void releaseToken();
    void lockTl2Orec(const uint64_t *addr, bool written);
    void releaseTl2Owned(bool publishVersions);

    TmRuntime &rt_;
    ThreadCtx &ctx_;
    HtmEngine &eng_;
    TmGlobals &g_;
    HtmTxn &htm_;
    Tl2Globals *tl2_;
    RhTl2Globals *rhTl2_;
    CrossFamily family_;
    unsigned ownerId_;

    RawMem raw_;
    EngineMem engine_;
    CommitSeqlock<RawMem> rawClock_;       //!< Family A.
    CommitSeqlock<EngineMem> engineClock_; //!< Family B.

    RedoBuffer writes_;
    std::vector<OwnedOrec> owned_; //!< TL2 orecs this transaction holds.
    HtmTxn *const *jointParts_ = nullptr; //!< Hardware mode's parts.
    size_t jointCount_ = 0;

    DeadlineState *deadline_ = nullptr; //!< Polled by every wait.
    uint64_t snapshot_ = 0;  //!< Clock value the seqlock was taken at.
    uint64_t *heldWord_ = nullptr; //!< Word lock held (C, E).
    bool active_ = false;    //!< Begun or frozen (epoch slot held).
    bool clockHeld_ = false; //!< Clock seqlock held (families A/B).
    bool registered_ = false; //!< Counted in fallbacks (family B).
    bool tokenHeld_ = false; //!< TL2 irrevocability token held.
};

} // namespace rhtm

#endif // RHTM_STORE_CROSS_TXN_H
