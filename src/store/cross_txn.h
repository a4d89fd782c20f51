/**
 * @file
 * CrossShardPart: one shard's view of a cross-shard transaction.
 *
 * A cross-shard transaction runs one logical body over several
 * TmRuntimes at once. Per involved shard it keeps a value read log and
 * a redo write buffer, reads committed state with the shard family's
 * consistency protocol, and commits through the engine's ordered
 * two-phase MultiDomainCommit (prepare = lock + revalidate, publish,
 * release in reverse). This class is both sides of that coin: a
 * TxSession (so Txn and the transactional containers work unchanged
 * against it) and a DomainCommitPart (so multiDomainCommit() can drive
 * it).
 *
 * Families (by the shard's AlgoKind), and the engine object each runs
 * its protocol over:
 *
 *  - clock (A = norec, norec-lazy over RawMem; B = hy-norec,
 *    hy-norec-lazy, rh-norec over EngineMem): RH NOrec's slow-path
 *    commit (Algorithm 1) on the shard's CommitSeqlock. Reads are a
 *    clock-stable sandwich (c1 unlocked, load, c2 == c1) logged in a
 *    ValueReadLog; prepare locks the clock at its current value and
 *    checks the log with consistent(); release advances the clock if
 *    the part wrote, else restores it. B passes the watchdog's clock
 *    epoch, as the hybrid sessions do, and registers in
 *    TmGlobals::fallbacks before the clock CAS (dropped after the
 *    clock is released): with a fallback registered every fast-path
 *    writer reads the clock at commit and aborts while it is locked,
 *    yet read-only hardware transactions, which subscribe only to
 *    htmLock, run on. Hardware fast paths may commit without moving
 *    the clock when no fallback is registered; those silent commits
 *    are atomic, and any resulting cross-read staleness is caught by
 *    prepare's value revalidation. Publication goes through the
 *    commit's JointPublication, so a hardware reader sees every
 *    involved shard's new values or none of them.
 *  - global-lock (C = lock-elision): there is no clock to validate
 *    against, so the shard is frozen for the whole attempt -- the
 *    global lock word is taken at begin (bounded, then restart), body
 *    reads are direct under the held lock, and prepare is a no-op.
 *    Fast paths subscribe the lock word and serial natives spin on
 *    it, so the freeze excludes every native commit.
 *  - tl2 (D): orec-stable sandwich reads (locked or moved orec =>
 *    restart); prepare CAS-locks every read/written orec with a
 *    cross-owner id far above the native tid range, then
 *    value-revalidates. Publication stores values under the held
 *    orecs; release stamps written orecs with a fresh clock version
 *    and restores read-only orecs to the value they were locked at.
 *  - rh-tl2 (E): reads validate orec version <= the attempt's clock
 *    snapshot with an orec-stable sandwich (sound because native
 *    write-back stores the orec before the value); prepare takes the
 *    shard's HTM lock word (the same word lock as C's global lock)
 *    and value-revalidates; publication follows the native order
 *    (orec = wv, then value, clock last).
 *
 * Writes are buffered in a RedoBuffer. Each family has one lock
 * routine, bounded in prepare (spin cap, then fail) and blocking in
 * the escalated freeze, so cross-shard committers -- which acquire
 * shards in ascending domain-id order -- can never deadlock against
 * each other or against natives. Repeated failure escalates: the
 * coordinator serializes under a store-level mutex and freezes every
 * involved shard in domain order with those blocking acquires (TL2
 * takes its irrevocability token instead), after which the body reads
 * directly and publication, through the same joint window, cannot
 * fail. See docs/STORE.md.
 *
 * Not supported inside cross-shard bodies: becomeIrrevocable() (the
 * escalated mode IS the irrevocable analogue) and tx.retry().
 */

#ifndef RHTM_STORE_CROSS_TXN_H
#define RHTM_STORE_CROSS_TXN_H

#include <cstdint>
#include <vector>

#include "src/api/runtime.h"
#include "src/core/engine/commit_seqlock.h"
#include "src/core/engine/journal.h"
#include "src/core/engine/mem_access.h"
#include "src/core/engine/multi_domain_commit.h"

namespace rhtm
{

/** Read/validate protocol family of a shard's AlgoKind. */
enum class CrossFamily : uint8_t
{
    kClockRaw,   //!< norec, norec-lazy (RawMem clock sandwich).
    kClockEngine, //!< hy-norec, hy-norec-lazy, rh-norec.
    kGlobalLock, //!< lock-elision (freeze-at-begin).
    kTl2,        //!< tl2 (orec locks).
    kRhTl2,      //!< rh-tl2 (orec versions + HTM lock).
};

/**
 * TL2 cross-commit owner ids start here, far above any plausible
 * native tid, so Tl2Globals::ownerOf can never confuse a cross lock
 * with a native thread's eager lock.
 */
constexpr unsigned kCrossOwnerBase = 1u << 20;

class CrossShardPart final : public TxSession, public DomainCommitPart
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

    // -----------------------------------------------------------------
    // Attempt lifecycle (driven by the store's cross-txn coordinator).

    /**
     * Start one attempt. Optimistic mode samples the family's snapshot
     * (and freezes a global-lock shard, bounded -- may throw
     * TxRestart); escalated mode takes the family's freeze with
     * blocking waits (coordinator holds the store escalation mutex and
     * calls parts in ascending domain order, so the blocking is
     * deadlock-free).
     */
    void beginAttempt(bool escalated);

    /** Abort the attempt: drop any held freeze/locks, clear buffers. */
    void rollbackAttempt();

    /** Post-commit cleanup (buffers only; locks already released). */
    void finishCommitted();

    /** Escalated-mode release, called in descending domain order. */
    void releaseEscalated();

    // -----------------------------------------------------------------
    // DomainCommitPart (optimistic two-phase commit).

    uint64_t domainId() const override { return rt_.domain().id(); }
    bool prepare() override;
    void publish(JointPublication &window) override;
    void releaseAdvance() override { unlockShard(/*published=*/true); }
    void releaseRestore() override;

    // -----------------------------------------------------------------
    // TxSession. The coordinator, not the session, owns begin/commit;
    // these exist so Txn and the transactional containers bind.

    void begin(TxnHint hint) override { (void)hint; }
    void commit() override {}
    void becomeIrrevocable() override;
    bool isIrrevocable() const override { return escalated_; }
    void onHtmAbort(const HtmAbort &abort) override { (void)abort; }
    void onRestart() override {}
    void onUserAbort() override { rollbackAttempt(); }
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

    uint64_t readWord(const uint64_t *addr);
    uint64_t readEscalated(const uint64_t *addr);
    template <typename Mem>
    uint64_t clockRead(const Mem &mem, const uint64_t *addr);

    [[noreturn]] static void restart() { throw TxRestart{}; }

    bool lockShard(bool blocking);
    void unlockShard(bool published);
    template <typename Mem>
    bool lockClock(const Mem &mem, CommitSeqlock<Mem> &seqlock,
                   bool blocking);
    template <typename Mem>
    void unlockClock(const Mem &mem, CommitSeqlock<Mem> &seqlock,
                     bool advance);
    bool lockWord(uint64_t *word, bool blocking);
    void unlockWord();
    bool lockTl2Orec(size_t idx, bool blocking, bool written);
    void releaseTl2Owned(bool publishVersions);
    void freezeBlocking();
    void releaseToken();

    TmRuntime &rt_;
    ThreadCtx &ctx_;
    HtmEngine &eng_;
    TmGlobals &g_;
    Tl2Globals *tl2_;
    RhTl2Globals *rhTl2_;
    CrossFamily family_;
    unsigned ownerId_;

    RawMem raw_;
    EngineMem engine_;
    CommitSeqlock<RawMem> rawClock_;       //!< Family A.
    CommitSeqlock<EngineMem> engineClock_; //!< Family B.

    ValueReadLog reads_;
    RedoBuffer writes_;
    std::vector<OwnedOrec> owned_; //!< TL2 orecs this attempt holds.

    uint64_t snapshot_ = 0;  //!< Clock sample (rv / locked-at value).
    uint64_t *heldWord_ = nullptr; //!< Word lock held (C, E).
    bool active_ = false;    //!< Attempt in flight (epoch slot held).
    bool escalated_ = false;
    bool clockHeld_ = false; //!< Clock seqlock held (families A/B).
    bool registered_ = false; //!< Counted in fallbacks (family B).
    bool tokenHeld_ = false; //!< TL2 irrevocable token (escalated).
};

} // namespace rhtm

#endif // RHTM_STORE_CROSS_TXN_H
