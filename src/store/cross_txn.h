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
 * Families (by the shard's AlgoKind):
 *
 *  - clock/raw (norec, norec-lazy): every native commit locks the
 *    NOrec clock, so a clock-stable sandwich (c1 unlocked, load, c2 ==
 *    c1) yields a committed value. Prepare = CAS the clock locked at
 *    its current value + value-revalidate the read log (the NOrec
 *    commit, via this shard's domain seqlock).
 *  - clock/engine (hy-norec, hy-norec-lazy, rh-norec): same protocol
 *    through HtmEngine direct ops. Hardware fast paths may commit
 *    without moving the clock when no fallback is registered; those
 *    silent commits are atomic (a sandwich load sees pre- or
 *    post-state, never a torn write) and any resulting cross-read
 *    staleness is caught by prepare's value revalidation. Prepare
 *    uses RH NOrec Algorithm 1's own exclusion rather than the HTM
 *    lock: it registers in TmGlobals::fallbacks, then CAS-locks the
 *    clock. With a fallback registered every fast-path writer reads
 *    the clock at commit and aborts while it is locked, so nothing can
 *    commit mid-validation -- yet read-only hardware transactions,
 *    which subscribe only to htmLock, run on untouched. Publication
 *    goes through the commit's JointPublication, so a hardware reader
 *    sees every involved shard's new values or none of them.
 *  - global-lock (lock-elision): there is no clock to validate
 *    against, so the shard is frozen for the whole attempt -- the
 *    global lock is acquired at begin (bounded spin, then restart),
 *    body reads are direct under the held lock, and prepare is a
 *    no-op. Fast paths subscribe the lock word and serial natives
 *    spin on it, so the freeze excludes every native commit.
 *  - tl2: orec-stable sandwich reads (locked or moved orec =>
 *    restart); prepare CAS-locks every read/written orec with a
 *    cross-owner id far above the native tid range, then
 *    value-revalidates. Publication stores values under the held
 *    orecs; release stamps written orecs with a fresh clock version
 *    and restores read-only orecs to the value they were locked at.
 *  - rh-tl2: reads validate orec version <= the attempt's clock
 *    snapshot with an orec-stable sandwich (sound because native
 *    write-back stores the orec before the value); prepare takes the
 *    shard's HTM lock and value-revalidates; publication follows the
 *    native order (orec = wv, then value, clock last).
 *
 * Every prepare-side wait is bounded (spin cap, then fail), so
 * cross-shard committers -- which acquire shards in ascending domain-id
 * order -- can never deadlock against each other or against natives.
 * Repeated failure escalates: the coordinator serializes under a
 * store-level mutex and freezes every involved shard in domain order
 * (blocking acquires of the same words -- for clock/engine, the same
 * registration plus clock lock), after which the body reads directly
 * and publication, through the same joint window, cannot fail. See
 * docs/STORE.md.
 *
 * Not supported inside cross-shard bodies: becomeIrrevocable() (the
 * escalated mode IS the irrevocable analogue) and tx.retry().
 */

#ifndef RHTM_STORE_CROSS_TXN_H
#define RHTM_STORE_CROSS_TXN_H

#include <cstdint>
#include <vector>

#include "src/api/runtime.h"
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

CrossFamily crossFamilyOf(AlgoKind kind);

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
    void releaseAdvance() override;
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
    struct ReadEntry
    {
        const uint64_t *addr;
        uint64_t value;
        uint64_t meta; //!< TL2 orec index / RH-TL2 orec pointer.
    };

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
    void bufferWrite(uint64_t *addr, uint64_t value);
    bool bufferedValue(const uint64_t *addr, uint64_t &out) const;

    [[noreturn]] static void restart() { throw TxRestart{}; }

    bool lockTl2Orec(size_t idx, bool blocking, bool written);
    void releaseTl2Owned(bool publishVersions);
    void freezeBlocking();
    bool lockEngineClock(bool blocking);
    void unlockEngineClock(uint64_t clock);
    bool validateReads() const;

    TmRuntime &rt_;
    ThreadCtx &ctx_;
    HtmEngine &eng_;
    TmGlobals &g_;
    Tl2Globals *tl2_;
    RhTl2Globals *rhTl2_;
    CrossFamily family_;
    unsigned ownerId_;

    std::vector<ReadEntry> reads_;
    std::vector<std::pair<uint64_t *, uint64_t>> writes_;
    std::vector<OwnedOrec> owned_; //!< TL2 orecs this attempt holds.

    uint64_t snapshot_ = 0;  //!< Clock sample (rv / locked-at value).
    bool active_ = false;    //!< Attempt in flight (epoch slot held).
    bool escalated_ = false;
    bool frozen_ = false;    //!< Family freeze held (C always; all
                             //!< families in escalated mode).
    bool clockHeld_ = false; //!< Clock seqlock held (families A/B).
    bool registered_ = false; //!< Counted in fallbacks (family B).
    bool htmLockHeld_ = false; //!< HTM lock held (family E).
    bool tokenHeld_ = false; //!< TL2 irrevocable token (escalated).
};

} // namespace rhtm

#endif // RHTM_STORE_CROSS_TXN_H
