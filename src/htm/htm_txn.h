/**
 * @file
 * Per-thread simulated hardware transaction.
 */

#ifndef RHTM_HTM_HTM_TXN_H
#define RHTM_HTM_HTM_TXN_H

#include <cstdint>
#include <memory>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/htm/abort.h"
#include "src/htm/fixed_table.h"
#include "src/htm/htm_engine.h"
#include "src/stats/stats.h"

namespace rhtm
{

/**
 * A best-effort hardware transaction (simulated RTM).
 *
 * Usage mirrors RTM: begin(), transactional read()/write(), then
 * commit(). Any abort -- conflict, capacity, explicit, or injected --
 * unwinds by throwing HtmAbort (the analogue of control transferring to
 * XBEGIN's fallback path); the object is back in the idle state when
 * the exception is caught. One instance per thread; not reentrant (real
 * RTM flat-nests, and this codebase never nests hardware transactions).
 *
 * Opacity: the read set is consistent at one even publication
 * sequence value (lastSeq_). A read whose trailing sequence check
 * finds that value unmoved costs one sequence load; a read that finds
 * it moved re-validates every logged stripe's stamp inside a stable
 * window and moves the snapshot forward. Either way a body never
 * observes two reads from different memory snapshots, and a foreign
 * publication that wrote a line already read aborts the transaction
 * (kConflict) at its next access or at a writer's commit.
 */
class HtmTxn
{
  public:
    /**
     * @param eng Engine providing global conflict-detection state.
     * @param tid Thread index (drives the capacity-scaling model).
     * @param stats Per-thread counters; may be null.
     * @param rng_seed Seed for the abort-injection generator.
     * @param fault External per-thread fault injector; may be null.
     *        When null and the engine config carries a nonzero
     *        randomAbortProb, an internal injector expressing that
     *        probability is created (legacy-knob compatibility).
     */
    HtmTxn(HtmEngine &eng, unsigned tid, ThreadStats *stats,
           uint64_t rng_seed = 1, FaultInjector *fault = nullptr);

    HtmTxn(const HtmTxn &) = delete;
    HtmTxn &operator=(const HtmTxn &) = delete;

    /** Start a hardware transaction; requires the idle state. */
    void begin();

    /** Transactional load of an 8-byte aligned word. */
    uint64_t read(const uint64_t *addr);

    /** Transactional store of an 8-byte aligned word (buffered). */
    void write(uint64_t *addr, uint64_t value);

    /**
     * Attempt to commit. On success the buffered writes are published
     * atomically; on conflict the transaction aborts (throws).
     */
    void commit();

    // -----------------------------------------------------------------
    // Multi-engine transactions. One hardware transaction whose lines
    // live in several engines (a cross-shard store RMW) runs as one
    // HtmTxn per engine, its parts: each is begun on its own and used
    // through read()/write(), and the parts are always named in one
    // global order (ascending domain id). The two calls below make
    // them one transaction, as one RTM transaction over the lines of
    // every engine would be. An abort thrown by any call on any part
    // ends the whole transaction: the caller cancel()s every part.

    /**
     * Call after each access of a part. Re-validates every part whose
     * engine published since its snapshot, so the body never sees two
     * engines' memory at different instants (opacity across engines),
     * and aborts with kCapacity once the parts' distinct lines
     * together exceed the tightest part's capacity: one transaction's
     * capacity, not one per part.
     */
    static void jointAccessCheck(HtmTxn *const *parts, size_t n);

    /**
     * Commit the parts as one transaction: open every engine's publish
     * window in the given order, validate every part's read log, then
     * publish every part's writes and close the windows, so each
     * engine's readers see all of the writes or none. The parts must
     * be on distinct engines. The commit-time fault sites (kPreCommit,
     * kPublishWindow) fire once, on parts[0]. A failed validation
     * aborts (kConflict, retryable) and resets every part.
     */
    static void commitJoint(HtmTxn *const *parts, size_t n);

    /** Explicitly abort with a user @p code (throws HtmAbort). */
    [[noreturn]] void abortExplicit(uint8_t code = 0);

    /**
     * Explicit abort after a lock-subscription check failed (the lock
     * word read at begin was nonzero). Identical unwind to
     * abortExplicit() but additionally counted per-cause, so fallback
     * composition can distinguish subscription kills from user aborts.
     */
    [[noreturn]] void abortSubscription();

    /**
     * Abort on behalf of the fault injector with a scripted cause
     * (sessions use this for protocol-level sites while a small HTM
     * is active). Counted as both the cause and an injected abort.
     */
    [[noreturn]] void abortInjected(HtmAbortCause cause, bool retry_ok);

    /**
     * Abort because the body called Txn::becomeIrrevocable() while a
     * hardware transaction was live. Irrevocability cannot be granted
     * inside best-effort HTM (the hardware may abort at any time), so
     * the transaction unwinds with kNeedIrrevocable and the session's
     * onHtmAbort() routes the retry loop straight to its
     * serial/software mode without consuming the retry budget.
     */
    [[noreturn]] void abortNeedIrrevocable();

    /** The per-thread fault injector, or null when none is wired. */
    FaultInjector *injector() const { return fault_; }

    /**
     * Abandon the transaction without throwing (used when an exception
     * is already unwinding through the transaction body). Buffered
     * writes are discarded; no abort is counted. No-op when idle.
     */
    void cancel() { resetState(); }

    /** True while a transaction is running. */
    bool active() const { return active_; }

    /** Distinct cache lines read so far. */
    size_t readLines() const { return readLines_.size(); }

    /** Distinct cache lines written so far. */
    size_t writeLines() const { return writeLines_.size(); }

    /** True when no write has been buffered yet. */
    bool isReadOnly() const { return writes_.empty(); }

    /**
     * Reads, over this object's life, that found the engine sequence
     * moved since the snapshot and so re-validated the read log (each
     * other read cost one sequence load). Reset by resetForTest().
     */
    uint64_t revalidations() const { return revalidations_; }

    /**
     * Restore the exact post-construction state: discard any live
     * transaction, undo capacity squeezes, and rewind the internal
     * injector (if this txn owns one; an external injector is reset by
     * its owner). Test isolation only (docs/CHECKING.md). The tracking
     * tables keep the size they grew to: no result depends on it
     * (lookups, forEach's program order and the full-at-maximum point
     * are the same at every size), only the memory footprint does.
     */
    void
    resetForTest()
    {
        resetState();
        effReadCap_ = readCap_;
        effWriteCap_ = writeCap_;
        lastSeq_ = 0;
        revalidations_ = 0;
        if (ownedFault_ != nullptr)
            ownedFault_->resetForTest();
    }

  private:
    /** Abort: reset to idle, count the event, throw HtmAbort. */
    [[noreturn]] void fail(HtmAbortCause cause, bool retry_ok,
                           uint8_t code = 0, bool injected = false);

    /**
     * read()'s path when a publication intervened since lastSeq_: wait
     * for an even sequence, re-validate the read log, load @p addr
     * (none when null; the result is then 0), and adopt the window if
     * it stayed stable.
     */
    uint64_t readAcrossPublication(const uint64_t *addr);

    /**
     * Hit @p site on the injector and act on the scripted fault. Inline
     * because it runs on every simulated-HTM access; a real fault goes
     * out of line to applyFault().
     */
    void
    faultPoint(FaultSite site)
    {
        if (fault_ == nullptr)
            return;
        uint32_t spins = 0;
        const FaultKind kind = fault_->fire(site, &spins);
        if (kind != FaultKind::kNone)
            applyFault(kind, spins);
    }

    /** faultPoint()'s action for a fault other than kNone. */
    void applyFault(FaultKind kind, uint32_t spins);

    /** Reset tracking state to idle. */
    void resetState();

    HtmEngine &eng_;
    ThreadStats *stats_;
    std::unique_ptr<FaultInjector> ownedFault_;
    FaultInjector *fault_;
    size_t readCap_;
    size_t writeCap_;
    size_t effReadCap_;
    size_t effWriteCap_;
    bool active_;
    uint64_t lastSeq_;             //!< Snapshot the read set holds at.
    uint64_t revalidations_ = 0;
    std::vector<uint32_t> readLog_; //!< Stripe of each line read.
    FixedHashSet readLines_;
    WriteBuffer writes_;
    FixedHashSet writeLines_;
};

} // namespace rhtm

#endif // RHTM_HTM_HTM_TXN_H
