#include "src/stm/norec.h"

#include <cassert>

#include "src/core/engine/deadline.h"

namespace rhtm
{

namespace
{

/** Pure-STM restart storms are rare; serialize after this many. */
constexpr unsigned kSerializeAfterRestarts = 64;

/**
 * One wait step while the clock is someone else's. Deadline-safe:
 * nothing is held, so the poll may unwind freely.
 */
void
pollAndPause(DeadlineState *deadline, Backoff &backoff)
{
    if (deadline != nullptr)
        deadline->poll();
    backoff.pause();
}

/** Spin until the clock is unlocked; returns the stable value. */
uint64_t
stableClock(const RawMem &mem, const uint64_t *clock,
            DeadlineState *deadline, Backoff &backoff)
{
    for (;;) {
        uint64_t v = mem.load(clock);
        if (!clockIsLocked(v))
            return v;
        pollAndPause(deadline, backoff);
    }
}

} // namespace

//
// Eager NOrec
//

NOrecEagerSession::NOrecEagerSession(TmDomain &domain,
                                     ThreadStats *stats,
                                     unsigned access_penalty,
                                     TxPersist *persist,
                                     const RetryPolicy *policy)
    : g_(domain.globals), stats_(stats), penalty_(access_penalty),
      seqlock_(mem_, &domain.globals.clock), persist_(persist),
      policy_(policy)
{}

void
NOrecEagerSession::begin(TxnHint hint)
{
    (void)hint;
    undo_.clear();
    readLog_.clear();
    writeFilter_.clear();
    if (policy_ != nullptr && policy_->filterSaturateForTest) {
        readLog_.saturateFilterForTest();
        writeFilter_.saturate();
    }
    if (serialized_) {
        // Progress escape hatch: a transaction that keeps restarting
        // takes the writer lock up front and runs exclusively.
        txVersion_ = seqlock_.acquireBlocking(
            [this] {
                return stableClock(mem_, &g_.clock, deadline_, backoff_);
            },
            [this] { pollAndPause(deadline_, backoff_); });
        writeDetected_ = true;
        bindDispatch(kWriterDispatch, this);
        return;
    }
    writeDetected_ = false;
    txVersion_ = stableClock(mem_, &g_.clock, deadline_, backoff_);
    bindDispatch(kReadPhaseDispatch, this);
}

uint64_t
NOrecEagerSession::readPhaseRead(void *self, const uint64_t *addr)
{
    auto *s = static_cast<NOrecEagerSession *>(self);
    simDelay(s->penalty_);
    ++s->tally_.slowReads;
    return s->readLog_.read(s->mem_, addr, &s->g_.clock, s->txVersion_,
                            [s] { return s->extend(); });
}

uint64_t
NOrecEagerSession::extend()
{
    if (policy_ != nullptr && policy_->revertTsExtensionFix) {
        // BUG (reverted fix, check-matrix leg): value-check against a
        // possibly mid-writeback memory image and adopt a raw --
        // possibly locked -- clock sample. Once txVersion_ equals the
        // locked value, later reads compare equal and sail past
        // validation while the writer is still writing: zombie reads.
        // The correct path below only ever adopts a stable snapshot
        // that held still across the value walk. (Checked before the
        // filter skip, whose stable-clock wait would close the window.)
        if (!readLog_.consistent(mem_))
            restart();
        return mem_.load(&g_.clock);
    }
    uint64_t v = readLog_.extend(
        mem_, g_, txVersion_,
        [this] { return stableClock(mem_, &g_.clock, deadline_, backoff_); },
        stats_);
    if (v != txVersion_ && stats_)
        stats_->inc(Counter::kTsExtensions);
    return v;
}

void
NOrecEagerSession::readPhaseWrite(void *self, uint64_t *addr,
                                  uint64_t value)
{
    auto *s = static_cast<NOrecEagerSession *>(self);
    simDelay(s->penalty_);
    ++s->tally_.slowWrites;
    s->acquireClockLock();
    s->writeDetected_ = true;
    s->bindDispatch(kWriterDispatch, s);
    s->writeFilter_.add(addr);
    s->undo_.push(addr, s->mem_.load(addr));
    if (s->persist_ != nullptr)
        s->persist_->stage(addr, value);
    s->mem_.store(addr, value);
}

uint64_t
NOrecEagerSession::writerRead(void *self, const uint64_t *addr)
{
    auto *s = static_cast<NOrecEagerSession *>(self);
    simDelay(s->penalty_);
    ++s->tally_.slowReads;
    // We hold the clock: no writer can commit, reads are stable.
    return s->mem_.load(addr);
}

void
NOrecEagerSession::writerWrite(void *self, uint64_t *addr,
                               uint64_t value)
{
    auto *s = static_cast<NOrecEagerSession *>(self);
    simDelay(s->penalty_);
    ++s->tally_.slowWrites;
    s->writeFilter_.add(addr);
    s->undo_.push(addr, s->mem_.load(addr));
    if (s->persist_ != nullptr)
        s->persist_->stage(addr, value);
    s->mem_.store(addr, value);
}

void
NOrecEagerSession::acquireClockLock()
{
    // The clock moved between our snapshot and the first write:
    // extend (value-validating the read log) and retry.
    while (!seqlock_.tryAcquireAt(txVersion_))
        txVersion_ = extend();
}

void
NOrecEagerSession::commit()
{
    if (!writeDetected_)
        return; // Read-only: validated by every read.
    // Durable commit: seal while the clock lock still excludes every
    // other writer (sealed set = prefix of commit order), drain the
    // write-behind after the release.
    if (persist_ != nullptr)
        persist_->sealStaged();
    seqlock_.releaseAdvance(txVersion_, g_.filterRing, writeFilter_);
    writeDetected_ = false;
    if (persist_ != nullptr)
        persist_->drainAndMark();
}

void
NOrecEagerSession::becomeIrrevocable()
{
    if (irrevocable_)
        return;
    if (!writeDetected_) {
        // Holding the clock is what makes an eager NOrec writer
        // infallible: no other writer can commit, every read is
        // direct, and commit() is a plain unlock-and-advance. A failed
        // CAS extends the snapshot, and a changed value restarts
        // BEFORE granting (no side effect has run yet).
        acquireClockLock();
        writeDetected_ = true;
        bindDispatch(kWriterDispatch, this);
    }
    irrevocable_ = true;
    // Grant contract: an irrevocable transaction must commit, so the
    // deadline can no longer be honored (docs/OVERLOAD.md).
    if (deadline_ != nullptr)
        deadline_->suppress();
    if (stats_)
        stats_->inc(Counter::kIrrevocableUpgrades);
}

void
NOrecEagerSession::rollbackWriter()
{
    if (persist_ != nullptr)
        persist_->discardStaged();
    if (!writeDetected_)
        return;
    undo_.rollback(mem_);
    // Advance the clock anyway: a concurrent reader may have glimpsed
    // the undone values, and the bump forces it to restart. The
    // published summary covers the undone addresses (they were
    // written, then written back), so a glimpsing reader can never
    // pass the disjointness skip.
    seqlock_.releaseAdvance(txVersion_, g_.filterRing, writeFilter_);
    writeDetected_ = false;
}

void
NOrecEagerSession::restart()
{
    throw TxRestart{};
}

void
NOrecEagerSession::onHtmAbort(const HtmAbort &abort)
{
    (void)abort;
    assert(false && "pure STM cannot see hardware aborts");
}

void
NOrecEagerSession::onRestart()
{
    rollbackWriter();
    irrevocable_ = false;
    if (stats_)
        stats_->inc(Counter::kSlowPathRestarts);
    if (++restarts_ >= kSerializeAfterRestarts)
        serialized_ = true;
    backoff_.pause();
}

void
NOrecEagerSession::onUserAbort()
{
    rollbackWriter();
    // The transaction is over (the exception propagates to the
    // caller): reset the per-transaction escalation state exactly as
    // onComplete() would, so the next transaction does not inherit a
    // stale serialized/restart-count hangover.
    irrevocable_ = false;
    serialized_ = false;
    restarts_ = 0;
    backoff_.reset();
    undo_.clear();
    tally_.flush(stats_);
}

void
NOrecEagerSession::onComplete()
{
    if (stats_)
        stats_->inc(Counter::kCommitsSoftwarePath);
    irrevocable_ = false;
    serialized_ = false;
    restarts_ = 0;
    backoff_.reset();
    undo_.clear();
    tally_.flush(stats_);
}

//
// Lazy NOrec
//

NOrecLazySession::NOrecLazySession(TmDomain &domain,
                                   ThreadStats *stats,
                                   unsigned access_penalty,
                                   TxPersist *persist,
                                   const RetryPolicy *policy)
    : g_(domain.globals), stats_(stats), penalty_(access_penalty),
      seqlock_(mem_, &domain.globals.clock), writes_(12),
      persist_(persist), policy_(policy)
{}

void
NOrecLazySession::begin(TxnHint hint)
{
    (void)hint;
    readLog_.clear();
    writes_.clear();
    clockHeld_ = false;
    if (policy_ != nullptr && policy_->filterSaturateForTest) {
        writes_.saturateFilterForTest();
        readLog_.saturateFilterForTest();
    }
    if (serialized_) {
        txVersion_ = seqlock_.acquireBlocking(
            [this] {
                return stableClock(mem_, &g_.clock, deadline_, backoff_);
            },
            [this] { pollAndPause(deadline_, backoff_); });
        clockHeld_ = true;
        bindDispatch(kPinnedDispatch, this);
        return;
    }
    txVersion_ = stableClock(mem_, &g_.clock, deadline_, backoff_);
    bindDispatch(kSoftDispatch, this);
}

uint64_t
NOrecLazySession::extend()
{
    return readLog_.extend(
        mem_, g_, txVersion_,
        [this] { return stableClock(mem_, &g_.clock, deadline_, backoff_); },
        stats_);
}

uint64_t
NOrecLazySession::softRead(void *self, const uint64_t *addr)
{
    auto *s = static_cast<NOrecLazySession *>(self);
    simDelay(s->penalty_);
    ++s->tally_.slowReads;
    uint64_t buffered;
    if (s->writes_.lookup(addr, buffered))
        return buffered;
    return s->readLog_.read(s->mem_, addr, &s->g_.clock, s->txVersion_,
                            [s] { return s->extend(); });
}

void
NOrecLazySession::softWrite(void *self, uint64_t *addr, uint64_t value)
{
    auto *s = static_cast<NOrecLazySession *>(self);
    simDelay(s->penalty_);
    ++s->tally_.slowWrites;
    s->writes_.putGrowing(addr, value);
}

uint64_t
NOrecLazySession::pinnedRead(void *self, const uint64_t *addr)
{
    auto *s = static_cast<NOrecLazySession *>(self);
    simDelay(s->penalty_);
    ++s->tally_.slowReads;
    uint64_t buffered;
    if (s->writes_.lookup(addr, buffered))
        return buffered;
    // We hold the clock: no writer can commit, reads go direct.
    return s->mem_.load(addr);
}

void
NOrecLazySession::commit()
{
    if (writes_.empty()) {
        if (clockHeld_) { // Serialized but turned out read-only.
            seqlock_.releaseRestore(txVersion_);
            clockHeld_ = false;
        }
        return;
    }
    if (!clockHeld_) {
        txVersion_ = seqlock_.acquireValidating(
            txVersion_, [this] { return extend(); });
        clockHeld_ = true;
    }
    // Stage-at-publish: the lazy write set only becomes the durable
    // redo payload here, once validation has succeeded.
    writes_.forEach([this](uint64_t *addr, uint64_t value) {
        if (persist_ != nullptr)
            persist_->stage(addr, value);
        mem_.store(addr, value);
    });
    if (persist_ != nullptr)
        persist_->sealStaged();
    seqlock_.releaseAdvance(txVersion_, g_.filterRing, writes_.filter());
    clockHeld_ = false;
    if (persist_ != nullptr)
        persist_->drainAndMark();
}

void
NOrecLazySession::becomeIrrevocable()
{
    if (irrevocable_)
        return;
    if (!clockHeld_) {
        // Same commit-time protocol, hoisted to the upgrade point:
        // CAS-lock the clock, revalidating by value on every failure.
        // extend() restarts on a changed value -- always BEFORE the
        // grant, so the re-executed body replays no side effect.
        txVersion_ = seqlock_.acquireValidating(
            txVersion_, [this] { return extend(); });
        clockHeld_ = true;
    }
    // From here on reads go direct (the pinned descriptor), writes
    // stay buffered, and commit() write-back cannot fail.
    irrevocable_ = true;
    // Grant contract: an irrevocable transaction must commit, so the
    // deadline can no longer be honored (docs/OVERLOAD.md).
    if (deadline_ != nullptr)
        deadline_->suppress();
    bindDispatch(kPinnedDispatch, this);
    if (stats_)
        stats_->inc(Counter::kIrrevocableUpgrades);
}

void
NOrecLazySession::onHtmAbort(const HtmAbort &abort)
{
    (void)abort;
    assert(false && "pure STM cannot see hardware aborts");
}

void
NOrecLazySession::onRestart()
{
    if (persist_ != nullptr)
        persist_->discardStaged();
    if (clockHeld_) {
        // Nothing was written back; restore the clock unchanged.
        seqlock_.releaseRestore(txVersion_);
        clockHeld_ = false;
    }
    irrevocable_ = false;
    if (stats_)
        stats_->inc(Counter::kSlowPathRestarts);
    if (++restarts_ >= kSerializeAfterRestarts)
        serialized_ = true;
    backoff_.pause();
}

void
NOrecLazySession::onUserAbort()
{
    if (persist_ != nullptr)
        persist_->discardStaged();
    if (clockHeld_) {
        seqlock_.releaseRestore(txVersion_);
        clockHeld_ = false;
    }
    // The transaction ends here; clear the escalation state like
    // onComplete() so the next transaction starts fresh.
    irrevocable_ = false;
    serialized_ = false;
    restarts_ = 0;
    backoff_.reset();
    tally_.flush(stats_);
}

void
NOrecLazySession::onComplete()
{
    if (stats_)
        stats_->inc(Counter::kCommitsSoftwarePath);
    irrevocable_ = false;
    serialized_ = false;
    restarts_ = 0;
    backoff_.reset();
    tally_.flush(stats_);
}

} // namespace rhtm
