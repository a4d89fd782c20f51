#include "src/core/hybrid_norec_lazy.h"

#include <cassert>

#include "src/core/engine/fault_points.h"

namespace rhtm
{

HybridNOrecLazySession::HybridNOrecLazySession(
    HtmEngine &eng, TmDomain &domain, HtmTxn &htm, ThreadStats *stats,
    const RetryPolicy &policy, unsigned access_penalty, uint64_t cm_seed,
    TxPersist *persist)
    : core_(eng, domain, htm, stats, policy, access_penalty, cm_seed),
      seqlock_(EngineMem(eng), &domain.globals.clock,
               &domain.globals.watchdog.clockEpoch),
      writes_(12)
{
    core_.persist = persist;
}

//
// Per-mode accessors
//

uint64_t
HybridNOrecLazySession::fastRead(void *self, const uint64_t *addr)
{
    auto *s = static_cast<HybridNOrecLazySession *>(self);
    ++s->core_.tally.fastReads;
    return s->core_.htm.read(addr);
}

void
HybridNOrecLazySession::fastWrite(void *self, uint64_t *addr,
                                  uint64_t value)
{
    auto *s = static_cast<HybridNOrecLazySession *>(self);
    ++s->core_.tally.fastWrites;
    s->core_.htm.write(addr, value);
}

uint64_t
HybridNOrecLazySession::softRead(void *self, const uint64_t *addr)
{
    auto *s = static_cast<HybridNOrecLazySession *>(self);
    simDelay(s->core_.penalty);
    ++s->core_.tally.slowReads;
    uint64_t buffered;
    if (s->writes_.lookup(addr, buffered))
        return buffered;
    return s->readLog_.read(EngineMem(s->core_.eng), addr,
                            &s->core_.g.clock, s->core_.txVersion,
                            [s] { return s->extend(); });
}

void
HybridNOrecLazySession::softWrite(void *self, uint64_t *addr,
                                  uint64_t value)
{
    auto *s = static_cast<HybridNOrecLazySession *>(self);
    simDelay(s->core_.penalty);
    ++s->core_.tally.slowWrites;
    sessionFaultPoint(s->core_.htm, FaultSite::kSoftwareWrite);
    s->writes_.putGrowing(addr, value);
}

uint64_t
HybridNOrecLazySession::pinnedRead(void *self, const uint64_t *addr)
{
    auto *s = static_cast<HybridNOrecLazySession *>(self);
    simDelay(s->core_.penalty);
    ++s->core_.tally.slowReads;
    uint64_t buffered;
    if (s->writes_.lookup(addr, buffered))
        return buffered;
    // We hold the clock (irrevocable upgrade): no writer can commit,
    // so memory is frozen and reads go straight through.
    return s->core_.eng.directLoad(addr);
}

void
HybridNOrecLazySession::pinnedWrite(void *self, uint64_t *addr,
                                    uint64_t value)
{
    auto *s = static_cast<HybridNOrecLazySession *>(self);
    simDelay(s->core_.penalty);
    ++s->core_.tally.slowWrites;
    sessionFaultPointNoAbort(s->core_.htm, FaultSite::kSoftwareWrite);
    s->writes_.putGrowing(addr, value);
}

void
HybridNOrecLazySession::beginSoftware()
{
    sessionFaultPoint(core_.htm, FaultSite::kFallbackStart);
    if (core_.mode == ExecMode::kSerial && !core_.serialHeld) {
        core_.acquireSerial();
        // After serialHeld: an unwinding fault must not leak the lock.
        sessionFaultPoint(core_.htm, FaultSite::kSerialHeld);
    }
    core_.registerFallback();
    readLog_.clear();
    writes_.clear();
    if (core_.policy.filterSaturateForTest) {
        writes_.saturateFilterForTest();
        readLog_.saturateFilterForTest();
    }
    core_.txVersion = core_.stableClock();
    bindDispatch(kSoftDispatch, this);
}

void
HybridNOrecLazySession::begin(TxnHint hint)
{
    (void)hint;
    if (core_.mode == ExecMode::kFast) {
        if (core_.beginFastPath(ExecMode::kSlow, &core_.g.htmLock)) {
            bindDispatch(kFastDispatch, this);
            return;
        }
    }
    beginSoftware();
}

uint64_t
HybridNOrecLazySession::extend()
{
    return readLog_.extend(EngineMem(core_.eng), core_.g, core_.txVersion,
                           [this] { return core_.stableClock(); },
                           core_.stats);
}

void
HybridNOrecLazySession::commit()
{
    if (core_.mode == ExecMode::kFast) {
        core_.fastCommitNOrec();
        return;
    }
    if (writes_.empty()) {
        if (clockHeld_) {
            // Irrevocable upgrade that turned out read-only: nothing
            // was published, so restore the clock unchanged.
            seqlock_.releaseRestore(core_.txVersion);
            clockHeld_ = false;
        }
        core_.count(Counter::kReadOnlyCommits);
        return;
    }
    if (!clockHeld_) {
        // Acquire the clock (revalidating on contention), then raise
        // the HTM lock only for the short write-back window: this is
        // the lazy design's advantage over the eager one, which holds
        // it from the first write onward. An irrevocable upgrade
        // hoisted this acquisition to the upgrade point, in which case
        // the commit below must not (and cannot) fail.
        core_.txVersion = seqlock_.acquireValidating(
            core_.txVersion, [this] { return extend(); });
        clockHeld_ = true;
    }
    if (core_.irrevocable)
        sessionFaultPointNoAbort(core_.htm, FaultSite::kPostFirstWrite);
    else
        sessionFaultPoint(core_.htm, FaultSite::kPostFirstWrite);
    core_.eng.directStore(&core_.g.htmLock, 1);
    htmLockSet_ = true;
    // The lazy design's publication window: clock and HTM lock held
    // while the write set is flushed. A scripted delay stretches it;
    // an abort exercises releaseCommitLocks() (writes already flushed
    // stay -- the advanced clock forces readers to revalidate).
    if (core_.irrevocable)
        sessionFaultPointNoAbort(core_.htm, FaultSite::kPublishWindow);
    else
        sessionFaultPoint(core_.htm, FaultSite::kPublishWindow);
    writes_.forEach([this](uint64_t *addr, uint64_t value) {
        // Stage-at-publish: the lazy write set becomes the durable
        // redo payload only once validation has succeeded.
        if (core_.persistOn())
            core_.persist->stage(addr, value);
        core_.eng.directStore(addr, value);
    });
    // Durable commit: seal while the clock and HTM lock still exclude
    // every other committer (sealed set = prefix of commit order).
    if (core_.persistOn())
        core_.persist->sealStaged();
    core_.eng.directStore(&core_.g.htmLock, 0);
    htmLockSet_ = false;
    // Publish the write summary for front 1 -- outside the HTM-lock
    // window (the ring is plain metadata, never engine-visible).
    seqlock_.releaseAdvance(core_.txVersion, core_.g.filterRing,
                            writes_.filter());
    clockHeld_ = false;
    if (core_.persistOn())
        core_.persist->drainAndMark();
}

void
HybridNOrecLazySession::becomeIrrevocable()
{
    if (core_.irrevocable)
        return;
    if (core_.mode == ExecMode::kFast) {
        // Cannot grant inside best-effort HTM: unwind, and onHtmAbort
        // routes the next attempt straight to serial mode.
        core_.htm.abortNeedIrrevocable();
    }
    if (!clockHeld_) {
        // Read phase (the lazy design holds no lock before commit):
        // queue on the serial FIFO first -- we hold nothing, so this
        // is deadlock-free (lock order: serial BEFORE clock,
        // docs/LIFECYCLE.md) -- then take the clock the way commit()
        // would, revalidating the read log on contention. Either CAS
        // retry unwinds pre-grant via extend()'s restart, or we end
        // holding the clock with a consistent snapshot.
        core_.grantBarrierEnter();
        core_.txVersion = seqlock_.acquireValidating(
            core_.txVersion, [this] { return extend(); });
        clockHeld_ = true;
    }
    // Clock held: no writer can publish, reads go direct, buffered
    // writes flush unconditionally at commit. Infallible from here.
    core_.grantIrrevocable();
    bindDispatch(kPinnedDispatch, this);
}

void
HybridNOrecLazySession::releaseCommitLocks()
{
    // An unwind inside the publication window may leave some writes
    // flushed in volatile memory but never sealed; discarding the
    // staged payload means recovery drops them all, which is the
    // all-or-nothing durable view of an aborted transaction.
    if (core_.persistOn())
        core_.persist->discardStaged();
    if (htmLockSet_) {
        core_.eng.directStore(&core_.g.htmLock, 0);
        htmLockSet_ = false;
    }
    if (clockHeld_) {
        // Nothing (or everything) was written back before the unwind;
        // advance to force concurrent readers to revalidate.
        seqlock_.releaseAdvance(core_.txVersion);
        clockHeld_ = false;
    }
}

void
HybridNOrecLazySession::onHtmAbort(const HtmAbort &abort)
{
    assert(core_.mode == ExecMode::kFast);
    core_.htm.cancel();
    if (abort.cause == HtmAbortCause::kNeedIrrevocable) {
        // The body asked for irrevocability: hardware retries cannot
        // satisfy it, so skip the budget and go straight to serial.
        core_.fallbackUncharged(ExecMode::kSerial);
        return;
    }
    core_.htmAbortFast(abort, ExecMode::kSlow);
}

void
HybridNOrecLazySession::onRestart()
{
    if (core_.mode == ExecMode::kFast) {
        core_.htm.cancel();
        core_.cm.onWait(WaitCause::kRestart);
        return;
    }
    releaseCommitLocks();
    core_.restartEscalate();
}

void
HybridNOrecLazySession::onUserAbort()
{
    core_.htm.cancel();
    releaseCommitLocks();
    core_.unwindTail();
}

void
HybridNOrecLazySession::onComplete()
{
    core_.completeTail(Counter::kCommitsSoftwarePath);
    core_.finishReset();
}

} // namespace rhtm
