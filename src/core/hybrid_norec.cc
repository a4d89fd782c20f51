#include "src/core/hybrid_norec.h"

#include <cassert>

#include "src/core/engine/fault_points.h"
#include "src/util/backoff.h"

namespace rhtm
{

HybridNOrecSession::HybridNOrecSession(HtmEngine &eng, TmDomain &domain,
                                       HtmTxn &htm, ThreadStats *stats,
                                       const RetryPolicy &policy,
                                       unsigned access_penalty,
                                       uint64_t cm_seed,
                                       TxPersist *persist)
    : core_(eng, domain, htm, stats, policy, access_penalty, cm_seed),
      seqlock_(EngineMem(eng), &domain.globals.clock,
               &domain.globals.watchdog.clockEpoch)
{
    core_.persist = persist;
}

//
// Per-mode accessors
//

uint64_t
HybridNOrecSession::fastRead(void *self, const uint64_t *addr)
{
    auto *s = static_cast<HybridNOrecSession *>(self);
    ++s->core_.tally.fastReads;
    return s->core_.htm.read(addr); // Uninstrumented (simulated) load.
}

void
HybridNOrecSession::fastWrite(void *self, uint64_t *addr, uint64_t value)
{
    auto *s = static_cast<HybridNOrecSession *>(self);
    ++s->core_.tally.fastWrites;
    s->core_.htm.write(addr, value);
}

uint64_t
HybridNOrecSession::readPhaseRead(void *self, const uint64_t *addr)
{
    auto *s = static_cast<HybridNOrecSession *>(self);
    simDelay(s->core_.penalty); // Instrumented access (DESIGN.md).
    ++s->core_.tally.slowReads;
    return s->readLog_.read(EngineMem(s->core_.eng), addr,
                            &s->core_.g.clock, s->core_.txVersion,
                            [s] { return s->extend(); });
}

uint64_t
HybridNOrecSession::extend()
{
    if (core_.policy.revertTsExtensionFix) {
        // BUG (reverted fix, check-matrix leg): value-check against a
        // possibly mid-writeback memory image and adopt a raw --
        // possibly locked -- clock sample; zombie reads follow (see
        // NOrecEagerSession::extend).
        if (!readLog_.consistent(EngineMem(core_.eng)))
            restart();
        return core_.eng.directLoad(&core_.g.clock);
    }
    uint64_t v = readLog_.extend(EngineMem(core_.eng), core_.g,
                                 core_.txVersion,
                                 [this] { return core_.stableClock(); },
                                 core_.stats);
    if (v != core_.txVersion)
        core_.count(Counter::kTsExtensions);
    return v;
}

void
HybridNOrecSession::readPhaseWrite(void *self, uint64_t *addr,
                                   uint64_t value)
{
    auto *s = static_cast<HybridNOrecSession *>(self);
    simDelay(s->core_.penalty);
    ++s->core_.tally.slowWrites;
    s->handleFirstWrite();
    s->inPlaceWrite(addr, value);
}

uint64_t
HybridNOrecSession::writerRead(void *self, const uint64_t *addr)
{
    auto *s = static_cast<HybridNOrecSession *>(self);
    simDelay(s->core_.penalty);
    ++s->core_.tally.slowReads;
    // We hold the clock and the HTM lock: nothing can commit.
    return s->core_.eng.directLoad(addr);
}

void
HybridNOrecSession::writerWrite(void *self, uint64_t *addr,
                                uint64_t value)
{
    auto *s = static_cast<HybridNOrecSession *>(self);
    simDelay(s->core_.penalty);
    ++s->core_.tally.slowWrites;
    s->inPlaceWrite(addr, value);
}

void
HybridNOrecSession::beginSoftware()
{
    sessionFaultPoint(core_.htm, FaultSite::kFallbackStart);
    if (core_.mode == ExecMode::kSerial && !core_.serialHeld) {
        core_.acquireSerial();
        // After serialHeld: an unwinding fault must not leak the lock.
        sessionFaultPoint(core_.htm, FaultSite::kSerialHeld);
    }
    // Register once per transaction, not per attempt: every bump of
    // the fallback counter costs concurrent fast paths a tracked
    // line, so churn is kept minimal.
    core_.registerFallback();
    writeDetected_ = false;
    undo_.clear();
    readLog_.clear();
    writeFilter_.clear();
    if (core_.policy.filterSaturateForTest) {
        readLog_.saturateFilterForTest();
        writeFilter_.saturate();
    }
    // Wait out a mid-flight writer stall-aware instead of restarting:
    // a restart here charges the slow-path budget for another thread's
    // publication window and lemmings everyone into serial mode when
    // that writer stalls.
    core_.txVersion = core_.stableClock();
    bindDispatch(kReadPhaseDispatch, this);
}

void
HybridNOrecSession::begin(TxnHint hint)
{
    (void)hint;
    if (core_.mode == ExecMode::kFast) {
        // Early subscription (the Hybrid NOrec bottleneck): any slow
        // path that raises the HTM lock aborts us from this point on.
        if (core_.beginFastPath(ExecMode::kSlow, &core_.g.htmLock)) {
            bindDispatch(kFastDispatch, this);
            return;
        }
    }
    beginSoftware();
}

void
HybridNOrecSession::handleFirstWrite()
{
    // The clock moved between our snapshot and the first write: extend
    // (value-validating the read log) and retry.
    while (!seqlock_.tryAcquireAt(core_.txVersion))
        core_.txVersion = extend();
    writeDetected_ = true;
    // Eager writes are about to become visible: kill every hardware
    // fast path before the first store (Section 3.1).
    core_.eng.directStore(&core_.g.htmLock, 1);
    htmLockSet_ = true;
    bindDispatch(kWriterDispatch, this);
    // Clock and HTM lock are both held here; a scripted abort
    // exercises their release in rollbackWriter().
    sessionFaultPoint(core_.htm, FaultSite::kPostFirstWrite);
}

void
HybridNOrecSession::inPlaceWrite(uint64_t *addr, uint64_t value)
{
    if (core_.irrevocable)
        sessionFaultPointNoAbort(core_.htm, FaultSite::kSoftwareWrite);
    else
        sessionFaultPoint(core_.htm, FaultSite::kSoftwareWrite);
    writeFilter_.add(addr);
    undo_.push(addr, core_.eng.directLoad(addr));
    if (core_.persistOn())
        core_.persist->stage(addr, value);
    core_.eng.directStore(addr, value);
}

void
HybridNOrecSession::commit()
{
    if (core_.mode == ExecMode::kFast) {
        // Read-only fast paths never signal the slow paths (the GCC
        // static read-only analysis in the paper; here the write
        // buffer tells us exactly); writers check the clock lock and
        // serial lock, then notify the slow paths that memory changed.
        core_.fastCommitNOrec();
        return;
    }
    if (!writeDetected_) {
        core_.count(Counter::kReadOnlyCommits);
        return; // Read-only slow path: validated by every read.
    }
    // Durable commit: seal while the clock and HTM lock still exclude
    // every other committer (sealed set = prefix of commit order).
    if (core_.persistOn())
        core_.persist->sealStaged();
    core_.eng.directStore(&core_.g.htmLock, 0);
    htmLockSet_ = false;
    // Publish the write summary for front 1 -- after the HTM lock
    // drops (the ring is plain metadata, never engine-visible).
    seqlock_.releaseAdvance(core_.txVersion, core_.g.filterRing,
                            writeFilter_);
    writeDetected_ = false;
    // The undo journal is dead once the writes are committed.
    undo_.clear();
    if (core_.persistOn())
        core_.persist->drainAndMark();
}

void
HybridNOrecSession::becomeIrrevocable()
{
    if (core_.irrevocable)
        return;
    if (core_.mode == ExecMode::kFast) {
        // Cannot grant inside best-effort HTM: unwind, and onHtmAbort
        // routes the next attempt straight to serial mode.
        core_.htm.abortNeedIrrevocable();
    }
    if (!writeDetected_) {
        // Read phase: we hold neither the clock nor the HTM lock, so
        // queueing on the serial FIFO is deadlock-free (lock order:
        // serial BEFORE clock, docs/LIFECYCLE.md). The lock serializes
        // concurrent upgraders in ticket order.
        core_.grantBarrierEnter();
        // Lock the clock exactly as a first write would: a failed CAS
        // extends the snapshot, and a changed value restarts BEFORE
        // granting (the serial lock stays held, so the replayed
        // attempt upgrades unopposed).
        handleFirstWrite();
    }
    // Clock and HTM lock held: reads are direct, no one else can
    // commit, and commit() is a plain unlock-advance. Infallible.
    core_.grantIrrevocable();
}

void
HybridNOrecSession::rollbackWriter()
{
    if (core_.persistOn())
        core_.persist->discardStaged();
    if (!writeDetected_)
        return;
    undo_.rollback(EngineMem(core_.eng));
    undo_.clear();
    if (htmLockSet_) {
        core_.eng.directStore(&core_.g.htmLock, 0);
        htmLockSet_ = false;
    }
    // The published summary covers the undone addresses, so a reader
    // that glimpsed them can never pass the disjointness skip.
    seqlock_.releaseAdvance(core_.txVersion, core_.g.filterRing,
                            writeFilter_);
    writeDetected_ = false;
}

void
HybridNOrecSession::restart()
{
    throw TxRestart{};
}

void
HybridNOrecSession::onHtmAbort(const HtmAbort &abort)
{
    assert(core_.mode == ExecMode::kFast);
    // A real abort already reset the hardware transaction; an injected
    // one (tests, policy probes) may not have.
    core_.htm.cancel();
    if (abort.cause == HtmAbortCause::kNeedIrrevocable) {
        // The body asked for irrevocability: no amount of hardware
        // retrying can satisfy it, so skip the budget and go straight
        // to the serial slow path.
        core_.fallbackUncharged(ExecMode::kSerial);
        return;
    }
    // Conflict-style aborts retry in hardware; capacity aborts (and
    // exhausted budgets) go to software at once (Section 3.3).
    core_.htmAbortFast(abort, ExecMode::kSlow);
}

void
HybridNOrecSession::onRestart()
{
    if (core_.mode == ExecMode::kFast) {
        // User retry() inside the hardware fast path.
        core_.htm.cancel();
        core_.cm.onWait(WaitCause::kRestart);
        return;
    }
    rollbackWriter();
    core_.restartEscalate();
}

void
HybridNOrecSession::onUserAbort()
{
    core_.htm.cancel();
    if (core_.mode != ExecMode::kFast)
        rollbackWriter();
    core_.unwindTail();
}

void
HybridNOrecSession::onComplete()
{
    core_.completeTail(Counter::kCommitsSoftwarePath);
    core_.finishReset();
}

} // namespace rhtm
