#include "src/store/cross_txn.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "src/core/engine/globals.h"
#include "src/core/engine/mem_access.h"

namespace rhtm
{

namespace
{

/** Sandwich-read retries before the attempt restarts. */
constexpr unsigned kReadSpins = 128;

/** Prepare-side lock-acquisition spins before prepare() fails. */
constexpr unsigned kPrepareSpins = 256;

/** Yield cadence inside bounded and blocking waits. */
constexpr unsigned kYieldEvery = 32;

void
spinPause(unsigned iter)
{
    if (iter % kYieldEvery == kYieldEvery - 1)
        std::this_thread::yield();
}

} // namespace

CrossFamily
crossFamilyOf(AlgoKind kind)
{
    switch (kind) {
    case AlgoKind::kNOrec:
    case AlgoKind::kNOrecLazy:
        return CrossFamily::kClockRaw;
    case AlgoKind::kHybridNOrec:
    case AlgoKind::kHybridNOrecLazy:
    case AlgoKind::kRhNOrec:
        return CrossFamily::kClockEngine;
    case AlgoKind::kLockElision:
        return CrossFamily::kGlobalLock;
    case AlgoKind::kTl2:
        return CrossFamily::kTl2;
    case AlgoKind::kRhTl2:
        return CrossFamily::kRhTl2;
    }
    std::abort();
}

const TxDispatch CrossShardPart::kDispatch = {
    &CrossShardPart::readDispatchFn, &CrossShardPart::writeDispatchFn};

CrossShardPart::CrossShardPart(TmRuntime &rt, ThreadCtx &ctx,
                               unsigned ownerId)
    : rt_(rt), ctx_(ctx), eng_(rt.engine()), g_(rt.globals()),
      tl2_(rt.tl2Globals()), rhTl2_(rt.rhTl2Globals()),
      family_(crossFamilyOf(rt.kind())), ownerId_(ownerId)
{
    bindDispatch(kDispatch, this);
}

uint64_t
CrossShardPart::readDispatchFn(void *self, const uint64_t *addr)
{
    auto *p = static_cast<CrossShardPart *>(self);
    uint64_t buffered;
    if (p->bufferedValue(addr, buffered))
        return buffered;
    return p->escalated_ ? p->readEscalated(addr) : p->readWord(addr);
}

void
CrossShardPart::writeDispatchFn(void *self, uint64_t *addr,
                                uint64_t value)
{
    static_cast<CrossShardPart *>(self)->bufferWrite(addr, value);
}

bool
CrossShardPart::bufferedValue(const uint64_t *addr, uint64_t &out) const
{
    // Linear scan, newest-first so a rewrite of the same word wins.
    for (auto it = writes_.rbegin(); it != writes_.rend(); ++it) {
        if (it->first == addr) {
            out = it->second;
            return true;
        }
    }
    return false;
}

void
CrossShardPart::bufferWrite(uint64_t *addr, uint64_t value)
{
    for (auto &w : writes_) {
        if (w.first == addr) {
            w.second = value;
            return;
        }
    }
    writes_.emplace_back(addr, value);
}

uint64_t
CrossShardPart::readWord(const uint64_t *addr)
{
    RawMem raw;
    switch (family_) {
    case CrossFamily::kClockRaw:
        // NOrec clock sandwich: every native commit moves the clock,
        // so a stable unlocked pair brackets a committed value.
        for (unsigned i = 0; i < kReadSpins; ++i) {
            uint64_t c1 = raw.load(&g_.clock);
            if (clockIsLocked(c1)) {
                spinPause(i);
                continue;
            }
            uint64_t v = raw.load(addr);
            if (raw.load(&g_.clock) == c1) {
                reads_.push_back({addr, v, 0});
                return v;
            }
            spinPause(i);
        }
        restart();
    case CrossFamily::kClockEngine:
        // Same sandwich through the engine. Silent fallback-free HTM
        // commits can slip between the clock reads, but each such
        // commit is atomic, so v is still some committed value; the
        // cross-snapshot consistency gap is closed by prepare()'s
        // value revalidation on the registered, clock-locked shard.
        for (unsigned i = 0; i < kReadSpins; ++i) {
            uint64_t c1 = eng_.directLoad(&g_.clock);
            if (clockIsLocked(c1)) {
                spinPause(i);
                continue;
            }
            uint64_t v = eng_.directLoad(addr);
            if (eng_.directLoad(&g_.clock) == c1) {
                reads_.push_back({addr, v, 0});
                return v;
            }
            spinPause(i);
        }
        restart();
    case CrossFamily::kGlobalLock:
        // Shard frozen since beginAttempt: direct reads, no log.
        return eng_.directLoad(addr);
    case CrossFamily::kTl2: {
        // Orec-stable sandwich. An unlocked, unmoved orec brackets a
        // committed in-place value (eager natives only dirty a word
        // while holding its orec).
        size_t idx = tl2_->orecOf(addr);
        for (unsigned i = 0; i < kReadSpins; ++i) {
            uint64_t o1 =
                tl2_->orec(idx).load(std::memory_order_seq_cst);
            if (Tl2Globals::isLocked(o1)) {
                spinPause(i);
                continue;
            }
            uint64_t v = raw.load(addr);
            if (tl2_->orec(idx).load(std::memory_order_seq_cst) == o1) {
                reads_.push_back({addr, v, idx});
                return v;
            }
            spinPause(i);
        }
        restart();
    }
    case CrossFamily::kRhTl2: {
        // TL2-style versioned read against the attempt's rv. Sound
        // against mid-writeback natives because native write-back
        // stamps the orec BEFORE the value: a torn value implies a
        // moved (or too-new) orec.
        uint64_t *orec = rhTl2_->orecOf(addr);
        for (unsigned i = 0; i < kReadSpins; ++i) {
            uint64_t o1 = eng_.directLoad(orec);
            if (o1 > snapshot_)
                restart();
            uint64_t v = eng_.directLoad(addr);
            if (eng_.directLoad(orec) == o1) {
                reads_.push_back(
                    {addr, v, reinterpret_cast<uint64_t>(orec)});
                return v;
            }
            spinPause(i);
        }
        restart();
    }
    }
    std::abort();
}

uint64_t
CrossShardPart::readEscalated(const uint64_t *addr)
{
    // The shard is frozen (family freeze held): no native commit can
    // race, so direct loads observe committed state. TL2 is the
    // exception -- freezing TL2 means holding the irrevocability token,
    // and committed state is only guaranteed under the word's orec, so
    // reads lock encounter-time (blocking 2PL; safe because only the
    // token holder may block on orecs).
    if (family_ == CrossFamily::kTl2) {
        RawMem raw;
        lockTl2Orec(tl2_->orecOf(addr), /*blocking=*/true,
                    /*written=*/false);
        return raw.load(addr);
    }
    if (family_ == CrossFamily::kClockRaw) {
        RawMem raw;
        return raw.load(addr);
    }
    return eng_.directLoad(addr);
}

bool
CrossShardPart::lockTl2Orec(size_t idx, bool blocking, bool written)
{
    for (auto &o : owned_) {
        if (o.idx == idx) {
            o.written = o.written || written;
            return true;
        }
    }
    const uint64_t mine = Tl2Globals::lockFor(kCrossOwnerBase + ownerId_);
    for (unsigned i = 0;; ++i) {
        uint64_t cur = tl2_->orec(idx).load(std::memory_order_seq_cst);
        if (!Tl2Globals::isLocked(cur)) {
            uint64_t expected = cur;
            if (tl2_->orec(idx).compare_exchange_strong(
                    expected, mine, std::memory_order_seq_cst)) {
                owned_.push_back({idx, cur, written});
                return true;
            }
        }
        if (!blocking && i >= kPrepareSpins)
            return false;
        spinPause(i);
    }
}

void
CrossShardPart::releaseTl2Owned(bool publishVersions)
{
    if (owned_.empty())
        return;
    uint64_t wv = 0;
    if (publishVersions) {
        bool anyWritten = false;
        for (const auto &o : owned_)
            anyWritten = anyWritten || o.written;
        if (anyWritten)
            wv = tl2_->clock().fetch_add(2, std::memory_order_seq_cst) +
                 2;
    }
    // Reverse acquisition order; read-only orecs go back to the exact
    // value they were locked at (the data under them never changed).
    for (auto it = owned_.rbegin(); it != owned_.rend(); ++it) {
        uint64_t release =
            (publishVersions && it->written) ? wv : it->oldValue;
        tl2_->orec(it->idx).store(release, std::memory_order_seq_cst);
    }
    owned_.clear();
}

void
CrossShardPart::freezeBlocking()
{
    RawMem raw;
    switch (family_) {
    case CrossFamily::kClockRaw:
        for (unsigned i = 0;; ++i) {
            uint64_t c = raw.load(&g_.clock);
            if (!clockIsLocked(c)) {
                uint64_t expected = c;
                if (raw.cas(&g_.clock, expected, clockWithLock(c))) {
                    snapshot_ = c;
                    clockHeld_ = true;
                    break;
                }
            }
            spinPause(i);
        }
        break;
    case CrossFamily::kClockEngine:
        lockEngineClock(/*blocking=*/true);
        break;
    case CrossFamily::kGlobalLock:
        for (unsigned i = 0;; ++i) {
            uint64_t expected = 0;
            if (eng_.directCas(&g_.globalLock, expected, 1))
                break;
            spinPause(i);
        }
        stampEpoch(g_.watchdog.clockEpoch);
        break;
    case CrossFamily::kTl2:
        // Take the irrevocability token: excludes native irrevocables
        // and licenses this thread to block on orecs (2PL reads).
        for (unsigned i = 0;; ++i) {
            uint64_t expected = 0;
            if (tl2_->irrevocableOwner().compare_exchange_strong(
                    expected,
                    static_cast<uint64_t>(kCrossOwnerBase + ownerId_) +
                        1,
                    std::memory_order_seq_cst)) {
                tokenHeld_ = true;
                break;
            }
            spinPause(i);
        }
        break;
    case CrossFamily::kRhTl2:
        for (unsigned i = 0;; ++i) {
            uint64_t expected = 0;
            if (eng_.directCas(&g_.htmLock, expected, 1)) {
                htmLockHeld_ = true;
                break;
            }
            spinPause(i);
        }
        stampEpoch(g_.watchdog.clockEpoch);
        break;
    }
    frozen_ = true;
}

void
CrossShardPart::beginAttempt(bool escalated)
{
    reads_.clear();
    writes_.clear();
    owned_.clear();
    escalated_ = escalated;
    rt_.memory().epochs().enterRegion(ctx_.tid());
    active_ = true;
    if (escalated) {
        freezeBlocking();
        return;
    }
    switch (family_) {
    case CrossFamily::kGlobalLock:
        // Freeze-at-begin, bounded: lock-elision has no clock, so the
        // only consistent read protocol is exclusion for the whole
        // attempt.
        for (unsigned i = 0; i < kPrepareSpins; ++i) {
            uint64_t expected = 0;
            if (eng_.directCas(&g_.globalLock, expected, 1)) {
                frozen_ = true;
                stampEpoch(g_.watchdog.clockEpoch);
                return;
            }
            spinPause(i);
        }
        restart();
    case CrossFamily::kRhTl2:
        snapshot_ = eng_.directLoad(rhTl2_->clock());
        return;
    default:
        return;
    }
}

bool
CrossShardPart::lockEngineClock(bool blocking)
{
    // RH NOrec's own exclusion (Algorithm 1): with a fallback
    // registered, every fast-path writer reads the clock at commit and
    // aborts while it is locked, and every software writer needs the
    // clock. Register first, then lock: a fast-path writer that saw
    // fallbacks == 0 is doomed by the registration's store, so once
    // the CAS lands no commit can reach the shard -- yet read-only
    // hardware transactions, which touch neither word, run on.
    if (!registered_) {
        eng_.directFetchAdd(&g_.fallbacks, 1);
        registered_ = true;
    }
    for (unsigned i = 0; blocking || i < kPrepareSpins; ++i) {
        uint64_t c = eng_.directLoad(&g_.clock);
        if (!clockIsLocked(c)) {
            uint64_t expected = c;
            if (eng_.directCas(&g_.clock, expected, clockWithLock(c))) {
                snapshot_ = c;
                clockHeld_ = true;
                stampEpoch(g_.watchdog.clockEpoch);
                return true;
            }
        }
        spinPause(i);
    }
    unlockEngineClock(0); // Drops only the registration.
    return false;
}

void
CrossShardPart::unlockEngineClock(uint64_t clock)
{
    // Clock first, registration last: the shard stays closed to
    // fast-path writers until the clock is released.
    if (clockHeld_) {
        eng_.directStore(&g_.clock, clock);
        clockHeld_ = false;
        stampEpoch(g_.watchdog.clockEpoch);
    }
    if (registered_) {
        eng_.directFetchAdd(&g_.fallbacks, static_cast<uint64_t>(-1));
        registered_ = false;
    }
}

bool
CrossShardPart::validateReads() const
{
    RawMem raw;
    for (const auto &e : reads_) {
        uint64_t current;
        switch (family_) {
        case CrossFamily::kClockRaw:
        case CrossFamily::kTl2:
            current = raw.load(e.addr);
            break;
        default:
            current = eng_.directLoad(e.addr);
            break;
        }
        if (current != e.value)
            return false;
    }
    return true;
}

bool
CrossShardPart::prepare()
{
    RawMem raw;
    switch (family_) {
    case CrossFamily::kClockRaw: {
        for (unsigned i = 0; i < kPrepareSpins; ++i) {
            uint64_t c = raw.load(&g_.clock);
            if (!clockIsLocked(c)) {
                uint64_t expected = c;
                if (raw.cas(&g_.clock, expected, clockWithLock(c))) {
                    snapshot_ = c;
                    clockHeld_ = true;
                    if (validateReads())
                        return true;
                    raw.store(&g_.clock, snapshot_);
                    clockHeld_ = false;
                    return false;
                }
            }
            spinPause(i);
        }
        return false;
    }
    case CrossFamily::kClockEngine:
        // The value revalidation runs against a shard no committer can
        // reach (see lockEngineClock).
        if (!lockEngineClock(/*blocking=*/false))
            return false;
        if (validateReads())
            return true;
        unlockEngineClock(snapshot_);
        return false;
    case CrossFamily::kGlobalLock:
        // Held since beginAttempt; nothing to validate.
        return true;
    case CrossFamily::kTl2: {
        // Lock the read and write footprint's orecs in ascending index
        // order (bounded), then value-revalidate the reads.
        std::vector<std::pair<size_t, bool>> want;
        want.reserve(reads_.size() + writes_.size());
        for (const auto &e : reads_)
            want.emplace_back(static_cast<size_t>(e.meta), false);
        for (const auto &w : writes_)
            want.emplace_back(tl2_->orecOf(w.first), true);
        std::sort(want.begin(), want.end());
        for (const auto &[idx, written] : want) {
            if (!lockTl2Orec(idx, /*blocking=*/false, written)) {
                releaseTl2Owned(false);
                return false;
            }
        }
        if (!validateReads()) {
            releaseTl2Owned(false);
            return false;
        }
        return true;
    }
    case CrossFamily::kRhTl2: {
        for (unsigned i = 0; i < kPrepareSpins; ++i) {
            uint64_t expected = 0;
            if (eng_.directCas(&g_.htmLock, expected, 1)) {
                htmLockHeld_ = true;
                stampEpoch(g_.watchdog.clockEpoch);
                if (validateReads())
                    return true;
                eng_.directStore(&g_.htmLock, 0);
                htmLockHeld_ = false;
                stampEpoch(g_.watchdog.clockEpoch);
                return false;
            }
            spinPause(i);
        }
        return false;
    }
    }
    std::abort();
}

void
CrossShardPart::publish(JointPublication &window)
{
    RawMem raw;
    switch (family_) {
    case CrossFamily::kClockRaw:
        for (const auto &w : writes_)
            raw.store(w.first, w.second);
        break;
    case CrossFamily::kClockEngine:
    case CrossFamily::kGlobalLock:
        // Every involved shard's values appear at one instant, so a
        // family-B hardware reader, which subscribes to none of the
        // words held here, cannot see this shard's new values beside
        // another shard's old ones.
        for (const auto &w : writes_)
            window.store(eng_, w.first, w.second);
        break;
    case CrossFamily::kTl2:
        if (escalated_) {
            // Escalated 2PL: write orecs were not pre-locked by a
            // prepare pass; take them now (blocking, token held).
            for (const auto &w : writes_)
                lockTl2Orec(tl2_->orecOf(w.first), /*blocking=*/true,
                            /*written=*/true);
        }
        for (const auto &w : writes_)
            raw.store(w.first, w.second);
        break;
    case CrossFamily::kRhTl2: {
        if (writes_.empty())
            break;
        // Native write-back order: orec first, then the value, clock
        // last. The shard's htmLock is held, so the clock cannot move
        // underneath us.
        uint64_t wv = eng_.directLoad(rhTl2_->clock()) + 2;
        for (const auto &w : writes_) {
            eng_.directStore(rhTl2_->orecOf(w.first), wv);
            eng_.directStore(w.first, w.second);
        }
        eng_.directStore(rhTl2_->clock(), wv);
        break;
    }
    }
}

void
CrossShardPart::releaseAdvance()
{
    RawMem raw;
    switch (family_) {
    case CrossFamily::kClockRaw:
        if (clockHeld_) {
            raw.store(&g_.clock, wrote()
                                     ? clockUnlockAndAdvance(snapshot_)
                                     : snapshot_);
            clockHeld_ = false;
        }
        break;
    case CrossFamily::kClockEngine:
        unlockEngineClock(wrote() ? clockUnlockAndAdvance(snapshot_)
                                  : snapshot_);
        break;
    case CrossFamily::kGlobalLock:
        if (frozen_) {
            eng_.directStore(&g_.globalLock, 0);
            frozen_ = false;
            stampEpoch(g_.watchdog.clockEpoch);
        }
        break;
    case CrossFamily::kTl2:
        releaseTl2Owned(true);
        break;
    case CrossFamily::kRhTl2:
        if (htmLockHeld_) {
            eng_.directStore(&g_.htmLock, 0);
            htmLockHeld_ = false;
            stampEpoch(g_.watchdog.clockEpoch);
        }
        break;
    }
}

void
CrossShardPart::releaseRestore()
{
    RawMem raw;
    switch (family_) {
    case CrossFamily::kClockRaw:
        if (clockHeld_) {
            raw.store(&g_.clock, snapshot_);
            clockHeld_ = false;
        }
        break;
    case CrossFamily::kClockEngine:
        unlockEngineClock(snapshot_);
        break;
    case CrossFamily::kGlobalLock:
        // Freeze persists until rollbackAttempt: the lock was taken at
        // begin, not by prepare, so an unrelated shard's prepare
        // failure must not drop it early.
        break;
    case CrossFamily::kTl2:
        releaseTl2Owned(false);
        break;
    case CrossFamily::kRhTl2:
        if (htmLockHeld_) {
            eng_.directStore(&g_.htmLock, 0);
            htmLockHeld_ = false;
            stampEpoch(g_.watchdog.clockEpoch);
        }
        break;
    }
}

void
CrossShardPart::releaseEscalated()
{
    releaseAdvance();
    if (tokenHeld_) {
        tl2_->irrevocableOwner().store(0, std::memory_order_seq_cst);
        tokenHeld_ = false;
    }
    frozen_ = false;
}

void
CrossShardPart::rollbackAttempt()
{
    if (!active_)
        return;
    releaseRestore();
    if (frozen_ && family_ == CrossFamily::kGlobalLock) {
        eng_.directStore(&g_.globalLock, 0);
        stampEpoch(g_.watchdog.clockEpoch);
    }
    frozen_ = false;
    if (tokenHeld_) {
        tl2_->irrevocableOwner().store(0, std::memory_order_seq_cst);
        tokenHeld_ = false;
    }
    reads_.clear();
    writes_.clear();
    rt_.memory().epochs().exitRegion(ctx_.tid());
    active_ = false;
    escalated_ = false;
}

void
CrossShardPart::finishCommitted()
{
    reads_.clear();
    writes_.clear();
    rt_.memory().epochs().exitRegion(ctx_.tid());
    active_ = false;
    escalated_ = false;
}

void
CrossShardPart::becomeIrrevocable()
{
    // Unsupported inside cross-shard bodies: escalation (decided by
    // the coordinator, never mid-body) is the irrevocable analogue.
    std::abort();
}

} // namespace rhtm
