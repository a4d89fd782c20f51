#include "src/store/cross_txn.h"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "src/core/engine/globals.h"

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
    schedWaitPoint(SchedPoint::kWaitSpin);
    if (iter % kYieldEvery == kYieldEvery - 1)
        std::this_thread::yield();
}

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

/** Initial write-buffer index: 16 slots; a cross body writes few words
 *  per shard, and the buffer grows past that. */
constexpr unsigned kWriteIndexLog2 = 4;

} // namespace

const TxDispatch CrossShardPart::kDispatch = {
    &CrossShardPart::readDispatchFn, &CrossShardPart::writeDispatchFn};

CrossShardPart::CrossShardPart(TmRuntime &rt, ThreadCtx &ctx,
                               unsigned ownerId)
    : rt_(rt), ctx_(ctx), eng_(rt.engine()), g_(rt.globals()),
      tl2_(rt.tl2Globals()), rhTl2_(rt.rhTl2Globals()),
      family_(crossFamilyOf(rt.kind())), ownerId_(ownerId),
      engine_(eng_), rawClock_(raw_, &g_.clock),
      engineClock_(engine_, &g_.clock, &g_.watchdog.clockEpoch),
      writes_(kWriteIndexLog2)
{
    bindDispatch(kDispatch, this);
}

uint64_t
CrossShardPart::readDispatchFn(void *self, const uint64_t *addr)
{
    auto *p = static_cast<CrossShardPart *>(self);
    uint64_t buffered;
    if (p->writes_.lookup(addr, buffered))
        return buffered;
    return p->escalated_ ? p->readEscalated(addr) : p->readWord(addr);
}

void
CrossShardPart::writeDispatchFn(void *self, uint64_t *addr,
                                uint64_t value)
{
    static_cast<CrossShardPart *>(self)->writes_.putGrowing(addr, value);
}

template <typename Mem>
uint64_t
CrossShardPart::clockRead(const Mem &mem, const uint64_t *addr)
{
    // NOrec clock sandwich: every software commit moves the clock, so
    // a stable unlocked pair brackets a committed value. (Silent
    // fallback-free HTM commits in family B can slip between the clock
    // reads, but each is atomic, so v is still some committed value;
    // prepare's value revalidation closes the cross-snapshot gap.)
    for (unsigned i = 0; i < kReadSpins; ++i) {
        uint64_t c1 = mem.load(&g_.clock);
        if (!clockIsLocked(c1)) {
            uint64_t v = mem.load(addr);
            if (mem.load(&g_.clock) == c1) {
                reads_.push(addr, v);
                return v;
            }
        }
        spinPause(i);
    }
    restart();
}

uint64_t
CrossShardPart::readWord(const uint64_t *addr)
{
    switch (family_) {
    case CrossFamily::kClockRaw:
        return clockRead(raw_, addr);
    case CrossFamily::kClockEngine:
        return clockRead(engine_, addr);
    case CrossFamily::kGlobalLock:
        // Shard frozen since beginAttempt: direct reads, no log.
        return engine_.load(addr);
    case CrossFamily::kTl2: {
        // Orec-stable sandwich. An unlocked, unmoved orec brackets a
        // committed in-place value (eager natives only dirty a word
        // while holding its orec).
        std::atomic<uint64_t> &orec = tl2_->orec(tl2_->orecOf(addr));
        for (unsigned i = 0; i < kReadSpins; ++i) {
            schedPoint(SchedPoint::kRawLoad, &orec);
            uint64_t o1 = orec.load(std::memory_order_seq_cst);
            if (!Tl2Globals::isLocked(o1)) {
                uint64_t v = raw_.load(addr);
                schedPoint(SchedPoint::kRawLoad, &orec);
                if (orec.load(std::memory_order_seq_cst) == o1) {
                    reads_.push(addr, v);
                    return v;
                }
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
            uint64_t o1 = engine_.load(orec);
            if (o1 > snapshot_)
                restart();
            uint64_t v = engine_.load(addr);
            if (engine_.load(orec) == o1) {
                reads_.push(addr, v);
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
    switch (family_) {
    case CrossFamily::kTl2:
        lockTl2Orec(tl2_->orecOf(addr), /*blocking=*/true,
                    /*written=*/false);
        return raw_.load(addr);
    case CrossFamily::kClockRaw:
        return raw_.load(addr);
    default:
        return engine_.load(addr);
    }
}

template <typename Mem>
bool
CrossShardPart::lockClock(const Mem &mem, CommitSeqlock<Mem> &seqlock,
                          bool blocking)
{
    // Family B: RH NOrec's own exclusion (Algorithm 1). With a
    // fallback registered, every fast-path writer reads the clock at
    // commit and aborts while it is locked, and every software writer
    // needs the clock. Register first, then lock: a fast-path writer
    // that saw fallbacks == 0 is doomed by the registration's store,
    // so once the CAS lands no commit can reach the shard -- yet
    // read-only hardware transactions, which touch neither word, run
    // on.
    if (family_ == CrossFamily::kClockEngine && !registered_) {
        mem.fetchAdd(&g_.fallbacks, 1);
        registered_ = true;
    }
    for (unsigned i = 0; blocking || i < kPrepareSpins; ++i) {
        uint64_t c = mem.load(&g_.clock);
        if (!clockIsLocked(c) && seqlock.tryAcquireAt(c)) {
            snapshot_ = c;
            clockHeld_ = true;
            return true;
        }
        spinPause(i);
    }
    unlockClock(mem, seqlock, false); // Drops only the registration.
    return false;
}

template <typename Mem>
void
CrossShardPart::unlockClock(const Mem &mem, CommitSeqlock<Mem> &seqlock,
                            bool advance)
{
    // Clock first, registration last: the shard stays closed to
    // fast-path writers until the clock is released.
    if (clockHeld_) {
        if (advance)
            seqlock.releaseAdvance(snapshot_);
        else
            seqlock.releaseRestore(snapshot_);
        clockHeld_ = false;
    }
    if (registered_) {
        mem.fetchAdd(&g_.fallbacks, static_cast<uint64_t>(-1));
        registered_ = false;
    }
}

bool
CrossShardPart::lockWord(uint64_t *word, bool blocking)
{
    for (unsigned i = 0; blocking || i < kPrepareSpins; ++i) {
        uint64_t expected = 0;
        if (engine_.cas(word, expected, 1)) {
            heldWord_ = word;
            stampEpoch(g_.watchdog.clockEpoch);
            return true;
        }
        spinPause(i);
    }
    return false;
}

void
CrossShardPart::unlockWord()
{
    if (heldWord_ == nullptr)
        return;
    engine_.store(heldWord_, 0);
    heldWord_ = nullptr;
    stampEpoch(g_.watchdog.clockEpoch);
}

bool
CrossShardPart::lockShard(bool blocking)
{
    switch (family_) {
    case CrossFamily::kClockRaw:
        return lockClock(raw_, rawClock_, blocking);
    case CrossFamily::kClockEngine:
        return lockClock(engine_, engineClock_, blocking);
    case CrossFamily::kGlobalLock:
        return lockWord(&g_.globalLock, blocking);
    case CrossFamily::kRhTl2:
        return lockWord(&g_.htmLock, blocking);
    case CrossFamily::kTl2:
        break; // Orecs are locked per word (lockTl2Orec).
    }
    std::abort();
}

void
CrossShardPart::unlockShard(bool published)
{
    switch (family_) {
    case CrossFamily::kClockRaw:
        unlockClock(raw_, rawClock_, published && wrote());
        break;
    case CrossFamily::kClockEngine:
        unlockClock(engine_, engineClock_, published && wrote());
        break;
    case CrossFamily::kGlobalLock:
    case CrossFamily::kRhTl2:
        unlockWord();
        break;
    case CrossFamily::kTl2:
        releaseTl2Owned(published);
        break;
    }
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
    std::atomic<uint64_t> &orec = tl2_->orec(idx);
    for (unsigned i = 0;; ++i) {
        schedPoint(SchedPoint::kRawLoad, &orec);
        uint64_t cur = orec.load(std::memory_order_seq_cst);
        if (!Tl2Globals::isLocked(cur)) {
            uint64_t expected = cur;
            schedPoint(SchedPoint::kRawRmw, &orec);
            if (orec.compare_exchange_strong(expected, mine,
                                             std::memory_order_seq_cst)) {
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
        if (anyWritten) {
            schedPoint(SchedPoint::kRawRmw, &tl2_->clock());
            wv = tl2_->clock().fetch_add(2, std::memory_order_seq_cst) +
                 2;
        }
    }
    // Reverse acquisition order; read-only orecs go back to the exact
    // value they were locked at (the data under them never changed).
    for (auto it = owned_.rbegin(); it != owned_.rend(); ++it) {
        uint64_t release =
            (publishVersions && it->written) ? wv : it->oldValue;
        schedPoint(SchedPoint::kRawStore, &tl2_->orec(it->idx));
        tl2_->orec(it->idx).store(release, std::memory_order_seq_cst);
    }
    owned_.clear();
}

void
CrossShardPart::freezeBlocking()
{
    if (family_ != CrossFamily::kTl2) {
        lockShard(/*blocking=*/true);
        return;
    }
    // Take the irrevocability token: excludes native irrevocables and
    // licenses this thread to block on orecs (2PL reads).
    std::atomic<uint64_t> &token = tl2_->irrevocableOwner();
    const uint64_t mine =
        static_cast<uint64_t>(kCrossOwnerBase + ownerId_) + 1;
    for (unsigned i = 0;; ++i) {
        uint64_t expected = 0;
        schedPoint(SchedPoint::kRawRmw, &token);
        if (token.compare_exchange_strong(expected, mine,
                                          std::memory_order_seq_cst)) {
            tokenHeld_ = true;
            return;
        }
        spinPause(i);
    }
}

void
CrossShardPart::releaseToken()
{
    if (!tokenHeld_)
        return;
    schedPoint(SchedPoint::kRawStore, &tl2_->irrevocableOwner());
    tl2_->irrevocableOwner().store(0, std::memory_order_seq_cst);
    tokenHeld_ = false;
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
        if (!lockShard(/*blocking=*/false))
            restart();
        return;
    case CrossFamily::kRhTl2:
        snapshot_ = engine_.load(rhTl2_->clock());
        return;
    default:
        return;
    }
}

bool
CrossShardPart::prepare()
{
    switch (family_) {
    case CrossFamily::kGlobalLock:
        // Held since beginAttempt; nothing to validate.
        return true;
    case CrossFamily::kTl2: {
        // Lock the read and write footprint's orecs in ascending index
        // order (bounded), then value-revalidate the reads.
        std::vector<std::pair<size_t, bool>> want;
        want.reserve(reads_.size() + writes_.sizeWords());
        reads_.forEach([&](const uint64_t *addr) {
            want.emplace_back(tl2_->orecOf(addr), false);
        });
        writes_.forEach([&](uint64_t *addr, uint64_t) {
            want.emplace_back(tl2_->orecOf(addr), true);
        });
        std::sort(want.begin(), want.end());
        for (const auto &[idx, written] : want) {
            if (!lockTl2Orec(idx, /*blocking=*/false, written)) {
                releaseTl2Owned(false);
                return false;
            }
        }
        if (reads_.consistent(raw_))
            return true;
        releaseTl2Owned(false);
        return false;
    }
    default: {
        // Families A, B and E: the family's lock, then the value
        // revalidation against a shard no committer can reach.
        if (!lockShard(/*blocking=*/false))
            return false;
        bool ok = family_ == CrossFamily::kClockRaw
                      ? reads_.consistent(raw_)
                      : reads_.consistent(engine_);
        if (!ok)
            unlockShard(/*published=*/false);
        return ok;
    }
    }
}

void
CrossShardPart::publish(JointPublication &window)
{
    switch (family_) {
    case CrossFamily::kClockRaw:
        writes_.forEach(
            [&](uint64_t *addr, uint64_t v) { raw_.store(addr, v); });
        break;
    case CrossFamily::kClockEngine:
    case CrossFamily::kGlobalLock:
        // Every involved shard's values appear at one instant, so a
        // family-B hardware reader, which subscribes to none of the
        // words held here, cannot see this shard's new values beside
        // another shard's old ones.
        writes_.forEach([&](uint64_t *addr, uint64_t v) {
            window.store(eng_, addr, v);
        });
        break;
    case CrossFamily::kTl2:
        if (escalated_) {
            // Escalated 2PL: write orecs were not pre-locked by a
            // prepare pass; take them now (blocking, token held).
            writes_.forEach([&](uint64_t *addr, uint64_t) {
                lockTl2Orec(tl2_->orecOf(addr), /*blocking=*/true,
                            /*written=*/true);
            });
        }
        writes_.forEach(
            [&](uint64_t *addr, uint64_t v) { raw_.store(addr, v); });
        break;
    case CrossFamily::kRhTl2: {
        if (writes_.empty())
            break;
        // Native write-back order: orec first, then the value, clock
        // last. The shard's htmLock is held, so the clock cannot move
        // underneath us.
        uint64_t wv = engine_.load(rhTl2_->clock()) + 2;
        writes_.forEach([&](uint64_t *addr, uint64_t v) {
            engine_.store(rhTl2_->orecOf(addr), wv);
            engine_.store(addr, v);
        });
        engine_.store(rhTl2_->clock(), wv);
        break;
    }
    }
}

void
CrossShardPart::releaseRestore()
{
    // Lock-elision's freeze persists until rollbackAttempt: the lock
    // was taken at begin, not by prepare, so an unrelated shard's
    // prepare failure must not drop it early.
    if (family_ != CrossFamily::kGlobalLock)
        unlockShard(/*published=*/false);
}

void
CrossShardPart::releaseEscalated()
{
    releaseAdvance();
    releaseToken();
}

void
CrossShardPart::rollbackAttempt()
{
    if (!active_)
        return;
    releaseRestore();
    unlockWord(); // Lock-elision's begin-held lock, if any.
    releaseToken();
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
