#include "src/store/cross_txn.h"

#include <cstdlib>
#include <thread>

#include "src/core/engine/clock_subscription.h"
#include "src/core/engine/globals.h"

namespace rhtm
{

namespace
{

/** Yield cadence inside blocking waits. */
constexpr unsigned kYieldEvery = 32;

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

const TxDispatch CrossShardPart::kHtmDispatch = {
    &CrossShardPart::htmReadFn, &CrossShardPart::htmWriteFn};

CrossShardPart::CrossShardPart(TmRuntime &rt, ThreadCtx &ctx,
                               unsigned ownerId)
    : rt_(rt), ctx_(ctx), g_(rt.globals()), htm_(ctx.htm()),
      tl2_(rt.tl2Globals()), rhTl2_(rt.rhTl2Globals()),
      family_(crossFamilyOf(rt.kind())), ownerId_(ownerId),
      engine_(rt.engine()), rawClock_(raw_, &g_.clock),
      engineClock_(engine_, &g_.clock, &g_.watchdog.clockEpoch),
      writes_(kWriteIndexLog2)
{
    bindDispatch(kDispatch, this);
}

uint64_t
CrossShardPart::readDispatchFn(void *self, const uint64_t *addr)
{
    // The shard is frozen, so no native commit can race and a direct
    // load observes committed state. TL2 is the exception: its freeze
    // is the irrevocability token, and committed state is only
    // guaranteed under the word's orec, so the read locks it first.
    auto *p = static_cast<CrossShardPart *>(self);
    uint64_t buffered;
    if (p->writes_.lookup(addr, buffered))
        return buffered;
    switch (p->family_) {
    case CrossFamily::kTl2:
        p->lockTl2Orec(addr, /*written=*/false);
        return p->raw_.load(addr);
    case CrossFamily::kClockRaw:
        return p->raw_.load(addr);
    default:
        return p->engine_.load(addr);
    }
}

void
CrossShardPart::writeDispatchFn(void *self, uint64_t *addr,
                                uint64_t value)
{
    auto *p = static_cast<CrossShardPart *>(self);
    // TL2 takes the orec now, while a deadline can still unwind the
    // transaction; publication must not wait.
    if (p->family_ == CrossFamily::kTl2)
        p->lockTl2Orec(addr, /*written=*/true);
    p->writes_.putGrowing(addr, value);
}

uint64_t
CrossShardPart::htmReadFn(void *self, const uint64_t *addr)
{
    auto *p = static_cast<CrossShardPart *>(self);
    const uint64_t value = p->htm_.read(addr);
    HtmTxn::jointAccessCheck(p->jointParts_, p->jointCount_);
    return value;
}

void
CrossShardPart::htmWriteFn(void *self, uint64_t *addr, uint64_t value)
{
    auto *p = static_cast<CrossShardPart *>(self);
    p->htm_.write(addr, value);
    HtmTxn::jointAccessCheck(p->jointParts_, p->jointCount_);
}

void
CrossShardPart::waitSpin(unsigned iter)
{
    deadline_->poll();
    schedWaitPoint(SchedPoint::kWaitSpin);
    if (iter % kYieldEvery == kYieldEvery - 1)
        std::this_thread::yield();
}

template <typename Mem>
void
CrossShardPart::lockClock(const Mem &mem, CommitSeqlock<Mem> &seqlock)
{
    for (unsigned i = 0;; ++i) {
        uint64_t c = mem.load(&g_.clock);
        if (!clockIsLocked(c) && seqlock.tryAcquireAt(c)) {
            snapshot_ = c;
            clockHeld_ = true;
            return;
        }
        waitSpin(i);
    }
}

template <typename Mem>
void
CrossShardPart::unlockClock(CommitSeqlock<Mem> &seqlock, bool advance)
{
    if (!clockHeld_)
        return;
    if (advance)
        seqlock.releaseAdvance(snapshot_);
    else
        seqlock.releaseRestore(snapshot_);
    clockHeld_ = false;
}

void
CrossShardPart::lockWord(uint64_t *word)
{
    for (unsigned i = 0;; ++i) {
        uint64_t expected = 0;
        if (engine_.cas(word, expected, 1)) {
            heldWord_ = word;
            stampEpoch(g_.watchdog.clockEpoch);
            return;
        }
        waitSpin(i);
    }
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

void
CrossShardPart::lockToken()
{
    // Excludes native irrevocables and licenses this thread to block
    // on orecs (2PL reads).
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
        waitSpin(i);
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
CrossShardPart::lockTl2Orec(const uint64_t *addr, bool written)
{
    const size_t idx = tl2_->orecOf(addr);
    for (auto &o : owned_) {
        if (o.idx == idx) {
            o.written = o.written || written;
            return;
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
                return;
            }
        }
        waitSpin(i);
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
CrossShardPart::beginHardware(HtmTxn *const *parts, size_t n)
{
    jointParts_ = parts;
    jointCount_ = n;
    rt_.memory().epochs().enterRegion(ctx_.tid());
    active_ = true;
    bindDispatch(kHtmDispatch, this);
    htm_.begin();
    htmEarlySubscribe(htm_, &g_.htmLock);
}

void
CrossShardPart::commitCheck()
{
    if (!htm_.isReadOnly())
        htmWriterCommitCheck(htm_, g_);
}

void
CrossShardPart::freeze(DeadlineState &deadline)
{
    writes_.clear();
    owned_.clear();
    deadline_ = &deadline;
    rt_.memory().epochs().enterRegion(ctx_.tid());
    active_ = true;
    bindDispatch(kDispatch, this);
    switch (family_) {
    case CrossFamily::kClockRaw:
        lockClock(raw_, rawClock_);
        return;
    case CrossFamily::kClockEngine:
        // Algorithm 2's slow-path writer: the clock, then htmLock
        // around the in-place writes. Only the clock holder writes
        // htmLock on this family, so the word CAS never waits, and
        // the order (clock, then htmLock) is the sessions' own.
        lockClock(engine_, engineClock_);
        lockWord(&g_.htmLock);
        return;
    case CrossFamily::kGlobalLock:
        lockWord(&g_.globalLock);
        return;
    case CrossFamily::kRhTl2:
        lockWord(&g_.htmLock);
        return;
    case CrossFamily::kTl2:
        lockToken();
        return;
    }
}

void
CrossShardPart::publish()
{
    switch (family_) {
    case CrossFamily::kClockRaw:
    case CrossFamily::kTl2:
        // TL2's written orecs were locked as the body wrote them.
        writes_.forEach(
            [&](uint64_t *addr, uint64_t v) { raw_.store(addr, v); });
        break;
    case CrossFamily::kClockEngine:
    case CrossFamily::kGlobalLock:
        // Every hardware transaction on the shard subscribes to the
        // word held here (htmLock, globalLock), so none runs while the
        // shard is frozen, and the coordinator releases a shard only
        // after every part has published.
        writes_.forEach(
            [&](uint64_t *addr, uint64_t v) { engine_.store(addr, v); });
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
CrossShardPart::release(bool published)
{
    if (!active_)
        return;
    if (htm_.active())
        htm_.cancel();
    switch (family_) {
    case CrossFamily::kClockRaw:
        unlockClock(rawClock_, published && wrote());
        break;
    case CrossFamily::kClockEngine:
        unlockWord();
        unlockClock(engineClock_, published && wrote());
        break;
    case CrossFamily::kGlobalLock:
    case CrossFamily::kRhTl2:
        unlockWord();
        break;
    case CrossFamily::kTl2:
        releaseTl2Owned(published);
        releaseToken();
        break;
    }
    writes_.clear();
    rt_.memory().epochs().exitRegion(ctx_.tid());
    active_ = false;
}

void
CrossShardPart::becomeIrrevocable()
{
    // Unsupported inside cross-shard bodies: the frozen shards are
    // already the irrevocable analogue.
    std::abort();
}

} // namespace rhtm
