#include "src/htm/htm_txn.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "src/util/sched_point.h"

namespace rhtm
{

const char *
htmAbortCauseName(HtmAbortCause cause)
{
    switch (cause) {
      case HtmAbortCause::kNone: return "none";
      case HtmAbortCause::kConflict: return "conflict";
      case HtmAbortCause::kCapacity: return "capacity";
      case HtmAbortCause::kExplicit: return "explicit";
      case HtmAbortCause::kOther: return "other";
      case HtmAbortCause::kNeedIrrevocable: return "need-irrevocable";
    }
    return "unknown";
}

namespace
{

/** @p lines as thread @p tid sees it under HT scaling. */
size_t
scaledCapacity(const HtmConfig &cfg, unsigned tid, size_t lines)
{
    if (tid >= cfg.scaledThreadsFrom && cfg.capacityScale > 1)
        return lines / cfg.capacityScale;
    return lines;
}

} // namespace

HtmTxn::HtmTxn(HtmEngine &eng, unsigned tid, ThreadStats *stats,
               uint64_t rng_seed, FaultInjector *fault)
    : eng_(eng), stats_(stats), fault_(fault),
      readCap_(scaledCapacity(eng.config(), tid,
                              eng.config().readCapacityLines)),
      writeCap_(scaledCapacity(eng.config(), tid,
                               eng.config().writeCapacityLines)),
      effReadCap_(readCap_), effWriteCap_(writeCap_), active_(false),
      lastSeq_(0),
      // Each table grows on demand to at most the smallest size whose
      // 3/4 load limit holds the capacity (8 Ki read-line slots, 1 Ki
      // write-line slots and 8 Ki word slots at the default 4096/448
      // lines), so it is never full while the transaction is within
      // its capacity. A line holds 8 words; the min() keeps a huge
      // capacity from wrapping.
      readLines_(slotsLog2ForLoad(readCap_)),
      writes_(slotsLog2ForLoad(std::min(writeCap_, SIZE_MAX / 8) * 8)),
      writeLines_(slotsLog2ForLoad(writeCap_))
{
    const HtmConfig &cfg = eng.config();
    if (fault_ == nullptr && cfg.randomAbortProb > 0.0) {
        // Legacy knob: express the blunt per-access probability as a
        // fault plan on the access sites (same distribution the old
        // inline dice roll produced).
        ownedFault_ = std::make_unique<FaultInjector>(
            interruptAbortPlan(cfg.randomAbortProb,
                               rng_seed ^ (tid * 0x9e3779b9ull)),
            tid);
        fault_ = ownedFault_.get();
    }
    // Grows to the largest read set, like readLines_.
    readLog_.reserve(size_t(1) << kInitialSlotsLog2);
}

void
HtmTxn::resetState()
{
    active_ = false;
    readLog_.clear();
    readLines_.clear();
    writes_.clear();
    writeLines_.clear();
}

void
HtmTxn::fail(HtmAbortCause cause, bool retry_ok, uint8_t code,
             bool injected)
{
    resetState();
    if (stats_) {
        switch (cause) {
          case HtmAbortCause::kConflict:
            stats_->inc(Counter::kHtmConflictAborts);
            break;
          case HtmAbortCause::kCapacity:
            stats_->inc(Counter::kHtmCapacityAborts);
            break;
          case HtmAbortCause::kExplicit:
          case HtmAbortCause::kNeedIrrevocable:
            stats_->inc(Counter::kHtmExplicitAborts);
            break;
          default:
            stats_->inc(Counter::kHtmOtherAborts);
            break;
        }
        if (injected)
            stats_->inc(Counter::kHtmInjectedAborts);
    }
    throw HtmAbort{cause, retry_ok, code};
}

void
HtmTxn::applyFault(FaultKind kind, uint32_t spins)
{
    switch (kind) {
      case FaultKind::kNone:
      case FaultKind::kCapacitySqueeze:
        return;
      case FaultKind::kDelay:
        simDelay(spins);
        return;
      case FaultKind::kYield:
        std::this_thread::yield();
        return;
      case FaultKind::kAbortConflict:
        fail(HtmAbortCause::kConflict, true, 0, true);
      case FaultKind::kAbortCapacity:
        fail(HtmAbortCause::kCapacity, false, 0, true);
      case FaultKind::kAbortOther:
        fail(HtmAbortCause::kOther, false, 0, true);
      case FaultKind::kAbortExplicit:
        fail(HtmAbortCause::kExplicit, true, 0, true);
    }
}

void
HtmTxn::begin()
{
    assert(!active_ && "simulated HTM does not nest");
    // Scheduling points sit at the entry of begin/read/write/commit,
    // outside the publication guard (HtmTxn::faultPoint must stay
    // uninstrumented: it also fires at kPublishWindow, inside it).
    schedPoint(SchedPoint::kHtmBegin);
    resetState();
    active_ = true;
    // The (empty) read set is consistent at any even sequence value,
    // so a quiescent engine lets even the first read take the one-load
    // path; an open window leaves the sentinel, which no sequence value
    // equals.
    const uint64_t seq = eng_.seq();
    lastSeq_ = (seq & 1) != 0 ? ~uint64_t(0) : seq;
    if (fault_ != nullptr) {
        faultPoint(FaultSite::kHtmBegin);
        // Capacity squeezes are (re)evaluated per transaction.
        effReadCap_ = fault_->readCapLimit(readCap_);
        effWriteCap_ = fault_->writeCapLimit(writeCap_);
    }
}

uint64_t
HtmTxn::read(const uint64_t *addr)
{
    assert(active_);
    schedPoint(SchedPoint::kHtmRead, addr);
    faultPoint(FaultSite::kTxRead);

    // A transaction that has not written yet has nothing to forward:
    // skip the write-buffer probe (read-only bodies never pay it).
    uint64_t buffered;
    if (!writes_.empty() && writes_.lookup(addr, buffered))
        return buffered;

    // Seqlock read against the window the read set is consistent at:
    // the acquire load orders the sequence check after the value, so
    // an unmoved sequence proves no publication wrote anything since
    // -- the value belongs to the same snapshot as every earlier read.
    uint64_t val = std::atomic_ref<const uint64_t>(*addr).load(
        std::memory_order_acquire);
    if (eng_.seq() != lastSeq_)
        val = readAcrossPublication(addr);

    bool inserted = false;
    const uint64_t line =
        reinterpret_cast<uint64_t>(addr) >> HtmEngine::kLineShift;
    if (!readLines_.insert(line, inserted))
        fail(HtmAbortCause::kCapacity, false);
    if (inserted) {
        if (readLines_.size() > effReadCap_)
            fail(HtmAbortCause::kCapacity, false);
        readLog_.push_back(static_cast<uint32_t>(eng_.stripeOf(addr)));
    }
    return val;
}

uint64_t
HtmTxn::readAcrossPublication(const uint64_t *addr)
{
    ++revalidations_;
    for (;;) {
        const uint64_t s1 = eng_.seq();
        if (s1 & 1) {
            cpuRelax();
            continue;
        }
        // Memory changed since the last stable window: re-validate the
        // whole read log inside this one. A stamp past lastSeq_ is a
        // genuine invalidation of a tracked line -> conflict abort
        // (correct even if this window later proves unstable).
        for (uint32_t stripe : readLog_) {
            if (eng_.stripeStamp(stripe) > lastSeq_)
                fail(HtmAbortCause::kConflict, true);
        }
        const uint64_t val =
            addr == nullptr ? 0
                            : std::atomic_ref<const uint64_t>(*addr).load(
                                  std::memory_order_acquire);
        if (eng_.seq() == s1) {
            lastSeq_ = s1;
            return val;
        }
    }
}

void
HtmTxn::write(uint64_t *addr, uint64_t value)
{
    assert(active_);
    schedPoint(SchedPoint::kHtmWrite, addr);
    faultPoint(FaultSite::kTxWrite);

    bool inserted = false;
    if (!writeLines_.insert(
            reinterpret_cast<uint64_t>(addr) >> HtmEngine::kLineShift,
            inserted)) {
        fail(HtmAbortCause::kCapacity, false);
    }
    if (inserted && writeLines_.size() > effWriteCap_)
        fail(HtmAbortCause::kCapacity, false);
    if (!writes_.put(addr, value))
        fail(HtmAbortCause::kCapacity, false);
}

void
HtmTxn::commit()
{
    assert(active_);
    schedPoint(SchedPoint::kHtmCommit);
    faultPoint(FaultSite::kPreCommit);

    if (writes_.empty()) {
        // Read-only: every read was validated within a stable window;
        // the transaction serializes at its last validation point.
        resetState();
        return;
    }

    {
        HtmEngine::PublishGuard guard(eng_);
        for (uint32_t stripe : readLog_) {
            if (eng_.stripeStamp(stripe) > lastSeq_)
                fail(HtmAbortCause::kConflict, true);
        }
        // The publication window proper: the sequence is odd and
        // every concurrent reader spins. A scripted delay here
        // stretches exactly the window Figure 2's atomic-publication
        // argument depends on (an abort unwinds through the guard, so
        // the sequence is restored either way).
        faultPoint(FaultSite::kPublishWindow);
        const uint64_t stamp = guard.stamp();
        writes_.forEach([this, stamp](uint64_t *addr, uint64_t value) {
            eng_.publishWord(addr, value, stamp);
        });
    }
    resetState();
}

void
HtmTxn::jointAccessCheck(HtmTxn *const *parts, size_t n)
{
    size_t readLines = 0;
    size_t writeLines = 0;
    size_t readCap = SIZE_MAX;
    size_t writeCap = SIZE_MAX;
    for (size_t i = 0; i < n; ++i) {
        HtmTxn &part = *parts[i];
        assert(part.active_);
        if (part.eng_.seq() != part.lastSeq_)
            part.readAcrossPublication(nullptr);
        readLines += part.readLines_.size();
        writeLines += part.writeLines_.size();
        readCap = std::min(readCap, part.effReadCap_);
        writeCap = std::min(writeCap, part.effWriteCap_);
    }
    if (readLines > readCap || writeLines > writeCap)
        parts[0]->fail(HtmAbortCause::kCapacity, false);
}

void
HtmTxn::commitJoint(HtmTxn *const *parts, size_t n)
{
    try {
        // Scheduling points and the pre-commit sites come first: no
        // window may be open while the explorer can park this thread.
        for (size_t i = 0; i < n; ++i) {
            assert(parts[i]->active_);
            schedPoint(SchedPoint::kHtmCommit);
            parts[i]->faultPoint(FaultSite::kPreCommit);
        }
        JointPublication window;
        for (size_t i = 0; i < n; ++i)
            window.join(parts[i]->eng_);
        for (size_t i = 0; i < n; ++i) {
            HtmTxn &part = *parts[i];
            for (uint32_t stripe : part.readLog_) {
                if (part.eng_.stripeStamp(stripe) > part.lastSeq_)
                    part.fail(HtmAbortCause::kConflict, true);
            }
        }
        for (size_t i = 0; i < n; ++i) {
            HtmTxn &part = *parts[i];
            part.faultPoint(FaultSite::kPublishWindow);
            part.writes_.forEach([&](uint64_t *addr, uint64_t value) {
                window.store(part.eng_, addr, value);
            });
        }
    } catch (const HtmAbort &) {
        for (size_t i = 0; i < n; ++i)
            parts[i]->resetState();
        throw;
    }
    for (size_t i = 0; i < n; ++i)
        parts[i]->resetState();
}

void
HtmTxn::abortExplicit(uint8_t code)
{
    assert(active_);
    fail(HtmAbortCause::kExplicit, true, code);
}

void
HtmTxn::abortSubscription()
{
    assert(active_);
    if (stats_)
        stats_->inc(Counter::kHtmSubscriptionAborts);
    fail(HtmAbortCause::kExplicit, true, 0);
}

void
HtmTxn::abortInjected(HtmAbortCause cause, bool retry_ok)
{
    assert(active_);
    fail(cause, retry_ok, 0, true);
}

void
HtmTxn::abortNeedIrrevocable()
{
    assert(active_);
    fail(HtmAbortCause::kNeedIrrevocable, true, 0);
}

} // namespace rhtm
