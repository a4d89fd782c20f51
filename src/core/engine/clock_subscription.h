/**
 * @file
 * Clock-subscription helper: the one object that knows the two ways a
 * transaction can "subscribe" to the NOrec global clock.
 *
 * Early (hardware) subscription reads the coordination word inside the
 * HTM attempt at begin, putting it into the hardware read set so any
 * later writer dooms the transaction for free; a nonzero value at
 * subscription time aborts immediately (the paper's lazy-subscription
 * hazards are avoided by subscribing up front).
 *
 * Late (software) subscription snapshots an unlocked clock value at
 * begin and re-checks it on every read; a moved clock sends the NOrec
 * family through value-based revalidation (ValueReadLog::revalidate).
 */

#ifndef RHTM_CORE_ENGINE_CLOCK_SUBSCRIPTION_H
#define RHTM_CORE_ENGINE_CLOCK_SUBSCRIPTION_H

#include <cstdint>

#include "src/core/engine/globals.h"
#include "src/htm/htm_txn.h"
#include "src/util/sched_point.h"

namespace rhtm
{

/**
 * Early subscription: pull @p word into the live hardware read set and
 * abort the attempt if a slow path already owns it.
 */
inline void
htmEarlySubscribe(HtmTxn &htm, const uint64_t *word)
{
    // The lazy-subscription hazard window the paper warns about lives
    // exactly here: between the hardware attempt's begin and this
    // read, a slow path may take the word. Let the explorer schedule
    // into it.
    schedPoint(SchedPoint::kEarlySubscribe, word);
    if (htm.read(word) != 0)
        htm.abortSubscription();
}

/**
 * Algorithm 1's commit rule for a hardware writer (Section 2.3): with
 * no slow path live it commits as is; otherwise it subscribes to the
 * clock and serial lock, aborts while a software writeback is in
 * flight (clock locked or serial lock held), and bumps the clock
 * inside the transaction so the live slow paths revalidate. Call just
 * before the writer's commit; every hardware writer on a NOrec-family
 * domain goes through this one rule.
 */
inline void
htmWriterCommitCheck(HtmTxn &htm, TmGlobals &g)
{
    if (htm.read(&g.fallbacks) > 0) {
        uint64_t clock = htm.read(&g.clock);
        if (clockIsLocked(clock))
            htm.abortExplicit();
        if (htm.read(&g.serialLock) != 0)
            htm.abortExplicit();
        htm.write(&g.clock, clock + 2);
    }
}

/**
 * Spin out a writer's lock bit with a caller-chosen wait strategy
 * (Backoff::pause for the pure STMs, StallAwareWaiter::step for the
 * hybrids) and return an unlocked clock value.
 */
template <typename Mem, typename Wait>
inline uint64_t
stableClockReadWith(const Mem &mem, const uint64_t *clock, Wait &&wait)
{
    uint64_t value = mem.load(clock);
    while (clockIsLocked(value)) {
        wait();
        value = mem.load(clock);
    }
    return value;
}

/**
 * Late-subscription state: the clock snapshot a software phase is
 * reading at, plus the per-read currency check against it.
 */
template <typename Mem>
class ClockSubscription
{
  public:
    ClockSubscription(Mem mem, const uint64_t *clock)
        : mem_(mem), clock_(clock)
    {}

    /** Snapshot the subscription at @p snapshot (begin/extend). */
    void
    subscribeAt(uint64_t snapshot)
    {
        version_ = snapshot;
    }

    /** The snapshot reads are currently validated against. */
    uint64_t version() const { return version_; }

    /** True while no writer has committed since the snapshot. */
    bool
    current() const
    {
        return mem_.load(clock_) == version_;
    }

  private:
    Mem mem_;
    const uint64_t *clock_;
    uint64_t version_ = 0;
};

} // namespace rhtm

#endif // RHTM_CORE_ENGINE_CLOCK_SUBSCRIPTION_H
