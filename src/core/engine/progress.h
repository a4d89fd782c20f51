/**
 * @file
 * Progress-guarantee layer: FIFO ticket arbitration for the serial
 * starvation lock and the stall watchdog's escalating waiter.
 *
 * The paper's serial lock (Section 3.3) guarantees that a starving
 * transaction eventually runs alone, but says nothing about *which*
 * starving transaction wins when several need the lock at once: a bare
 * CAS race can leave one unlucky thread losing indefinitely. The ticket
 * pair in TmGlobals (serialNextTicket / serialServing) closes that gap:
 * acquirers take a ticket with one fetch-add and are served strictly in
 * ticket order, so the wait for serial mode is bounded by the queue
 * length ahead of you. The TM-visible word is still `serialLock` alone
 * -- fast-path commits subscribe to it exactly as the paper specifies,
 * and the whitebox tests peek/poke it as a plain 0/1 flag.
 *
 * The stall watchdog handles the failure mode fairness cannot: the
 * *holder* of a coordination word gets preempted (or fault-delayed)
 * while everyone else burns CPU spinning on it -- which, on an
 * oversubscribed host, is exactly what keeps the holder from running.
 * Holders stamp a monotonic epoch on acquire/release; a waiter whose
 * stall budget elapses without the watched epoch moving declares a
 * stall, raises the health gauge, and escalates spin -> yield -> sleep
 * to hand the stalled holder its CPU back. See docs/PROGRESS.md.
 */

#ifndef RHTM_CORE_ENGINE_PROGRESS_H
#define RHTM_CORE_ENGINE_PROGRESS_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "src/core/engine/deadline.h"
#include "src/core/engine/globals.h"
#include "src/core/engine/retry_policy.h"
#include "src/htm/htm_engine.h"
#include "src/stats/stats.h"
#include "src/util/backoff.h"
#include "src/util/sched_point.h"

namespace rhtm
{

/**
 * One spin-loop companion: call step() every time the awaited condition
 * came up false. Tracks the watched epoch, detects a stalled holder
 * once the policy's stall budget elapses without epoch progress, and
 * escalates the wait (spin with periodic yields -> pure yields ->
 * doubling sleeps). Restores the health gauge on destruction, so a
 * waiter that exits the loop (or unwinds) never leaves the runtime
 * reported unhealthy.
 *
 * An optional DeadlineState makes the wait bounded: step() polls it
 * (throttled) and throws TxnDeadlineExceeded when the transaction's
 * deadline expires. Pass one only where the throw is safe -- nothing
 * acquired yet, so the normal abort unwind releases everything. The
 * serial FIFO wait deliberately does NOT use it (see
 * serialLockAcquire's ticket-obligation protocol).
 */
class StallAwareWaiter
{
  public:
    StallAwareWaiter(TmGlobals &g, const RetryPolicy &policy,
                     ThreadStats *stats,
                     const std::atomic<uint64_t> &epoch,
                     DeadlineState *deadline = nullptr)
        : g_(g), policy_(policy), stats_(stats), epoch_(epoch),
          lastEpoch_(epoch.load(std::memory_order_relaxed)),
          deadline_(deadline)
    {}

    ~StallAwareWaiter() { clearStall(); }

    StallAwareWaiter(const StallAwareWaiter &) = delete;
    StallAwareWaiter &operator=(const StallAwareWaiter &) = delete;

    /** Wait one step; the caller re-checks its condition after. */
    void
    step()
    {
        // Every hybrid-path unbounded wait (locked clock, htmLock,
        // serial FIFO) funnels through here; the explorer parks the
        // thread until someone else makes progress.
        schedWaitPoint(SchedPoint::kWaitSpin, &epoch_);
        if (deadline_ != nullptr)
            deadline_->poll();
        ++ticks_;
        uint64_t now = epoch_.load(std::memory_order_relaxed);
        if (now != lastEpoch_) {
            // The holder moved (acquired, released, or handed off):
            // whatever we were waiting on is being actively worked.
            lastEpoch_ = now;
            sinceProgress_ = 0;
            sleepUs_ = 0;
            clearStall();
        } else {
            ++sinceProgress_;
        }
        uint64_t budget = policy_.stallBudgetTicks;
        if (budget == 0 || sinceProgress_ < budget) {
            // Healthy phase: spin, yielding periodically so the
            // waited-on thread can run on an oversubscribed host.
            if ((ticks_ & 63) == 0)
                std::this_thread::yield();
            else
                cpuRelax();
            return;
        }
        if (!stalled_) {
            stalled_ = true;
            g_.watchdog.stallEvents.fetch_add(1,
                                              std::memory_order_relaxed);
            g_.watchdog.stalledWaiters.fetch_add(
                1, std::memory_order_relaxed);
            if (stats_)
                stats_->inc(Counter::kStallsDetected);
        }
        uint64_t over = sinceProgress_ - budget;
        if (over < policy_.stallYieldPhase) {
            if (stats_)
                stats_->inc(Counter::kStallYields);
            std::this_thread::yield();
            return;
        }
        // Yields didn't wake the holder: it is blocked behind something
        // slower than a scheduler quantum. Sleep with doubling, capped.
        uint32_t us =
            sleepUs_ == 0 ? std::max(1u, policy_.stallSleepMinUs)
                          : sleepUs_;
        sleepUs_ = std::min(us * 2, std::max(1u, policy_.stallSleepMaxUs));
        if (stats_)
            stats_->inc(Counter::kStallSleeps);
        std::this_thread::sleep_for(std::chrono::microseconds(us));
    }

    /** Total wait iterations so far. */
    uint64_t ticks() const { return ticks_; }

    /** True while this waiter has a stall declared. */
    bool stalled() const { return stalled_; }

  private:
    void
    clearStall()
    {
        if (!stalled_)
            return;
        stalled_ = false;
        g_.watchdog.stalledWaiters.fetch_sub(1,
                                             std::memory_order_relaxed);
        if (stats_)
            stats_->inc(Counter::kStallRecoveries);
    }

    TmGlobals &g_;
    const RetryPolicy &policy_;
    ThreadStats *stats_;
    const std::atomic<uint64_t> &epoch_;
    uint64_t lastEpoch_;
    DeadlineState *deadline_ = nullptr;
    uint64_t ticks_ = 0;
    uint64_t sinceProgress_ = 0;
    uint32_t sleepUs_ = 0;
    bool stalled_ = false;
};

/**
 * Acquire the serial starvation lock FIFO: take a ticket, wait
 * (stall-aware, watching the serial epoch) until served, then raise the
 * TM-visible serialLock flag the fast paths subscribe to.
 *
 * Deadline protocol (ticket obligation): an expired deadline is only
 * honored BEFORE the ticket is taken. Once ticketed, the thread is an
 * obligated link in the FIFO -- throwing out of the queue would leave
 * serialServing permanently behind serialNextTicket and wedge every
 * later acquirer -- so it waits out the (queue-bounded) turn; if the
 * deadline expired while queued, it hands the grant straight to the
 * next ticket without ever raising serialLock, then unwinds. The wait
 * therefore stays bounded by the queue ahead, which is exactly the
 * bound the FIFO already guarantees.
 */
inline void
serialLockAcquire(HtmEngine &eng, TmGlobals &g,
                  const RetryPolicy &policy, ThreadStats *stats,
                  DeadlineState *deadline = nullptr)
{
    if (deadline != nullptr)
        deadline->pollNow(); // Last throw-safe point: no ticket yet.
    schedPoint(SchedPoint::kSerialTicket, &g.serialNextTicket);
    uint64_t ticket = eng.directFetchAdd(&g.serialNextTicket, 1);
    StallAwareWaiter waiter(g, policy, stats, g.watchdog.serialEpoch);
    while (eng.directLoad(&g.serialServing) != ticket)
        waiter.step();
    // Served: we are the unique owner until we advance serialServing.
    if (stats != nullptr) {
        stats->inc(Counter::kSerialAcquires);
        stats->inc(Counter::kSerialWaitTicks, waiter.ticks());
    }
    if (deadline != nullptr && deadline->expiredNow()) {
        // Expired while queued: hand the grant on (serialLock was
        // never raised, so there is nothing to release) and unwind.
        eng.directStore(&g.serialServing, ticket + 1);
        stampEpoch(g.watchdog.serialEpoch);
        throw TxnDeadlineExceeded{};
    }
    schedPoint(SchedPoint::kSerialAcquired, &g.serialLock);
    eng.directStore(&g.serialLock, 1);
    stampEpoch(g.watchdog.serialEpoch);
}

/**
 * Release the serial lock and grant the next ticket. The TM-visible
 * flag drops *before* the grant so the next holder's `serialLock = 1`
 * can never be overwritten by our release.
 */
inline void
serialLockRelease(HtmEngine &eng, TmGlobals &g)
{
    schedPoint(SchedPoint::kSerialRelease, &g.serialLock);
    uint64_t serving = eng.directLoad(&g.serialServing);
    eng.directStore(&g.serialLock, 0);
    eng.directStore(&g.serialServing, serving + 1);
    stampEpoch(g.watchdog.serialEpoch);
}

/**
 * RAII holder for the global HTM lock: acquires with a stall-aware CAS
 * loop (watching the clock epoch) and guarantees the release on every
 * exit path -- a commit routine that validates, restarts, or throws
 * mid-critical-section can never leak the lock and doom every hardware
 * fast path forever. Call release() at the happy-path end; the
 * destructor covers the unwinds.
 */
class ScopedHtmLock
{
  public:
    ScopedHtmLock(HtmEngine &eng, TmGlobals &g,
                  const RetryPolicy &policy, ThreadStats *stats,
                  DeadlineState *deadline = nullptr)
        : eng_(eng), g_(g)
    {
        // Deadline-safe: until the CAS lands nothing is held, so the
        // waiter's poll may unwind freely.
        StallAwareWaiter waiter(g, policy, stats, g.watchdog.clockEpoch,
                                deadline);
        for (;;) {
            uint64_t expected = 0;
            if (eng_.directCas(&g_.htmLock, expected, 1))
                break;
            waiter.step();
        }
        held_ = true;
        stampEpoch(g_.watchdog.clockEpoch);
    }

    ~ScopedHtmLock() { release(); }

    ScopedHtmLock(const ScopedHtmLock &) = delete;
    ScopedHtmLock &operator=(const ScopedHtmLock &) = delete;

    /** Drop the lock early (idempotent). */
    void
    release()
    {
        if (!held_)
            return;
        held_ = false;
        eng_.directStore(&g_.htmLock, 0);
        stampEpoch(g_.watchdog.clockEpoch);
    }

    /**
     * Hand ownership to the caller: the lock stays up and this guard
     * forgets it. Used by the irrevocable upgrade, whose hold outlives
     * the acquiring scope (the session releases at commit/rollback).
     */
    void disown() { held_ = false; }

  private:
    HtmEngine &eng_;
    TmGlobals &g_;
    bool held_ = false;
};

/**
 * Read the global clock, waiting out a writer's lock bit stall-aware
 * (watching the clock epoch) instead of restarting. Returns an
 * unlocked clock value.
 */
inline uint64_t
stableClockRead(HtmEngine &eng, TmGlobals &g,
                const RetryPolicy &policy, ThreadStats *stats,
                DeadlineState *deadline = nullptr)
{
    uint64_t clock = eng.directLoad(&g.clock);
    if (!clockIsLocked(clock))
        return clock;
    StallAwareWaiter waiter(g, policy, stats, g.watchdog.clockEpoch,
                            deadline);
    do {
        waiter.step();
        clock = eng.directLoad(&g.clock);
    } while (clockIsLocked(clock));
    return clock;
}

} // namespace rhtm

#endif // RHTM_CORE_ENGINE_PROGRESS_H
