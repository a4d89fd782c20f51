/**
 * @file
 * CommitSeqlock: the NOrec-family commit protocol over the global
 * clock's lock bit.
 *
 * Every software writer in the NOrec family commits the same way: CAS
 * the clock from its read snapshot to the locked value (failure means
 * a concurrent commit -- revalidate or restart), write back or write
 * in place under the lock, then either advance the clock by one
 * version (a writer committed: readers must revalidate) or restore the
 * snapshot (nothing became visible: readers may proceed). This object
 * owns that word-level protocol; sessions keep only the decision of
 * *when* to advance versus restore.
 *
 * Hybrid sessions pass the watchdog's clock epoch so lock transitions
 * stamp holder progress (docs/PROGRESS.md); the pure STMs pass none
 * and skip the stamping, exactly as before the engine extraction.
 */

#ifndef RHTM_CORE_ENGINE_COMMIT_SEQLOCK_H
#define RHTM_CORE_ENGINE_COMMIT_SEQLOCK_H

#include <atomic>
#include <cstdint>

#include "src/core/engine/globals.h"
#include "src/util/sched_point.h"

namespace rhtm
{

template <typename Mem>
class CommitSeqlock
{
  public:
    CommitSeqlock(Mem mem, uint64_t *clock,
                  std::atomic<uint64_t> *epoch = nullptr)
        : mem_(mem), clock_(clock), epoch_(epoch)
    {}

    /**
     * One-shot acquire: CAS the clock from @p snapshot to its locked
     * value. False means a concurrent commit moved the clock first.
     */
    bool
    tryAcquireAt(uint64_t snapshot)
    {
        // Dedicated point (on top of the Mem-level one inside cas):
        // the explorer can tell "about to take the commit lock" from
        // generic clock traffic, and can wedge another commit between
        // a session's validation and its CAS.
        schedPoint(SchedPoint::kSeqlockAcquire, clock_);
        uint64_t expected = snapshot;
        if (!mem_.cas(clock_, expected, clockWithLock(snapshot)))
            return false;
        stamp();
        return true;
    }

    /**
     * Acquire with revalidation: on every CAS failure call
     * @p revalidate, which must either throw TxRestart or return the
     * new snapshot to retry from. Returns the snapshot the lock was
     * taken at.
     */
    template <typename Revalidate>
    uint64_t
    acquireValidating(uint64_t snapshot, Revalidate revalidate)
    {
        while (!tryAcquireAt(snapshot))
            snapshot = revalidate();
        return snapshot;
    }

    /**
     * Blocking acquire for serialized/irrevocable entry: sample a
     * stable clock via @p stableRead, CAS it locked, and wait with
     * @p wait between failed rounds. Returns the locked-at snapshot.
     */
    template <typename StableRead, typename Wait>
    uint64_t
    acquireBlocking(StableRead stableRead, Wait &&wait)
    {
        for (;;) {
            uint64_t snapshot = stableRead();
            if (tryAcquireAt(snapshot))
                return snapshot;
            wait();
        }
    }

    /** A writer committed: unlock and advance one version. */
    void
    releaseAdvance(uint64_t snapshot)
    {
        schedPoint(SchedPoint::kSeqlockRelease, clock_);
        mem_.store(clock_, clockUnlockAndAdvance(snapshot));
        stamp();
    }

    /**
     * releaseAdvance that first publishes @p filter (the committer's
     * write-set summary) into @p ring under the version this release
     * produces (commit-path front 1). Must run outside any HTM region:
     * the ring is non-speculative metadata, and a premature
     * publication would survive an abort.
     */
    void
    releaseAdvance(uint64_t snapshot, CommitFilterRing &ring,
                   const TxFilter &filter)
    {
        ring.publish(clockUnlockAndAdvance(snapshot), filter);
        releaseAdvance(snapshot);
    }

    /** Nothing became visible: unlock by restoring the snapshot. */
    void
    releaseRestore(uint64_t snapshot)
    {
        schedPoint(SchedPoint::kSeqlockRelease, clock_);
        mem_.store(clock_, snapshot);
        stamp();
    }

  private:
    void
    stamp()
    {
        if (epoch_ != nullptr)
            stampEpoch(*epoch_);
    }

    Mem mem_;
    uint64_t *clock_;
    std::atomic<uint64_t> *epoch_;
};

} // namespace rhtm

#endif // RHTM_CORE_ENGINE_COMMIT_SEQLOCK_H
