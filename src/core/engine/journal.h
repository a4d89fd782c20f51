/**
 * @file
 * Write journals and the value-based read log shared by every
 * algorithm's software phase.
 *
 * Eager algorithms (NOrec eager, hybrid NOrec, RH NOrec, TL2) write in
 * place and keep an UndoJournal of old values to replay backwards on
 * abort. Lazy algorithms buffer writes in a RedoBuffer and publish at
 * commit. Value-based algorithms (the NOrec family) additionally keep
 * a ValueReadLog and revalidate it whenever the global clock moves;
 * its read()/extend() are the one read-validation path every NOrec
 * software phase (norec, norec-lazy, hy-norec, hy-norec-lazy) runs.
 *
 * The UndoJournal inlines its first entries so the common short
 * transaction never touches the heap on its write path.
 */

#ifndef RHTM_CORE_ENGINE_JOURNAL_H
#define RHTM_CORE_ENGINE_JOURNAL_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/engine/filter.h"
#include "src/core/engine/globals.h"
#include "src/core/engine/session.h"
#include "src/htm/fixed_table.h"
#include "src/stats/stats.h"

namespace rhtm
{

/** One in-place write to undo if the transaction aborts. */
struct UndoEntry
{
    uint64_t *addr;
    uint64_t oldValue;
};

/**
 * Old-value journal for eager (write-in-place) phases. Rolled back in
 * reverse push order so a location written twice ends at its pre-txn
 * value. The first kInlineEntries live in the object itself;
 * pathological write sets spill to a vector that keeps its capacity
 * across transactions.
 */
class UndoJournal
{
  public:
    static constexpr size_t kInlineEntries = 64;

    /** Record @p addr's pre-write value. */
    void
    push(uint64_t *addr, uint64_t oldValue)
    {
        if (size_ < kInlineEntries)
            inline_[size_] = {addr, oldValue};
        else
            overflow_.push_back({addr, oldValue});
        ++size_;
    }

    /** Replay old values newest-first through @p mem. */
    template <typename Mem>
    void
    rollback(const Mem &mem)
    {
        for (size_t i = size_; i > kInlineEntries; --i) {
            const UndoEntry &e = overflow_[i - kInlineEntries - 1];
            mem.store(e.addr, e.oldValue);
        }
        size_t live = size_ < kInlineEntries ? size_ : kInlineEntries;
        for (size_t i = live; i > 0; --i) {
            const UndoEntry &e = inline_[i - 1];
            mem.store(e.addr, e.oldValue);
        }
    }

    void
    clear()
    {
        size_ = 0;
        overflow_.clear();
    }

    bool empty() const { return size_ == 0; }

    size_t size() const { return size_; }

  private:
    std::array<UndoEntry, kInlineEntries> inline_;
    std::vector<UndoEntry> overflow_;
    size_t size_ = 0;
};

/**
 * Speculative write buffer for lazy (buffered) phases: lookups service
 * read-after-write, forEach publishes in program order at commit.
 *
 * Layout (commit-path front 2, docs/COMMIT_PATH.md): a dense append
 * log of (addr, value) entries -- duplicate addresses collapse in
 * place, so forEach still visits each word exactly once -- plus a
 * stamped open-addressing index mapping address to log position, so
 * read-own-writes is O(1). A Bloom summary (front 1) pre-filters
 * lookups -- the common read of an unwritten address answers "miss"
 * from one resident cache line -- and doubles as the write filter
 * committers publish to the CommitFilterRing. (The simulated HTM keeps
 * using the fixed-capacity WriteBuffer in src/htm/fixed_table.h:
 * hardware write sets are capacity-bounded; this one grows.)
 */
class RedoBuffer
{
  public:
    /** @param slots_log2 log2 of the initial index slot count. */
    explicit RedoBuffer(unsigned slots_log2 = 10)
        : mask_((size_t(1) << slots_log2) - 1),
          idx_(size_t(1) << slots_log2), stamp_(1)
    {
        log_.reserve(256);
    }

    /** Buffer @p value for @p addr (overwrites an earlier buffering). */
    void
    putGrowing(uint64_t *addr, uint64_t value)
    {
        filter_.add(addr);
        if (log_.size() >= (mask_ + 1) / 4 * 3)
            grow();
        size_t i = mixHash(reinterpret_cast<uint64_t>(addr)) & mask_;
        for (;;) {
            IdxSlot &s = idx_[i];
            if (s.stamp != stamp_) {
                s.stamp = stamp_;
                s.pos = static_cast<uint32_t>(log_.size());
                log_.push_back({addr, value});
                return;
            }
            if (log_[s.pos].addr == addr) {
                log_[s.pos].value = value;
                return;
            }
            i = (i + 1) & mask_;
        }
    }

    /**
     * Fetch the buffered value for @p addr (read-own-writes).
     * @return true and set @p out if present.
     */
    bool
    lookup(const uint64_t *addr, uint64_t &out) const
    {
        if (log_.empty())
            return false;
        if (!filter_.mightContain(addr))
            return false; // Bloom miss is definitive (no false negatives).
        size_t i = mixHash(reinterpret_cast<uint64_t>(addr)) & mask_;
        for (;;) {
            const IdxSlot &s = idx_[i];
            if (s.stamp != stamp_)
                return false;
            if (log_[s.pos].addr == addr) {
                out = log_[s.pos].value;
                return true;
            }
            i = (i + 1) & mask_;
        }
    }

    /** Number of distinct buffered words. */
    size_t sizeWords() const { return log_.size(); }

    /** True when nothing is buffered. */
    bool empty() const { return log_.empty(); }

    /** Visit each buffered (addr, value) pair once, in program order. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const Entry &e : log_)
            fn(e.addr, e.value);
    }

    /** Bloom summary of the buffered write set. */
    const TxFilter &filter() const { return filter_; }

    /** Test hook: force the universal collision (RetryPolicy). */
    void saturateFilterForTest() { filter_.saturate(); }

    /** Discard all buffered writes in O(1). */
    void
    clear()
    {
        log_.clear();
        ++stamp_;
        filter_.clear();
    }

  private:
    struct Entry
    {
        uint64_t *addr;
        uint64_t value;
    };

    struct IdxSlot
    {
        uint32_t pos = 0;
        uint64_t stamp = 0;
    };

    /** Double the index and re-point it at the live log entries. */
    void
    grow()
    {
        size_t slots = (mask_ + 1) * 2;
        mask_ = slots - 1;
        idx_.assign(slots, IdxSlot{});
        ++stamp_;
        for (size_t pos = 0; pos < log_.size(); ++pos) {
            size_t i = mixHash(reinterpret_cast<uint64_t>(
                           log_[pos].addr)) &
                       mask_;
            while (idx_[i].stamp == stamp_)
                i = (i + 1) & mask_;
            idx_[i].stamp = stamp_;
            idx_[i].pos = static_cast<uint32_t>(pos);
        }
    }

    std::vector<Entry> log_;
    size_t mask_;
    std::vector<IdxSlot> idx_;
    uint64_t stamp_;
    TxFilter filter_;
};

/** One value-validated read (NOrec family). */
struct ReadEntry
{
    const uint64_t *addr;
    uint64_t value;
};

/**
 * Value-based read log (NOrec's validation set): remembers every
 * location/value a software read phase observed and re-checks them
 * whenever the global clock moves.
 */
class ValueReadLog
{
  public:
    ValueReadLog() { log_.reserve(1024); }

    void
    push(const uint64_t *addr, uint64_t value)
    {
        filter_.add(addr);
        log_.push_back({addr, value});
    }

    /**
     * Bloom summary of the logged read set (commit-path front 1);
     * consulted against the CommitFilterRing to skip full value
     * revalidation.
     */
    const TxFilter &filter() const { return filter_; }

    /** Test hook: force the universal collision (RetryPolicy). */
    void saturateFilterForTest() { filter_.saturate(); }

    void
    clear()
    {
        log_.clear();
        filter_.clear();
    }

    bool empty() const { return log_.empty(); }

    size_t size() const { return log_.size(); }

    /** Visit each logged address, in read order. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const ReadEntry &e : log_)
            fn(e.addr);
    }

    /** True when every logged location still holds its logged value. */
    template <typename Mem>
    bool
    consistent(const Mem &mem) const
    {
        for (const ReadEntry &e : log_) {
            if (mem.load(e.addr) != e.value)
                return false;
        }
        return true;
    }

    /**
     * NOrec's validation loop: take a stable (unlocked) clock sample,
     * value-check the log, and retry until the clock holds still
     * across the check. Returns the snapshot the log is now valid at;
     * throws TxRestart if any value changed.
     */
    template <typename Mem, typename StableRead>
    uint64_t
    revalidate(const Mem &mem, const uint64_t *clock,
               StableRead stableRead) const
    {
        for (;;) {
            uint64_t snapshot = stableRead();
            if (!consistent(mem))
                throw TxRestart{};
            if (mem.load(clock) == snapshot)
                return snapshot;
        }
    }

    /**
     * Snapshot extension: the clock moved off @p from under a software
     * read phase. Take a stable sample; if it equals @p from the mover
     * was a lock that restored. If every commit in (from, sample]
     * published a write summary disjoint from the read summary
     * (commit-path front 1), the log holds by construction and the
     * sample is adopted without the value walk -- hardware fast-path
     * commits publish nothing, so their bumps fail the slot walk.
     * Otherwise revalidate(). Returns the snapshot the log is valid
     * at; throws TxRestart if a logged value changed.
     */
    template <typename Mem, typename StableRead>
    uint64_t
    extend(const Mem &mem, const TmGlobals &g, uint64_t from,
           StableRead stableRead, ThreadStats *stats) const
    {
        uint64_t cur = stableRead();
        if (cur == from)
            return cur;
        if (g.filterRing.coveredDisjoint(from, cur, filter_)) {
            if (stats != nullptr)
                stats->inc(Counter::kRevalidationsSkipped);
            return cur;
        }
        if (stats != nullptr)
            stats->inc(Counter::kRevalidations);
        return revalidate(mem, &g.clock, stableRead);
    }

    /**
     * NOrec's validated read: load @p addr and, while the clock is off
     * @p snapshot, move the snapshot with @p advance (extend() above,
     * possibly wrapped; it throws TxRestart on a changed value) and
     * reload. Logs and returns the value consistent with @p snapshot.
     */
    template <typename Mem, typename Advance>
    uint64_t
    read(const Mem &mem, const uint64_t *addr, const uint64_t *clock,
         uint64_t &snapshot, Advance advance)
    {
        uint64_t v = mem.load(addr);
        while (mem.load(clock) != snapshot) {
            snapshot = advance();
            v = mem.load(addr);
        }
        push(addr, v);
        return v;
    }

  private:
    std::vector<ReadEntry> log_;
    TxFilter filter_;
};

} // namespace rhtm

#endif // RHTM_CORE_ENGINE_JOURNAL_H
