/**
 * @file
 * Per-transaction address-set Bloom filters and the committed-filter
 * ring (commit-path front 1, docs/COMMIT_PATH.md).
 *
 * TxFilter summarizes a transaction's read or write footprint in 256
 * bits (two probes per address). False positives only cost a spurious
 * full revalidation; false negatives are impossible by construction,
 * which is what the safety argument leans on.
 *
 * CommitFilterRing publishes committing writers' write-set summaries
 * keyed by the clock version their commit produced. A reader whose
 * snapshot fell behind walks the intervening versions: if every one
 * has a live slot whose summary is disjoint from the reader's read
 * filter, all those commits provably left the reader's logged values
 * untouched, and the reader adopts the new snapshot without
 * re-reading a single value. Any gap -- an overwritten slot, a
 * version nobody published (e.g. an HTM fast-path commit, which must
 * never publish from inside a speculative region), a filter
 * intersection -- falls back to the full value revalidation, so the
 * ring is pure go-fast metadata: it can only ever decline to help.
 *
 * Publication protocol: only the clock-lock holder publishes, always
 * BEFORE its clock release, so at most one publisher is active per
 * domain and a reader that observed clock == v is guaranteed (by the
 * release/acquire pair on the slot version and the seq_cst clock
 * store) to see v's bits if the slot has not been recycled. The
 * per-slot version is checked before AND after the bits are read;
 * versions per slot strictly increase, so a torn read cannot pass.
 */

#ifndef RHTM_CORE_ENGINE_FILTER_H
#define RHTM_CORE_ENGINE_FILTER_H

#include <atomic>
#include <cstdint>

#include "src/htm/fixed_table.h"

namespace rhtm
{

/**
 * 256-bit Bloom summary of a word-address set; two probe bits per
 * address derived from one multiplicative hash.
 */
class TxFilter
{
  public:
    static constexpr unsigned kWords = 4;
    static constexpr unsigned kBits = kWords * 64;

    void
    add(const void *addr)
    {
        uint64_t h = mixHash(reinterpret_cast<uint64_t>(addr));
        setBit(h & (kBits - 1));
        setBit((h >> 16) & (kBits - 1));
    }

    /** May the set contain @p addr? (Never a false negative.) */
    bool
    mightContain(const void *addr) const
    {
        uint64_t h = mixHash(reinterpret_cast<uint64_t>(addr));
        return hasBit(h & (kBits - 1)) &&
               hasBit((h >> 16) & (kBits - 1));
    }

    /** May the two summarized sets share an address? */
    bool
    intersects(const uint64_t *bits) const
    {
        uint64_t hit = 0;
        for (unsigned i = 0; i < kWords; ++i)
            hit |= w_[i] & bits[i];
        return hit != 0;
    }

    bool intersects(const TxFilter &other) const
    {
        return intersects(other.w_);
    }

    void
    clear()
    {
        for (uint64_t &w : w_)
            w = 0;
    }

    bool
    empty() const
    {
        uint64_t any = 0;
        for (uint64_t w : w_)
            any |= w;
        return any == 0;
    }

    /** All bits set: the universal collision (RetryPolicy test hook). */
    void
    saturate()
    {
        for (uint64_t &w : w_)
            w = ~uint64_t(0);
    }

    const uint64_t *words() const { return w_; }

  private:
    void setBit(uint64_t bit) { w_[bit >> 6] |= uint64_t(1) << (bit & 63); }

    bool
    hasBit(uint64_t bit) const
    {
        return (w_[bit >> 6] >> (bit & 63)) & 1;
    }

    uint64_t w_[kWords] = {0, 0, 0, 0};
};

/**
 * Ring of the last kSlots committed write-set summaries, keyed by the
 * (even, unlocked) clock version each commit produced. Runtime
 * metadata like the kill switch: ordinary atomics, never
 * engine-published, so touching it cannot abort a hardware transaction
 * -- and therefore it must never be written from inside one (see the
 * file comment).
 */
struct CommitFilterRing
{
    static constexpr unsigned kSlots = 16; // Power of two.

    struct Slot
    {
        std::atomic<uint64_t> version{0};
        std::atomic<uint64_t> bits[TxFilter::kWords] = {};
    };

    Slot slots[kSlots];

    static unsigned indexOf(uint64_t version)
    {
        return static_cast<unsigned>(version >> 1) & (kSlots - 1);
    }

    /**
     * Publish @p filter as the write summary of the commit that will
     * advance the clock to @p version. Caller must hold the clock lock
     * and call this BEFORE the releasing store (outside any HTM).
     */
    void
    publish(uint64_t version, const TxFilter &filter)
    {
        Slot &s = slots[indexOf(version)];
        // Invalidate first so a concurrent walker never matches the
        // slot version against a half-replaced bit set.
        s.version.store(0, std::memory_order_relaxed);
        for (unsigned i = 0; i < TxFilter::kWords; ++i)
            s.bits[i].store(filter.words()[i], std::memory_order_relaxed);
        s.version.store(version, std::memory_order_release);
    }

    /**
     * True when every commit in (@p from, @p to] (both even, unlocked
     * versions) published a summary provably disjoint from @p read.
     * False on any doubt: a missing/recycled slot, an unpublished
     * version, or a (possibly false-positive) intersection.
     */
    bool
    coveredDisjoint(uint64_t from, uint64_t to,
                    const TxFilter &read) const
    {
        if (to <= from || to - from > uint64_t(kSlots) * 2)
            return false;
        for (uint64_t v = from + 2; v <= to; v += 2) {
            const Slot &s = slots[indexOf(v)];
            if (s.version.load(std::memory_order_acquire) != v)
                return false;
            uint64_t bits[TxFilter::kWords];
            for (unsigned i = 0; i < TxFilter::kWords; ++i)
                bits[i] = s.bits[i].load(std::memory_order_relaxed);
            // Re-check: an overwrite mid-copy leaves a different (or
            // zero) version; per-slot versions strictly increase, so
            // a match proves the bits belong to v's publisher.
            if (s.version.load(std::memory_order_acquire) != v)
                return false;
            if (read.intersects(bits))
                return false;
        }
        return true;
    }

    /** Power-on state; explorer isolation (TmGlobals::resetForTest). */
    void
    resetForTest()
    {
        for (Slot &s : slots) {
            s.version.store(0, std::memory_order_relaxed);
            for (unsigned i = 0; i < TxFilter::kWords; ++i)
                s.bits[i].store(0, std::memory_order_relaxed);
        }
    }
};

} // namespace rhtm

#endif // RHTM_CORE_ENGINE_FILTER_H
