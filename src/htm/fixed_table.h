/**
 * @file
 * Bounded open-addressing hash containers with O(1) clear.
 *
 * The simulated HTM's read/write tracking sets are bounded by the
 * capacity model. Each table starts small, doubles on demand up to a
 * maximum derived from that capacity, and keeps its size across
 * transactions, so a thread's tables fit its largest transaction and
 * steady-state bookkeeping is allocation-free. Stamped slots (clear =
 * bump the stamp) make reset O(1), the way hardware tracking sets are.
 */

#ifndef RHTM_HTM_FIXED_TABLE_H
#define RHTM_HTM_FIXED_TABLE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rhtm
{

/** Multiplicative hash spreading pointer-like keys. */
inline uint64_t
mixHash(uint64_t key)
{
    key *= 0x9e3779b97f4a7c15ull;
    key ^= key >> 32;
    return key;
}

/** log2 of every table's initial slot count (or its smaller maximum). */
constexpr unsigned kInitialSlotsLog2 = 6;

/** Largest table: WriteBuffer's program-order log holds uint32_t slots. */
constexpr unsigned kMaxSlotsLog2 = 32;

/**
 * Live keys at which a table of @p slots grows, or is full when it is
 * already at @p max_slots. Below the maximum a table grows at 1/4 load
 * to keep linear-probe chains short (a miss at 3/4 load probes about 8
 * slots, and every transactional read after a write misses in the
 * write buffer); only the maximum fills to 3/4.
 */
inline size_t
loadLimit(size_t slots, size_t max_slots)
{
    return slots == max_slots ? slots / 4 * 3 : slots / 4;
}

/**
 * log2 of the smallest table whose 3/4 load limit holds @p live keys
 * (capped at kMaxSlotsLog2, far beyond any memory a transaction can
 * touch).
 */
inline unsigned
slotsLog2ForLoad(size_t live)
{
    unsigned log2 = 0;
    while (log2 < kMaxSlotsLog2 && (size_t(1) << log2) / 4 * 3 < live)
        ++log2;
    return log2;
}

/**
 * Bounded set of uint64_t keys (key 0 allowed).
 *
 * Starts at 2^min(kInitialSlotsLog2, max_log2) slots and doubles at its
 * loadLimit(), up to 2^max_log2; it keeps its largest size across
 * clear(). insert() reports whether the key was newly added, and fails
 * once the maximum is 3/4 full -- the caller treats that as a capacity
 * overflow.
 */
class FixedHashSet
{
  public:
    /** @param max_log2 log2 of the largest slot count. */
    explicit FixedHashSet(unsigned max_log2)
        : maxSlots_(size_t(1) << max_log2),
          slots_(size_t(1) << std::min(kInitialSlotsLog2, max_log2)),
          mask_(slots_.size() - 1),
          limit_(loadLimit(slots_.size(), maxSlots_)), stamp_(1), size_(0)
    {}

    /**
     * Insert @p key.
     *
     * @param key Key to add.
     * @param inserted Set true if the key was not present.
     * @return false when the table is full (key not added).
     */
    bool
    insert(uint64_t key, bool &inserted)
    {
        if (size_ >= limit_) {
            if (mask_ + 1 == maxSlots_) {
                inserted = false;
                return contains(key);
            }
            grow();
        }
        Slot &s = slots_[find(key)];
        inserted = s.stamp != stamp_;
        if (inserted) {
            s.stamp = stamp_;
            s.key = key;
            ++size_;
        }
        return true;
    }

    /** True if @p key is present. */
    bool
    contains(uint64_t key) const
    {
        return slots_[find(key)].stamp == stamp_;
    }

    /** Number of keys currently stored. */
    size_t size() const { return size_; }

    /** Forget all keys in O(1). */
    void
    clear()
    {
        ++stamp_;
        size_ = 0;
    }

  private:
    struct Slot
    {
        uint64_t key = 0;
        uint64_t stamp = 0;
    };

    /** Slot holding @p key, or the free slot ending its probe chain. */
    size_t
    find(uint64_t key) const
    {
        size_t idx = mixHash(key) & mask_;
        while (slots_[idx].stamp == stamp_ && slots_[idx].key != key)
            idx = (idx + 1) & mask_;
        return idx;
    }

    /** Double the slot count, rehashing the live keys. */
    void
    grow()
    {
        std::vector<Slot> old(std::move(slots_));
        slots_ = std::vector<Slot>(old.size() * 2);
        mask_ = slots_.size() - 1;
        limit_ = loadLimit(slots_.size(), maxSlots_);
        for (const Slot &s : old) {
            if (s.stamp == stamp_)
                slots_[find(s.key)] = s;
        }
    }

    size_t maxSlots_;
    std::vector<Slot> slots_;
    size_t mask_;
    size_t limit_;
    uint64_t stamp_;
    size_t size_;
};

/**
 * Bounded map from word address to buffered value that visits the live
 * entries in program order (the order each word was first buffered).
 * Grows like FixedHashSet.
 */
class WriteBuffer
{
  public:
    /** @param max_log2 log2 of the largest slot count. */
    explicit WriteBuffer(unsigned max_log2)
        : maxSlots_(size_t(1) << max_log2),
          slots_(size_t(1) << std::min(kInitialSlotsLog2, max_log2)),
          mask_(slots_.size() - 1),
          limit_(loadLimit(slots_.size(), maxSlots_)), stamp_(1)
    {}

    /**
     * Buffer @p value for @p addr (overwrites an earlier buffering).
     * @return false when the buffer is full (capacity overflow).
     */
    bool
    put(uint64_t *addr, uint64_t value)
    {
        if (order_.size() >= limit_) {
            if (mask_ + 1 == maxSlots_)
                return false;
            grow();
        }
        const size_t idx = find(addr);
        Slot &s = slots_[idx];
        if (s.stamp != stamp_) {
            s.stamp = stamp_;
            s.addr = addr;
            order_.push_back(static_cast<uint32_t>(idx));
        }
        s.value = value;
        return true;
    }

    /**
     * Fetch the buffered value for @p addr.
     * @return true and set @p out if present.
     */
    bool
    lookup(const uint64_t *addr, uint64_t &out) const
    {
        const Slot &s = slots_[find(addr)];
        if (s.stamp != stamp_)
            return false;
        out = s.value;
        return true;
    }

    /** Number of distinct buffered words. */
    size_t sizeWords() const { return order_.size(); }

    /** True when nothing is buffered. */
    bool empty() const { return order_.empty(); }

    /** Visit each buffered (addr, value) pair once, in program order. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (uint32_t idx : order_) {
            const Slot &s = slots_[idx];
            fn(s.addr, s.value);
        }
    }

    /** Discard all buffered writes in O(1). */
    void
    clear()
    {
        ++stamp_;
        order_.clear();
    }

  private:
    struct Slot
    {
        uint64_t *addr = nullptr;
        uint64_t value = 0;
        uint64_t stamp = 0;
    };

    /** Slot holding @p addr, or the free slot ending its probe chain. */
    size_t
    find(const uint64_t *addr) const
    {
        size_t idx = mixHash(reinterpret_cast<uint64_t>(addr)) & mask_;
        while (slots_[idx].stamp == stamp_ && slots_[idx].addr != addr)
            idx = (idx + 1) & mask_;
        return idx;
    }

    /** Double the slot count, rehashing the live entries in order. */
    void
    grow()
    {
        std::vector<Slot> old(std::move(slots_));
        slots_ = std::vector<Slot>(old.size() * 2);
        mask_ = slots_.size() - 1;
        limit_ = loadLimit(slots_.size(), maxSlots_);
        for (uint32_t &idx : order_) {
            const Slot &s = old[idx];
            idx = static_cast<uint32_t>(find(s.addr));
            slots_[idx] = s;
        }
    }

    size_t maxSlots_;
    std::vector<Slot> slots_;
    size_t mask_;
    size_t limit_;
    uint64_t stamp_;
    std::vector<uint32_t> order_;
};

} // namespace rhtm

#endif // RHTM_HTM_FIXED_TABLE_H
