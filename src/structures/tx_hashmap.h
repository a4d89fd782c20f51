/**
 * @file
 * Transactional chained hash map (fixed bucket count), the workhorse
 * dictionary for the STAMP-style workloads (vacation reservations,
 * genome segment tables, intruder dictionaries).
 */

#ifndef RHTM_STRUCTURES_TX_HASHMAP_H
#define RHTM_STRUCTURES_TX_HASHMAP_H

#include <cstdint>
#include <memory>

#include "src/api/txn.h"

namespace rhtm
{

/**
 * Fixed-capacity chained hash map from uint64 keys to uint64 values.
 * Bucket heads are transactional words; chain nodes come from the
 * transactional heap. No resizing (the workloads size it up front),
 * which also keeps transaction footprints predictable.
 */
class TxHashMap
{
  public:
    /** @param bucket_count_log2 log2 of the bucket count. */
    explicit TxHashMap(unsigned bucket_count_log2 = 16);

    TxHashMap(const TxHashMap &) = delete;
    TxHashMap &operator=(const TxHashMap &) = delete;

    /**
     * Look up @p key.
     * @return true and set @p value_out when present.
     */
    bool get(Txn &tx, uint64_t key, uint64_t &value_out) const;

    /** True when @p key is present. */
    bool contains(Txn &tx, uint64_t key) const;

    /**
     * Insert or update @p key.
     * @return true if the key was newly inserted.
     */
    bool put(Txn &tx, uint64_t key, uint64_t value);

    /**
     * Insert @p key only if absent.
     * @return true if inserted; false if the key already existed.
     */
    bool putIfAbsent(Txn &tx, uint64_t key, uint64_t value);

    /**
     * Remove @p key.
     * @return true if the key was present.
     */
    bool remove(Txn &tx, uint64_t key);

    /**
     * Add @p delta to the value of @p key, inserting @p delta as the
     * initial value when absent. Returns the new value; the old one is
     * the result minus @p delta. One chain walk, so a read-modify-write
     * costs half the reads of get() followed by put().
     * @param found when non-null, set to whether @p key was present.
     */
    uint64_t addTo(Txn &tx, uint64_t key, uint64_t delta,
                   bool *found = nullptr);

    /** Entry count by traversal; quiescent use only. */
    uint64_t sizeUnsync() const;

    /** Free every node into @p mem; quiescent use only. */
    void clearUnsync(ThreadMem &mem);

    /** Visit (key, value) pairs; quiescent use only. */
    template <typename Fn>
    void
    forEachUnsync(Fn fn) const
    {
        for (size_t b = 0; b < bucketCount_; ++b) {
            for (Node *n = buckets_[b]; n != nullptr; n = n->next)
                fn(n->key, n->value);
        }
    }

  private:
    struct Node
    {
        uint64_t key;
        uint64_t value;
        Node *next;
    };

    /**
     * Top bits of the Fibonacci product. Callers that partition keys
     * by the low bits of a hash of the same key (ShardedStore::shardOf)
     * would otherwise leave all but 1/S of every map's buckets empty.
     */
    size_t
    bucketOf(uint64_t key) const
    {
        // A single bucket would need a shift by 64 (undefined).
        if (bucketCount_ == 1)
            return 0;
        return (key * 0x9e3779b97f4a7c15ull) >> shift_;
    }

    size_t bucketCount_;
    unsigned shift_; //!< 64 - log2(bucketCount_).
    std::unique_ptr<Node *[]> buckets_;
};

} // namespace rhtm

#endif // RHTM_STRUCTURES_TX_HASHMAP_H
