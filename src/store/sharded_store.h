/**
 * @file
 * ShardedStore: a multi-shard transactional key-value store built on
 * shard-scoped TM domains (docs/STORE.md).
 *
 * Each shard is a full TmRuntime -- its own TmDomain (coordination
 * words, kill switch, watchdog, admission gate), its own simulated-HTM
 * engine, its own memory manager -- holding a hash-partitioned slice of
 * the key space in two transactional structures: a TxHashMap (the
 * authoritative key -> value table, point reads/writes) and a TxRbTree
 * (an ordered index backing range scans). The index maps each key to
 * the address of its value word inside the hash map's node, so a scan
 * loads each value with one read instead of a second chain walk. Two
 * invariants keep every such address valid for the life of the store:
 *
 *  - ShardedStore never removes a key. Nothing here calls
 *    TxHashMap::remove, so a committed map node is never freed or
 *    moved until the store is destroyed.
 *  - An index entry and its map node are created in the same native
 *    transaction (put or single-shard multiRmw of a fresh key). An
 *    aborted attempt rolls back the node's allocation and the entry
 *    that points at it together.
 *
 * Single-shard operations (get / put / scan) run as ordinary native
 * transactions on the owning shard, with the full per-shard machinery
 * (fast paths, fallback, deadlines, admission). Multi-key RMWs whose
 * keys span shards run as cross-shard transactions over per-shard
 * CrossShardPart sessions. On the hybrid NOrec kinds (family B) the
 * RMW first runs as one hardware transaction over every involved
 * shard's engine, retried like a native fast path. Every other kind,
 * and family B once its hardware attempts give up, freezes the
 * involved shards in ascending domain-id order (each family's
 * blocking exclusion; family B takes the clock and raises htmLock,
 * as RH NOrec's slow-path writer does): the body reads directly,
 * every part publishes with plain stores while every shard is still
 * frozen, and the parts release in reverse. A frozen RMW makes one
 * attempt: only a deadline can unwind it. Multi-shard atomicity thus
 * rests on the locks hardware transactions subscribe to (the freeze)
 * or on one multi-engine hardware commit (HtmTxn::commitJoint).
 *
 * Range scans are per-shard operations: keys hash across shards, so a
 * key-range scan addresses one shard's ordered index (the OLTP loop
 * picks a shard and scans its slice). A store-wide scan is a loop over
 * shards and is NOT atomic across them; the rb-tree index is only ever
 * mutated by native single-shard transactions (cross-shard bodies
 * touch the hash map alone).
 *
 * History checking hooks in through StoreObserver WITHOUT this layer
 * depending on src/check: the store reports committed operations as
 * flat read/write sets and the test/bench layer (which may include
 * src/check) turns them into checker events.
 */

#ifndef RHTM_STORE_SHARDED_STORE_H
#define RHTM_STORE_SHARDED_STORE_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/api/runtime.h"
#include "src/store/cross_txn.h"
#include "src/structures/tx_hashmap.h"
#include "src/structures/tx_rbtree.h"

namespace rhtm
{

/** Everything configurable about a ShardedStore. */
struct StoreConfig
{
    /** Number of shards (each a full TmRuntime + TmDomain). */
    unsigned shards = 4;

    /** TM algorithm every shard runs. */
    AlgoKind kind = AlgoKind::kRhNOrec;

    /** Per-shard runtime configuration (applied to every shard). */
    RuntimeConfig runtime;

    /** log2 of each shard's hash-map bucket count. */
    unsigned hashBucketsLog2 = 14;
};

/** Per-request bounds (mirrors TxnOptions for store operations). */
struct StoreOpts
{
    /** Wall-clock budget; zero = unbounded. */
    std::chrono::nanoseconds deadline{0};

    /** Permit the shard's admission gate to shed the request. */
    bool allowShed = true;
};

/**
 * One committed store operation, reported to the observer as flat
 * key/value read and write sets (each in execution order). Reads that
 * observed the operation's own earlier write (duplicate keys in a
 * multi-key RMW) are omitted: they carry no external constraint, and
 * the flat layout cannot express their position among the writes.
 */
struct StoreOpRecord
{
    unsigned worker = 0;
    std::vector<std::pair<uint64_t, uint64_t>> reads;
    std::vector<std::pair<uint64_t, uint64_t>> writes;
};

/**
 * Synchronous operation observer for history checking. onTxnBegin is
 * invoked before the operation's first attempt starts, onTxnCommit
 * after its commit has returned -- real-time sound bracketing for a
 * serializability checker. Callbacks run on the worker's thread;
 * implementations synchronize internally.
 */
class StoreObserver
{
  public:
    virtual ~StoreObserver() = default;
    virtual void onTxnBegin(unsigned worker) = 0;
    virtual void onTxnCommit(const StoreOpRecord &rec) = 0;
};

class ShardedStore;

/**
 * A store client bound to one OS thread: a registered ThreadCtx plus a
 * CrossShardPart on every shard. Obtain via ShardedStore::
 * registerWorker(); not shareable across threads.
 */
class StoreWorker
{
  public:
    unsigned id() const { return id_; }

  private:
    friend class ShardedStore;

    explicit StoreWorker(unsigned id) : id_(id) {}

    unsigned id_;
    std::vector<ThreadCtx *> ctxs_; //!< One per shard.
    std::vector<std::unique_ptr<CrossShardPart>> parts_;
    // Per-call scratch, reused so a steady-state operation allocates
    // nothing: scan()'s index entries, multiRmw()'s (shard, key) list,
    // and a cross-shard RMW's involved parts (with their shards) in
    // domain order, plus their hardware transactions.
    std::vector<std::pair<int64_t, int64_t>> scanEntries_;
    std::vector<std::pair<unsigned, uint64_t>> rmwByShard_;
    std::vector<std::pair<CrossShardPart *, unsigned>> crossOrder_;
    std::vector<HtmTxn *> crossHtm_; //!< crossOrder_'s hardware parts.
};

class ShardedStore
{
  public:
    explicit ShardedStore(StoreConfig cfg);
    ~ShardedStore();

    ShardedStore(const ShardedStore &) = delete;
    ShardedStore &operator=(const ShardedStore &) = delete;

    /** Register the calling thread on every shard; thread safe. */
    StoreWorker &registerWorker();

    /** Shard owning @p key (hash partitioning). */
    unsigned shardOf(uint64_t key) const;

    /**
     * A deterministic key owned by @p shard, distinct per @p salt
     * (disjoint-key workloads: worker w uses salts {w*K .. w*K+K-1}).
     */
    uint64_t keyForShard(unsigned shard, uint64_t salt) const;

    /**
     * Insert keys 0 .. keyCount-1 with @p value (native transactions
     * on each owning shard). Call before the timed phase.
     */
    void seed(StoreWorker &w, uint64_t keyCount, uint64_t value);

    /** Point lookup. @p found reports presence on kCommitted. */
    TxnOutcome get(StoreWorker &w, uint64_t key, uint64_t &valueOut,
                   bool &found, const StoreOpts &opts = StoreOpts());

    /** Point insert-or-update. */
    TxnOutcome put(StoreWorker &w, uint64_t key, uint64_t value,
                   const StoreOpts &opts = StoreOpts());

    /**
     * Range scan of @p shard's slice: every (key, value) with
     * lo <= key <= hi in ascending order, up to @p limit (0 = all).
     *
     * Known gap: a key first created by a cross-shard multiRmw lands
     * in the hash map but not in the index (cross-shard bodies never
     * touch the index), so scans miss it; get() still finds it.
     */
    TxnOutcome scan(StoreWorker &w, unsigned shard, uint64_t lo,
                    uint64_t hi, size_t limit,
                    std::vector<std::pair<uint64_t, uint64_t>> &out,
                    const StoreOpts &opts = StoreOpts());

    /**
     * Atomically add @p delta to every key in @p keys (duplicates
     * allowed; applied once per occurrence). Keys on one shard commit
     * natively; keys spanning shards commit as one multi-engine
     * hardware transaction (family B) or freeze the involved shards
     * in domain order and commit once (opts.deadline bounds the
     * attempts and the waits).
     */
    TxnOutcome multiRmw(StoreWorker &w,
                        const std::vector<uint64_t> &keys,
                        uint64_t delta,
                        const StoreOpts &opts = StoreOpts());

    /** Counter totals summed over every shard's runtime. */
    StatsSummary stats() const;

    /** One shard's counter totals. */
    StatsSummary shardStats(unsigned shard) const;

    /** Zero every shard's statistics (workers must be quiescent). */
    void resetStats();

    /** Shard count. */
    unsigned shardCount() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /** A shard's runtime (white-box tests). */
    TmRuntime &shardRuntime(unsigned shard) { return *shards_[shard]; }

    /** Install (or clear) the operation observer; quiescent use only. */
    void setObserver(StoreObserver *observer) { observer_ = observer; }

    const StoreConfig &config() const { return cfg_; }

  private:
    struct Shard;

    /**
     * Run @p body(tx, rec) as one native transaction on @p shard. @p rec
     * is null without an observer, so unobserved ops record nothing.
     */
    template <typename Body>
    TxnOutcome runNative(StoreWorker &w, unsigned shard,
                         const StoreOpts &opts, Body &&body);
    /** Commit w.rmwByShard_ (sorted, spanning shards) cross-shard. */
    TxnOutcome runCross(StoreWorker &w, uint64_t delta,
                        const StoreOpts &opts);

    StoreConfig cfg_;
    std::vector<std::unique_ptr<TmRuntime>> shards_;
    std::vector<std::unique_ptr<Shard>> data_;
    std::vector<std::unique_ptr<StoreWorker>> workers_;
    std::mutex registerLock_;
    StoreObserver *observer_ = nullptr;
};

} // namespace rhtm

#endif // RHTM_STORE_SHARDED_STORE_H
