#include "src/store/sharded_store.h"

#include <algorithm>
#include <cstdlib>

#include "src/util/backoff.h"

namespace rhtm
{

namespace
{

/**
 * A read that observed this txn's own earlier write (duplicate key in
 * the RMW set) is not an external read; recording it would misorder
 * against the record's flat reads-then-writes layout.
 */
bool
alreadyWrote(const StoreOpRecord &rec, uint64_t key)
{
    for (const auto &[wk, wv] : rec.writes) {
        (void)wv;
        if (wk == key)
            return true;
    }
    return false;
}

} // namespace

struct ShardedStore::Shard
{
    explicit Shard(unsigned bucketsLog2) : values(bucketsLog2) {}

    /** Index @p key, whose value word in `values` is @p slot. */
    void
    indexKey(Txn &tx, uint64_t key, uint64_t *slot)
    {
        index.put(tx, static_cast<int64_t>(key),
                  static_cast<int64_t>(reinterpret_cast<uintptr_t>(slot)));
    }

    /** The value word an index entry points at. */
    static const uint64_t *
    slotOf(int64_t entry)
    {
        return reinterpret_cast<const uint64_t *>(
            static_cast<uintptr_t>(entry));
    }

    TxHashMap values; //!< Authoritative key -> value table.
    TxRbTree index;   //!< Key -> value slot in `values` (native ops only).
};

ShardedStore::ShardedStore(StoreConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.shards == 0)
        cfg_.shards = 1;
    shards_.reserve(cfg_.shards);
    data_.reserve(cfg_.shards);
    // Shards are built one after another, and each TmRuntime's domain
    // takes its id from a monotonic counter, so domain ids ascend with
    // the shard index. runCross relies on this: shard order is the
    // cross-shard lock acquisition order.
    for (unsigned s = 0; s < cfg_.shards; ++s) {
        RuntimeConfig rc = cfg_.runtime;
        // Decorrelate per-shard RNG streams (contention managers,
        // injectors) without changing the caller-visible seed.
        rc.rngSeed = cfg_.runtime.rngSeed + s * 0x9e3779b9u;
        shards_.push_back(std::make_unique<TmRuntime>(cfg_.kind, rc));
        data_.push_back(std::make_unique<Shard>(cfg_.hashBucketsLog2));
    }
}

ShardedStore::~ShardedStore()
{
    // Drain the structures back into a thread arena so node memory is
    // not leaked; any registered worker's arena serves (quiescent).
    if (!workers_.empty()) {
        for (unsigned s = 0; s < shardCount(); ++s) {
            ThreadMem &mem = workers_[0]->ctxs_[s]->mem();
            data_[s]->values.clearUnsync(mem);
            data_[s]->index.clearUnsync(mem);
        }
    }
}

StoreWorker &
ShardedStore::registerWorker()
{
    std::lock_guard<std::mutex> guard(registerLock_);
    auto worker = std::unique_ptr<StoreWorker>(
        new StoreWorker(static_cast<unsigned>(workers_.size())));
    for (unsigned s = 0; s < shardCount(); ++s) {
        ThreadCtx &ctx = shards_[s]->registerThread();
        worker->ctxs_.push_back(&ctx);
        worker->parts_.push_back(std::make_unique<CrossShardPart>(
            *shards_[s], ctx, worker->id()));
    }
    workers_.push_back(std::move(worker));
    return *workers_.back();
}

unsigned
ShardedStore::shardOf(uint64_t key) const
{
    key *= 0x9e3779b97f4a7c15ull;
    key ^= key >> 32;
    return static_cast<unsigned>(key % shards_.size());
}

uint64_t
ShardedStore::keyForShard(unsigned shard, uint64_t salt) const
{
    // Distinct salts probe distinct 1024-key windows, so the returned
    // keys never collide across salts; the hash spreads shards finely
    // enough that a window always contains every shard.
    uint64_t base = salt * 1024;
    for (uint64_t j = 0; j < 1024; ++j) {
        if (shardOf(base + j) == shard)
            return base + j;
    }
    std::abort();
}

void
ShardedStore::seed(StoreWorker &w, uint64_t keyCount, uint64_t value)
{
    for (uint64_t key = 0; key < keyCount; ++key)
        put(w, key, value);
}

template <typename Body>
TxnOutcome
ShardedStore::runNative(StoreWorker &w, unsigned shard,
                        const StoreOpts &opts, Body &&body)
{
    StoreOpRecord rec;
    StoreOpRecord *record = nullptr;
    if (observer_ != nullptr) {
        rec.worker = w.id();
        record = &rec;
        observer_->onTxnBegin(w.id());
    }
    TxnOptions topts;
    topts.deadline = opts.deadline;
    topts.allowShed = opts.allowShed;
    TxnOutcome out =
        shards_[shard]->runWith(*w.ctxs_[shard], topts, [&](Txn &tx) {
            rec.reads.clear();
            rec.writes.clear();
            body(tx, record);
        });
    if (out == TxnOutcome::kCommitted && record != nullptr)
        observer_->onTxnCommit(rec);
    return out;
}

TxnOutcome
ShardedStore::get(StoreWorker &w, uint64_t key, uint64_t &valueOut,
                  bool &found, const StoreOpts &opts)
{
    unsigned s = shardOf(key);
    bool f = false;
    uint64_t v = 0;
    TxnOutcome out = runNative(w, s, opts, [&](Txn &tx, StoreOpRecord *rec) {
        f = data_[s]->values.get(tx, key, v);
        if (f && rec != nullptr)
            rec->reads.emplace_back(key, v);
    });
    if (out == TxnOutcome::kCommitted) {
        found = f;
        valueOut = v;
    }
    return out;
}

TxnOutcome
ShardedStore::put(StoreWorker &w, uint64_t key, uint64_t value,
                  const StoreOpts &opts)
{
    unsigned s = shardOf(key);
    Shard &sh = *data_[s];
    return runNative(w, s, opts, [&](Txn &tx, StoreOpRecord *rec) {
        uint64_t *slot = nullptr;
        if (sh.values.put(tx, key, value, &slot))
            sh.indexKey(tx, key, slot);
        if (rec != nullptr)
            rec->writes.emplace_back(key, value);
    });
}

TxnOutcome
ShardedStore::scan(StoreWorker &w, unsigned shard, uint64_t lo,
                   uint64_t hi, size_t limit,
                   std::vector<std::pair<uint64_t, uint64_t>> &out,
                   const StoreOpts &opts)
{
    Shard &sh = *data_[shard];
    std::vector<std::pair<int64_t, int64_t>> &entries = w.scanEntries_;
    return runNative(w, shard, opts, [&](Txn &tx, StoreOpRecord *rec) {
        out.clear();
        entries.clear();
        sh.index.scanRange(tx, static_cast<int64_t>(lo),
                           static_cast<int64_t>(hi), limit, entries);
        // One load per key: the entry points at the value word.
        for (const auto &[key, slot] : entries)
            out.emplace_back(static_cast<uint64_t>(key),
                             tx.load(Shard::slotOf(slot)));
        if (rec != nullptr)
            rec->reads = out;
    });
}

TxnOutcome
ShardedStore::multiRmw(StoreWorker &w,
                       const std::vector<uint64_t> &keys,
                       uint64_t delta, const StoreOpts &opts)
{
    std::vector<std::pair<unsigned, uint64_t>> &byShard = w.rmwByShard_;
    byShard.clear();
    for (uint64_t key : keys)
        byShard.emplace_back(shardOf(key), key);
    std::sort(byShard.begin(), byShard.end());

    bool single = true;
    for (const auto &[s, key] : byShard) {
        (void)key;
        if (s != byShard.front().first) {
            single = false;
            break;
        }
    }
    if (single && !byShard.empty()) {
        unsigned s = byShard.front().first;
        Shard &sh = *data_[s];
        return runNative(w, s, opts, [&](Txn &tx, StoreOpRecord *rec) {
            for (const auto &[unused, key] : byShard) {
                (void)unused;
                bool f = false;
                uint64_t *slot = nullptr;
                uint64_t next = sh.values.addTo(tx, key, delta, &f, &slot);
                // A duplicate key finds the node its first visit made.
                if (!f)
                    sh.indexKey(tx, key, slot);
                if (rec == nullptr)
                    continue;
                if (f && !alreadyWrote(*rec, key))
                    rec->reads.emplace_back(key, next - delta);
                rec->writes.emplace_back(key, next);
            }
        });
    }
    if (byShard.empty())
        return TxnOutcome::kCommitted;
    return runCross(w, delta, opts);
}

TxnOutcome
ShardedStore::runCross(StoreWorker &w, uint64_t delta,
                       const StoreOpts &opts)
{
    const std::vector<std::pair<unsigned, uint64_t>> &byShard =
        w.rmwByShard_;
    // Involved shards, ordered by domain id (= freeze order). byShard
    // is sorted by shard index, and domain ids ascend with the shard
    // index (see the constructor), so the shards come out in domain
    // order as they are deduplicated.
    std::vector<std::pair<CrossShardPart *, unsigned>> &order =
        w.crossOrder_;
    order.clear();
    for (const auto &[s, key] : byShard) {
        (void)key;
        if (order.empty() || order.back().second != s)
            order.emplace_back(w.parts_[s].get(), s);
    }

    TmRuntime &rt0 = order.front().first->runtime();
    ThreadCtx &ctx0 = order.front().first->threadCtx();
    AdmissionGate *gate = rt0.admission();
    if (gate != nullptr &&
        !gate->admit(rt0.engine(), rt0.globals(), rt0.config().retry,
                     &ctx0.mutableStats(), nullptr, ctx0.injector(),
                     opts.allowShed)) {
        return TxnOutcome::kAdmissionShed;
    }

    if (observer_ != nullptr)
        observer_->onTxnBegin(w.id());

    DeadlineState &deadline = ctx0.deadlineState();
    if (opts.deadline.count() > 0)
        deadline.arm(DeadlineState::Clock::now() + opts.deadline);

    // The body runs on whichever mode the parts are in. The observer
    // keeps only the attempt that commits.
    StoreOpRecord rec;
    rec.worker = w.id();
    auto body = [&]() {
        rec.reads.clear();
        rec.writes.clear();
        for (auto &[p, s] : order) {
            ThreadCtx &ctx = *w.ctxs_[s];
            Txn tx(p, &ctx.mem(), ctx.tid(), &ctx.actions());
            for (const auto &[ks, key] : byShard) {
                if (ks != s)
                    continue;
                bool f = false;
                uint64_t next = data_[s]->values.addTo(tx, key, delta, &f);
                if (observer_ == nullptr)
                    continue;
                if (f && !alreadyWrote(rec, key))
                    rec.reads.emplace_back(key, next - delta);
                rec.writes.emplace_back(key, next);
            }
        }
    };
    // Release in reverse domain order, then run each shard's abort
    // actions: nothing was published.
    auto rollback = [&]() {
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            it->first->release(/*published=*/false);
            ThreadCtx &ctx = *w.ctxs_[it->second];
            ctx.actions().runAbort(ctx.mem(), &ctx.mutableStats());
        }
    };
    // Family B first runs the RMW as one hardware transaction over
    // every involved engine, retrying retryable aborts within the
    // first shard's fast-path budget. A non-retryable abort, a spent
    // budget or a tripped kill switch on any involved shard sends it
    // to the freeze. Returns true once the joint commit went through.
    auto commitInHardware = [&]() {
        std::vector<HtmTxn *> &htms = w.crossHtm_;
        htms.clear();
        for (auto &[p, s] : order) {
            (void)s;
            htms.push_back(&p->htm());
        }
        const unsigned budget = rt0.config().retry.maxFastPathRetries;
        Backoff backoff;
        for (unsigned attempt = 1;; ++attempt) {
            deadline.pollNow();
            for (auto &[p, s] : order) {
                (void)s;
                TmRuntime &rt = p->runtime();
                if (killSwitchBypass(rt.globals(), rt.config().retry))
                    return false;
            }
            try {
                for (auto &[p, s] : order) {
                    w.ctxs_[s]->actions().clear();
                    p->beginHardware(htms.data(), htms.size());
                }
                body();
                for (auto &[p, s] : order) {
                    (void)s;
                    p->commitCheck();
                }
                HtmTxn::commitJoint(htms.data(), htms.size());
                return true;
            } catch (const HtmAbort &abort) {
                rollback();
                if (!abort.retryOk || attempt >= budget)
                    return false;
            }
            ctx0.mutableStats().inc(Counter::kCrossShardRestarts);
            backoff.pause();
        }
    };

    bool inHardware = false;
    try {
        if (order.front().first->hardwareFirst()) {
            inHardware = commitInHardware();
            if (!inHardware)
                ctx0.mutableStats().inc(Counter::kCrossShardEscalations);
        }
        if (!inHardware) {
            deadline.pollNow(); // Expired before the first freeze?
            for (auto &[p, s] : order) {
                w.ctxs_[s]->actions().clear();
                p->freeze(deadline);
            }
            body();
        }
    } catch (const TxnDeadlineExceeded &) {
        rollback();
        deadline.disarm();
        ctx0.mutableStats().inc(Counter::kDeadlineExceeded);
        if (gate != nullptr)
            gate->onOutcome(false);
        return TxnOutcome::kDeadlineExceeded;
    } catch (...) {
        rollback();
        deadline.disarm();
        throw;
    }
    deadline.disarm();

    if (!inHardware) {
        JointPublication window;
        for (auto &[p, s] : order) {
            (void)s;
            p->publish(window);
        }
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it)
        it->first->release(/*published=*/true);
    for (auto &[p, s] : order) {
        (void)p;
        ThreadCtx &ctx = *w.ctxs_[s];
        ctx.actions().runCommit(ctx.mem(), &ctx.mutableStats());
    }
    ctx0.mutableStats().inc(Counter::kCrossShardCommits);
    ctx0.mutableStats().inc(Counter::kOperations);
    if (gate != nullptr)
        gate->onOutcome(true);
    if (observer_ != nullptr)
        observer_->onTxnCommit(rec);
    return TxnOutcome::kCommitted;
}

StatsSummary
ShardedStore::stats() const
{
    StatsSummary total;
    for (const auto &rt : shards_) {
        StatsSummary s = rt->stats();
        for (unsigned i = 0; i < kNumCounters; ++i)
            total.totals[i] += s.totals[i];
    }
    return total;
}

StatsSummary
ShardedStore::shardStats(unsigned shard) const
{
    return shards_[shard]->stats();
}

void
ShardedStore::resetStats()
{
    for (const auto &rt : shards_)
        rt->resetStats();
}

} // namespace rhtm
