#include "src/store/sharded_store.h"

#include <algorithm>
#include <cstdlib>

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
    // Involved shards, ordered by domain id (= lock acquisition and
    // freeze order).
    std::vector<std::pair<CrossShardPart *, unsigned>> &order =
        w.crossOrder_;
    order.clear();
    for (const auto &[s, key] : byShard) {
        (void)key;
        if (order.empty() || order.back().second != s)
            order.emplace_back(w.parts_[s].get(), s);
    }
    std::sort(order.begin(), order.end(),
              [](const auto &a, const auto &b) {
                  return a.first->domainId() < b.first->domainId();
              });
    std::vector<DomainCommitPart *> &parts = w.crossParts_;
    parts.clear();
    for (const auto &[p, s] : order) {
        (void)s;
        parts.push_back(p);
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

    using Clock = std::chrono::steady_clock;
    const bool hasDeadline = opts.deadline.count() > 0;
    const Clock::time_point deadlineAt = Clock::now() + opts.deadline;

    StoreOpRecord rec;
    rec.worker = w.id();
    TxnOutcome result = TxnOutcome::kCommitted;
    unsigned attempts = 0;

    auto rollbackAll = [&]() {
        for (auto &[p, s] : order) {
            p->rollbackAttempt();
            ThreadCtx &ctx = *w.ctxs_[s];
            ctx.actions().runAbort(ctx.mem(), &ctx.mutableStats());
        }
    };

    for (;;) {
        if (hasDeadline && Clock::now() >= deadlineAt) {
            ctx0.mutableStats().inc(Counter::kDeadlineExceeded);
            result = TxnOutcome::kDeadlineExceeded;
            break;
        }
        const bool escalated = attempts >= cfg_.rmwMaxAttempts;
        std::unique_lock<std::mutex> esc(escalationLock_,
                                         std::defer_lock);
        if (escalated)
            esc.lock();
        rec.reads.clear();
        rec.writes.clear();
        try {
            // Begin in ascending domain order (matters for escalated
            // blocking freezes; harmless otherwise).
            for (auto &[p, s] : order) {
                w.ctxs_[s]->actions().clear();
                p->beginAttempt(escalated);
            }
            for (auto &[p, s] : order) {
                ThreadCtx &ctx = *w.ctxs_[s];
                Txn tx(p, &ctx.mem(), ctx.tid(), &ctx.actions());
                for (const auto &[ks, key] : byShard) {
                    if (ks != s)
                        continue;
                    bool f = false;
                    uint64_t next =
                        data_[s]->values.addTo(tx, key, delta, &f);
                    if (observer_ == nullptr)
                        continue;
                    if (f && !alreadyWrote(rec, key))
                        rec.reads.emplace_back(key, next - delta);
                    rec.writes.emplace_back(key, next);
                }
            }
        } catch (const TxRestart &) {
            rollbackAll();
            ctx0.mutableStats().inc(Counter::kCrossShardRestarts);
            ++attempts;
            continue;
        } catch (...) {
            rollbackAll();
            throw;
        }

        bool committed;
        if (escalated) {
            // Frozen since beginAttempt: nothing to validate.
            publishJointly(parts);
            for (auto it = order.rbegin(); it != order.rend(); ++it)
                it->first->releaseEscalated();
            ctx0.mutableStats().inc(Counter::kCrossShardEscalations);
            committed = true;
        } else {
            committed = multiDomainCommit(parts);
        }
        if (!committed) {
            rollbackAll();
            ctx0.mutableStats().inc(Counter::kCrossShardRestarts);
            ++attempts;
            continue;
        }
        for (auto &[p, s] : order) {
            p->finishCommitted();
            ThreadCtx &ctx = *w.ctxs_[s];
            ctx.actions().runCommit(ctx.mem(), &ctx.mutableStats());
        }
        ctx0.mutableStats().inc(Counter::kCrossShardCommits);
        ctx0.mutableStats().inc(Counter::kOperations);
        break;
    }

    if (gate != nullptr)
        gate->onOutcome(result == TxnOutcome::kCommitted);
    if (result == TxnOutcome::kCommitted && observer_ != nullptr)
        observer_->onTxnCommit(rec);
    return result;
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
