/**
 * @file
 * The benchmark's workloads and their seeded operation streams.
 *
 * Every key, value and operation class the library sees is drawn here,
 * from the workload seed and the worker index alone, so the same seed
 * replays the same per-worker request stream on any build.
 */

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench
{

/** What one request does. */
enum class OpKind : uint8_t
{
    kGet,    //!< Tree lookup or store point get.
    kPut,    //!< Tree insert-or-update or store point put.
    kRemove, //!< Tree remove (rbtree workloads only).
    kScan,   //!< Store per-shard range scan.
    kRmw,    //!< Store 3-key cross-shard read-modify-write.
};

/** Latency classes reported per workload: removes count as puts. */
enum OpClass : unsigned
{
    kClassGet,
    kClassPut,
    kClassScan,
    kClassRmw,
    kNumClasses
};

inline unsigned
classOf(OpKind kind)
{
    switch (kind) {
      case OpKind::kGet:
        return kClassGet;
      case OpKind::kPut:
      case OpKind::kRemove:
        return kClassPut;
      case OpKind::kScan:
        return kClassScan;
      case OpKind::kRmw:
      default:
        return kClassRmw;
    }
}

/** Keys touched by one multi-key RMW. */
constexpr unsigned kRmwKeys = 3;

/** One generated request. Scans use keys[0..1] as [lo, hi]. */
struct Op
{
    OpKind kind = OpKind::kGet;
    uint32_t shard = 0;
    uint64_t keys[kRmwKeys] = {0, 0, 0};
    uint64_t value = 0;
};

/** Append @p op field by field (no padding bytes) to @p out. */
inline void
appendBytes(std::string &out, const Op &op)
{
    auto put = [&out](const void *p, size_t n) {
        out.append(static_cast<const char *>(p), n);
    };
    put(&op.kind, sizeof(op.kind));
    put(&op.shard, sizeof(op.shard));
    put(op.keys, sizeof(op.keys));
    put(&op.value, sizeof(op.value));
}

/** Fixed parameters of one workload. */
struct WorkloadSpec
{
    const char *name;
    const char *algo;   //!< AlgoKind short name.
    bool store;         //!< ShardedStore (true) or TxRbTree (false).
    uint64_t keys;      //!< Tree key range, or store key count.
    // Tree mix (percent of ops); the rest are lookups.
    unsigned putPct;
    unsigned removePct;
    // Store mix (percent of ops); the rest are multi-key RMWs.
    unsigned getPct;
    unsigned storePutPct;
    unsigned scanPct;
};

/** Shards in the store workload. */
constexpr unsigned kStoreShards = 4;
/** Keys [0, kRmwAccounts) are written only by RMWs (conservation). */
constexpr uint64_t kRmwAccounts = 4096;
/** Seed value of every store key. */
constexpr uint64_t kStoreSeedValue = 1000;
constexpr uint64_t kScanWidth = 64;
constexpr size_t kScanLimit = 32;
constexpr double kZipfTheta = 0.8;

inline const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> specs = {
        // 10k-node tree over a 2x key range, 10% mutation: HTM fast path.
        {"rbtree-rh", "rh-norec", false, 20000, 5, 5, 0, 0, 0},
        // Same tree, 40% mutation, all-software NOrec.
        {"rbtree-stm", "norec", false, 20000, 20, 20, 0, 0, 0},
        // 2^17-key sharded store, Zipf 0.8, 50/25/10/15 OLTP mix.
        {"store-oltp", "rh-norec", true, uint64_t(1) << 17, 0, 0, 50, 25,
         10},
    };
    return specs;
}

inline const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &s : workloads()) {
        if (name == s.name)
            return &s;
    }
    return nullptr;
}

/** SplitMix64: tiny, seedable, and independent of the library's Rng. */
class SplitMix
{
  public:
    explicit SplitMix(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    uint64_t bounded(uint64_t n) { return next() % n; }

    /** Uniform double in [0, 1). */
    double
    unit()
    {
        return static_cast<double>(next() >> 11) *
               (1.0 / 9007199254740992.0);
    }

  private:
    uint64_t state_;
};

/**
 * Zipf(theta) ranks over [0, n) by inverse CDF; rank 0 is hottest.
 * Read-only after construction, so workers share one table.
 */
class ZipfTable
{
  public:
    ZipfTable(uint64_t n, double theta) : cdf_(n)
    {
        double sum = 0.0;
        for (uint64_t k = 0; k < n; ++k) {
            sum += 1.0 / std::pow(static_cast<double>(k + 1), theta);
            cdf_[k] = sum;
        }
    }

    uint64_t
    draw(SplitMix &rng) const
    {
        double target = rng.unit() * cdf_.back();
        auto it = std::upper_bound(cdf_.begin(), cdf_.end(), target);
        if (it == cdf_.end())
            --it;
        return static_cast<uint64_t>(it - cdf_.begin());
    }

  private:
    std::vector<double> cdf_;
};

/** The store workload's three key distributions, built once. */
struct StoreKeyTables
{
    explicit StoreKeyTables(uint64_t keys)
        : all(keys, kZipfTheta), puts(keys - kRmwAccounts, kZipfTheta),
          accounts(kRmwAccounts, kZipfTheta)
    {}

    ZipfTable all;      //!< Gets and scan starts: every key.
    ZipfTable puts;     //!< Puts: keys outside the RMW accounts.
    ZipfTable accounts; //!< RMWs: the accounts only.
};

/** One worker's deterministic request stream. */
class OpStream
{
  public:
    /** @p tables is required for store workloads and must outlive this. */
    OpStream(const WorkloadSpec &spec, const StoreKeyTables *tables,
             uint64_t seed, unsigned worker)
        : spec_(spec), tables_(tables),
          rng_(SplitMix(seed * 0x2545f4914f6cdd1dull + worker + 1).next())
    {}

    Op
    next()
    {
        return spec_.store ? nextStore() : nextTree();
    }

  private:
    Op
    nextTree()
    {
        Op op;
        unsigned draw = static_cast<unsigned>(rng_.bounded(100));
        op.keys[0] = rng_.bounded(spec_.keys);
        op.value = op.keys[0];
        if (draw < spec_.putPct)
            op.kind = OpKind::kPut;
        else if (draw < spec_.putPct + spec_.removePct)
            op.kind = OpKind::kRemove;
        else
            op.kind = OpKind::kGet;
        return op;
    }

    Op
    nextStore()
    {
        Op op;
        unsigned draw = static_cast<unsigned>(rng_.bounded(100));
        if (draw < spec_.getPct) {
            op.kind = OpKind::kGet;
            op.keys[0] = tables_->all.draw(rng_);
        } else if (draw < spec_.getPct + spec_.storePutPct) {
            op.kind = OpKind::kPut;
            op.keys[0] = kRmwAccounts + tables_->puts.draw(rng_);
            op.value = rng_.next() >> 1;
        } else if (draw < spec_.getPct + spec_.storePutPct + spec_.scanPct) {
            op.kind = OpKind::kScan;
            op.shard = static_cast<uint32_t>(rng_.bounded(kStoreShards));
            op.keys[0] = tables_->all.draw(rng_);
            op.keys[1] = std::min(op.keys[0] + kScanWidth - 1, spec_.keys - 1);
        } else {
            op.kind = OpKind::kRmw;
            // Distinct keys, so each RMW adds exactly kRmwKeys to the
            // accounts' sum and spans shards whenever the hash does.
            for (unsigned i = 0; i < kRmwKeys; ++i) {
                uint64_t k;
                do {
                    k = tables_->accounts.draw(rng_);
                } while (std::find(op.keys, op.keys + i, k) != op.keys + i);
                op.keys[i] = k;
            }
        }
        return op;
    }

    const WorkloadSpec &spec_;
    const StoreKeyTables *tables_;
    SplitMix rng_;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
