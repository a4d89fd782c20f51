/**
 * @file
 * hybench: the repository benchmark for the hybrid TM, driven from
 * outside the library (see perfbench/README.md).
 *
 *   hybench --workload rbtree-rh|rbtree-stm|store-oltp --seed N
 *           --seconds S --trace 0|1 [--commit ID]
 *
 * Two closed-loop worker threads replay their seeded request streams
 * for S seconds after a short warmup. The timed phase is cut into
 * half-second windows. End-to-end figures average over every timed
 * window: throughput is committed ops over the phase's length, and a
 * latency percentile is taken per window and averaged over the
 * windows. Host speed drifts over seconds; an average moves in
 * proportion to the time spent slow, while a percentile of the pooled
 * samples jumps when that share crosses it. With --trace 1 the odd
 * windows run as before and the even windows also record spans (1 op
 * in
 * kTraceSample) around the calls into TmRuntime::run, the transaction
 * body and the ShardedStore methods; the per-layer metrics come from
 * those spans and from the library's public counters, read after the
 * workers stop.
 *
 * The last stdout line is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}. The process exits 1 when a correctness check
 * fails and 2 on bad arguments.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "latency.h"
#include "workload.h"
#include "src/api/runtime.h"
#include "src/store/sharded_store.h"
#include "src/structures/tx_rbtree.h"
#include "src/util/backoff.h"

#ifndef HYBENCH_BUILD_TYPE
#define HYBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{
namespace
{

using rhtm::Counter;
using rhtm::StatsSummary;
using rhtm::TxnOutcome;

constexpr unsigned kWorkers = 2;
constexpr double kWindowSeconds = 0.5;
constexpr unsigned kMinSetups = 2;
constexpr unsigned kMaxSetups = 25;
constexpr double kSetupSeconds = 1.0;
constexpr unsigned kTraceSample = 8;
constexpr size_t kSpanCapacity = size_t(1) << 20;
constexpr auto kStoreDeadline = std::chrono::milliseconds(100);

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/**
 * Host speed probe: ns for one 64-iteration simDelay, the loop behind
 * the library's per-access instrumentation penalty. Median of 9
 * samples of 2000 calls on the calling thread's current vCPU.
 */
double
hostSpinNs()
{
    std::vector<double> samples;
    for (int s = 0; s < 9; ++s) {
        uint64_t t0 = nowNs();
        for (int i = 0; i < 2000; ++i)
            rhtm::simDelay(64);
        samples.push_back(static_cast<double>(nowNs() - t0) / 2000.0);
    }
    return median(samples);
}

// ---------------------------------------------------------------- tracing

/** Layers a span can belong to. */
enum Layer : uint32_t
{
    kLayerApi,   //!< One TmRuntime::run call (every attempt).
    kLayerBody,  //!< One execution of the transaction body.
    kLayerStore, //!< One ShardedStore public method call.
};

/** 16 bytes: start, duration, and op id | class | layer. */
struct Span
{
    uint64_t start;
    uint32_t dur;
    uint32_t tag; //!< op << 8 | class << 4 | layer.
};

/** Per-worker span log, kept in memory until the run ends. */
struct Tracer
{
    std::vector<Span> spans;
    uint64_t dropped = 0;
    uint32_t op = 0;
    unsigned cls = 0;

    void
    add(Layer layer, uint64_t start, uint64_t end)
    {
        if (spans.size() == spans.capacity()) {
            ++dropped;
            return;
        }
        spans.push_back({start, static_cast<uint32_t>(end - start),
                         (op << 8) | (cls << 4) | layer});
    }
};

/** Records a body span on every exit, including an abort's unwind. */
class BodySpan
{
  public:
    explicit BodySpan(Tracer *t) : t_(t), start_(t ? nowNs() : 0) {}
    ~BodySpan()
    {
        if (t_ != nullptr)
            t_->add(kLayerBody, start_, nowNs());
    }
    BodySpan(const BodySpan &) = delete;
    BodySpan &operator=(const BodySpan &) = delete;

  private:
    Tracer *t_;
    uint64_t start_;
};

// ---------------------------------------------------------------- systems

rhtm::RuntimeConfig
paperRuntimeConfig(uint64_t seed)
{
    // The calibration bench::BenchConfig applies to every figure.
    rhtm::RuntimeConfig rc;
    rc.rngSeed = seed;
    rc.stmAccessPenalty = 64;
    rc.htm.randomAbortProb = 5e-4;
    rc.htm.scaledThreadsFrom = 8;
    rc.htm.capacityScale = 2;
    return rc;
}

rhtm::AlgoKind
algoOf(const WorkloadSpec &spec)
{
    rhtm::AlgoKind kind = rhtm::AlgoKind::kRhNOrec;
    if (!rhtm::algoKindFromString(spec.algo, kind)) {
        std::fprintf(stderr, "unknown algorithm %s\n", spec.algo);
        std::exit(2);
    }
    return kind;
}

/** Per-worker results the checks need, counted over every phase. */
struct CheckCounts
{
    uint64_t inserts = 0;
    uint64_t removes = 0;
    uint64_t rmwIssued = 0;
    uint64_t rmwCommitted = 0;
    uint64_t ops = 0;
    uint64_t deadline = 0;
    uint64_t shed = 0;
};

/** rbtree-*: a TmRuntime over one TxRbTree. */
class TreeSystem
{
  public:
    static constexpr Layer kOpLayer = kLayerApi;

    TreeSystem(const WorkloadSpec &spec, uint64_t seed)
        : rt_(algoOf(spec), paperRuntimeConfig(seed))
    {
        main_ = &rt_.registerThread();
        // Every other key: the tree holds keys/2 nodes and stays near
        // that size, as puts and removes are uniform over the range.
        for (uint64_t k = 0; k < spec.keys; k += 2) {
            rt_.run(*main_, [&](rhtm::Txn &tx) {
                tree_.put(tx, static_cast<int64_t>(k),
                          static_cast<int64_t>(k));
            });
        }
        initialSize_ = tree_.sizeUnsync();
        rt_.resetStats();
    }

    ~TreeSystem() { tree_.clearUnsync(main_->mem()); }

    TreeSystem(const TreeSystem &) = delete;
    TreeSystem &operator=(const TreeSystem &) = delete;

    void registerWorkers()
    {
        for (unsigned w = 0; w < kWorkers; ++w)
            ctx_[w] = &rt_.registerThread();
    }

    TxnOutcome
    exec(unsigned w, const Op &op, Tracer *tr, CheckCounts &cc)
    {
        rhtm::ThreadCtx &ctx = *ctx_[w];
        int64_t key = static_cast<int64_t>(op.keys[0]);
        bool changed = false;
        switch (op.kind) {
          case OpKind::kPut:
            rt_.run(ctx, [&](rhtm::Txn &tx) {
                BodySpan span(tr);
                changed = tree_.put(tx, key, key);
            });
            cc.inserts += changed;
            break;
          case OpKind::kRemove:
            rt_.run(ctx, [&](rhtm::Txn &tx) {
                BodySpan span(tr);
                changed = tree_.remove(tx, key);
            });
            cc.removes += changed;
            break;
          default:
            rt_.run(
                ctx,
                [&](rhtm::Txn &tx) {
                    BodySpan span(tr);
                    int64_t v = 0;
                    (void)tree_.get(tx, key, v);
                },
                rhtm::TxnHint::kReadOnly);
            break;
        }
        return TxnOutcome::kCommitted;
    }

    /** Quiescent: structure valid, size matches committed results. */
    bool
    check(const std::vector<CheckCounts> &counts, std::string &why) const
    {
        std::string detail;
        if (!tree_.validateStructure(&detail)) {
            why = "tree invariant broken: " + detail;
            return false;
        }
        uint64_t expect = initialSize_;
        for (const CheckCounts &c : counts)
            expect += c.inserts - c.removes;
        uint64_t size = tree_.sizeUnsync();
        if (size != expect) {
            why = "tree size " + std::to_string(size) + " != expected " +
                  std::to_string(expect);
            return false;
        }
        return true;
    }

    StatsSummary stats() const { return rt_.stats(); }

    uint64_t
    limboEntries()
    {
        uint64_t n = 0;
        for (unsigned t = 0; t < rt_.memory().threadCount(); ++t)
            n += rt_.memory().threadMem(t).limboSize();
        return n;
    }

    double shardOpsMaxOverMean() const { return 0.0; }

  private:
    rhtm::TmRuntime rt_;
    rhtm::TxRbTree tree_;
    rhtm::ThreadCtx *main_ = nullptr;
    rhtm::ThreadCtx *ctx_[kWorkers] = {};
    uint64_t initialSize_ = 0;
};

/** store-oltp: a 4-shard ShardedStore. */
class StoreSystem
{
  public:
    static constexpr Layer kOpLayer = kLayerStore;

    StoreSystem(const WorkloadSpec &spec, uint64_t seed)
        : keys_(spec.keys), store_(storeConfig(spec, seed))
    {
        main_ = &store_.registerWorker();
        store_.seed(*main_, keys_, kStoreSeedValue);
        store_.resetStats();
    }

    StoreSystem(const StoreSystem &) = delete;
    StoreSystem &operator=(const StoreSystem &) = delete;

    void registerWorkers()
    {
        for (unsigned w = 0; w < kWorkers; ++w)
            workers_[w] = &store_.registerWorker();
    }

    TxnOutcome
    exec(unsigned w, const Op &op, Tracer *, CheckCounts &cc)
    {
        rhtm::StoreWorker &sw = *workers_[w];
        rhtm::StoreOpts opts;
        opts.deadline = kStoreDeadline;
        TxnOutcome out = TxnOutcome::kCommitted;
        switch (op.kind) {
          case OpKind::kGet: {
            uint64_t v = 0;
            bool found = false;
            out = store_.get(sw, op.keys[0], v, found, opts);
            break;
          }
          case OpKind::kPut:
            out = store_.put(sw, op.keys[0], op.value, opts);
            break;
          case OpKind::kScan:
            out = store_.scan(sw, op.shard, op.keys[0], op.keys[1],
                              kScanLimit, scanOut_[w], opts);
            break;
          default:
            rmwKeys_[w].assign(op.keys, op.keys + kRmwKeys);
            out = store_.multiRmw(sw, rmwKeys_[w], 1, opts);
            ++cc.rmwIssued;
            cc.rmwCommitted += out == TxnOutcome::kCommitted;
            break;
        }
        return out;
    }

    /**
     * Quiescent: a full scan of every shard's ordered index returns
     * each seeded key exactly once, on its owning shard, in order,
     * with a map value (so index and map agree); and the accounts,
     * which only RMWs write, sum to their seed plus kRmwKeys per
     * committed RMW.
     */
    bool
    check(const std::vector<CheckCounts> &counts, std::string &why)
    {
        std::vector<uint8_t> seen(keys_, 0);
        uint64_t accounts = 0;
        std::vector<std::pair<uint64_t, uint64_t>> out;
        for (unsigned s = 0; s < store_.shardCount(); ++s) {
            if (store_.scan(*main_, s, 0, keys_ - 1, 0, out) !=
                TxnOutcome::kCommitted) {
                why = "verification scan did not commit";
                return false;
            }
            uint64_t prev = 0;
            for (size_t i = 0; i < out.size(); ++i) {
                uint64_t k = out[i].first;
                if (k >= keys_ || store_.shardOf(k) != s || seen[k] ||
                    (i > 0 && k <= prev)) {
                    why = "shard " + std::to_string(s) +
                          " index disagrees with the map at key " +
                          std::to_string(k);
                    return false;
                }
                seen[k] = 1;
                prev = k;
                if (k < kRmwAccounts)
                    accounts += out[i].second;
            }
        }
        for (uint64_t k = 0; k < keys_; ++k) {
            if (!seen[k]) {
                why = "key " + std::to_string(k) + " missing from a scan";
                return false;
            }
        }
        uint64_t expect = kRmwAccounts * kStoreSeedValue;
        for (const CheckCounts &c : counts)
            expect += kRmwKeys * c.rmwCommitted;
        if (accounts != expect) {
            why = "accounts sum " + std::to_string(accounts) +
                  " != expected " + std::to_string(expect);
            return false;
        }
        return true;
    }

    StatsSummary stats() const { return store_.stats(); }

    uint64_t
    limboEntries()
    {
        uint64_t n = 0;
        for (unsigned s = 0; s < store_.shardCount(); ++s) {
            rhtm::MemoryManager &mm = store_.shardRuntime(s).memory();
            for (unsigned t = 0; t < mm.threadCount(); ++t)
                n += mm.threadMem(t).limboSize();
        }
        return n;
    }

    double
    shardOpsMaxOverMean() const
    {
        double sum = 0.0, mx = 0.0;
        for (unsigned s = 0; s < store_.shardCount(); ++s) {
            double ops =
                static_cast<double>(store_.shardStats(s).operations());
            sum += ops;
            mx = std::max(mx, ops);
        }
        return ratio(mx, sum / store_.shardCount());
    }

  private:
    static rhtm::StoreConfig
    storeConfig(const WorkloadSpec &spec, uint64_t seed)
    {
        rhtm::StoreConfig sc;
        sc.shards = kStoreShards;
        sc.kind = algoOf(spec);
        sc.runtime = paperRuntimeConfig(seed);
        return sc;
    }

    uint64_t keys_;
    rhtm::ShardedStore store_;
    rhtm::StoreWorker *main_ = nullptr;
    rhtm::StoreWorker *workers_[kWorkers] = {};
    std::vector<std::pair<uint64_t, uint64_t>> scanOut_[kWorkers];
    std::vector<uint64_t> rmwKeys_[kWorkers];
};

// ---------------------------------------------------------------- run

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string commit = "unknown";
};

using ClassRecorders = std::array<LatencyRecorder, kNumClasses>;

/** One worker's measurements; padded so workers never share a line. */
struct alignas(64) WorkerState
{
    std::atomic<uint64_t> committed{0};
    std::vector<ClassRecorders> windows;  //!< Per window; [0] = warmup.
    uint64_t attempted = 0;               //!< Timed windows.
    uint64_t failed = 0;                  //!< Timed windows.
    CheckCounts counts;
    Tracer tracer;
};

/** Metrics in print order. */
struct Metrics
{
    struct Item
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Item> items;

    void
    add(const std::string &name, double value, const char *unit)
    {
        items.push_back({name, value, unit});
    }
};

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const Metrics &m)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (size_t i = 0; i < m.items.size(); ++i) {
        const Metrics::Item &it = m.items[i];
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", it.value);
        s += (i ? ", \"" : "\"") + it.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + it.unit + "\"}";
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
}

/**
 * Quantile @p q in us of class @p cls (-1 = all), taken in each window
 * of @p wins over both workers, then averaged over the windows.
 */
double
windowMeanQuantileUs(const std::vector<std::unique_ptr<WorkerState>> &states,
                     const std::vector<unsigned> &wins, int cls, double q)
{
    double sum = 0.0;
    unsigned n = 0;
    for (unsigned b : wins) {
        LatencyRecorder merged;
        for (const auto &st : states) {
            for (unsigned c = 0; c < kNumClasses; ++c) {
                if (cls < 0 || static_cast<int>(c) == cls)
                    merged.merge(st->windows[b][c]);
            }
        }
        if (merged.count() > 0) {
            sum += merged.quantile(q);
            ++n;
        }
    }
    return ratio(sum, n) / 1000.0;
}

/** Per-layer numbers derived from the span logs. */
struct SpanSummary
{
    LatencyRecorder txn, self, body;
    LatencyRecorder store[kNumClasses];
    uint64_t txns = 0, bodies = 0, dropped = 0;
    double bodyNs = 0.0;
};

SpanSummary
summarizeSpans(const std::vector<std::unique_ptr<WorkerState>> &states)
{
    SpanSummary out;
    for (const auto &st : states) {
        out.dropped += st->tracer.dropped;
        // Spans of one op are contiguous, children first: the op's own
        // span closes after its body spans.
        uint64_t childNs = 0;
        for (const Span &sp : st->tracer.spans) {
            unsigned layer = sp.tag & 0xf;
            unsigned cls = (sp.tag >> 4) & 0xf;
            if (layer == kLayerBody) {
                out.body.record(sp.dur);
                childNs += sp.dur;
                out.bodyNs += sp.dur;
                ++out.bodies;
            } else if (layer == kLayerApi) {
                out.txn.record(sp.dur);
                out.self.record(sp.dur - std::min<uint64_t>(childNs, sp.dur));
                childNs = 0;
                ++out.txns;
            } else {
                out.store[cls].record(sp.dur);
                childNs = 0;
            }
        }
    }
    return out;
}

double
loadAverage()
{
    double load[1] = {0.0};
    return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

template <typename System>
int
runWorkload(const WorkloadSpec &spec, const Args &args)
{
    std::unique_ptr<StoreKeyTables> tables;
    if (spec.store)
        tables = std::make_unique<StoreKeyTables>(spec.keys);

    // Set-up (construction plus seeding) is timed in two batches, one
    // before the timed phase and one after it, so setup_s samples the
    // host at two moments. A batch is at least kMinSetups set-ups and
    // at least kSetupSeconds long; its last instance is kept.
    std::vector<double> setupTimes;
    auto setUpBatch = [&](std::unique_ptr<System> &keep) {
        double total = 0.0;
        for (unsigned i = 0; i < kMinSetups ||
                             (total < kSetupSeconds && i < kMaxSetups);
             ++i) {
            keep.reset();
            uint64_t t0 = nowNs();
            keep = std::make_unique<System>(spec, args.seed);
            setupTimes.push_back(static_cast<double>(nowNs() - t0) / 1e9);
            total += setupTimes.back();
        }
    };
    std::unique_ptr<System> sys;
    setUpBatch(sys);
    sys->registerWorkers();

    const unsigned nWindows = std::max(
        2u, static_cast<unsigned>(args.seconds / kWindowSeconds + 0.5));
    const double windowSec = args.seconds / nWindows;
    const double warmupSec = std::min(1.0, args.seconds / 4.0);

    std::vector<std::unique_ptr<WorkerState>> states;
    std::vector<OpStream> streams;
    for (unsigned w = 0; w < kWorkers; ++w) {
        auto st = std::make_unique<WorkerState>();
        st->windows.resize(nWindows + 1);
        if (args.trace)
            st->tracer.spans.reserve(kSpanCapacity);
        states.push_back(std::move(st));
        streams.emplace_back(spec, tables.get(), args.seed, w);
    }

    const double spinBefore = hostSpinNs();
    std::atomic<unsigned> window{0};
    std::atomic<bool> go{false};
    // With tracing, even windows trace and odd ones do not, so the
    // difference between them is the tracing overhead.
    auto traced = [&](unsigned win) {
        return args.trace && win > 0 && win % 2 == 0;
    };

    std::vector<std::thread> pool;
    for (unsigned w = 0; w < kWorkers; ++w) {
        pool.emplace_back([&, w] {
            WorkerState &st = *states[w];
            OpStream &stream = streams[w];
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            uint32_t opId = 0;
            for (;;) {
                unsigned win = window.load(std::memory_order_relaxed);
                if (win > nWindows)
                    break;
                Op op = stream.next();
                unsigned cls = classOf(op.kind);
                Tracer *tr = nullptr;
                if (traced(win) && opId % kTraceSample == 0) {
                    tr = &st.tracer;
                    tr->op = opId / kTraceSample;
                    tr->cls = cls;
                }
                uint64_t t0 = nowNs();
                TxnOutcome out = sys->exec(w, op, tr, st.counts);
                uint64_t t1 = nowNs();
                const bool timed = win > 0;
                if (tr != nullptr)
                    tr->add(System::kOpLayer, t0, t1);
                else
                    st.windows[win][cls].record(t1 - t0);
                st.attempted += timed;
                ++st.counts.ops;
                if (out == TxnOutcome::kCommitted) {
                    st.committed.store(
                        st.committed.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
                } else {
                    st.failed += timed;
                    if (out == TxnOutcome::kAdmissionShed)
                        ++st.counts.shed;
                    else
                        ++st.counts.deadline;
                }
                ++opId;
            }
        });
    }

    auto committedNow = [&]() {
        uint64_t n = 0;
        for (const auto &st : states)
            n += st->committed.load(std::memory_order_relaxed);
        return n;
    };
    using Clock = std::chrono::steady_clock;
    auto secs = [](double s) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(s));
    };
    go.store(true, std::memory_order_release);
    const Clock::time_point start = Clock::now();
    std::this_thread::sleep_until(start + secs(warmupSec));
    // Committed ops and seconds per timed window ([0] unused).
    std::vector<double> winOps(nWindows + 1, 0.0), winSec(nWindows + 1, 0.0);
    uint64_t prevOps = committedNow();
    Clock::time_point prevAt = Clock::now();
    window.store(1, std::memory_order_relaxed);
    for (unsigned b = 1; b <= nWindows; ++b) {
        std::this_thread::sleep_until(start + secs(warmupSec + windowSec * b));
        window.store(b + 1, std::memory_order_relaxed); // past the last: stop
        uint64_t ops = committedNow();
        Clock::time_point at = Clock::now();
        winOps[b] = static_cast<double>(ops - prevOps);
        winSec[b] = std::chrono::duration<double>(at - prevAt).count();
        prevOps = ops;
        prevAt = at;
    }
    for (std::thread &t : pool)
        t.join();
    const double spinAfter = hostSpinNs();

    std::vector<CheckCounts> counts;
    uint64_t attempted = 0, failed = 0;
    for (const auto &st : states) {
        counts.push_back(st->counts);
        attempted += st->attempted;
        failed += st->failed;
    }
    std::string why;
    bool correct = sys->check(counts, why);
    if (!correct)
        std::printf("# check failed: %s\n", why.c_str());

    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    const double peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    std::printf("# diag workload=%s seed=%llu workers=%u nproc=%u "
                "loadavg=%.2f build=%s commit=%s host_spin_ns_before=%.2f "
                "host_spin_ns_after=%.2f windows=%u\n",
                spec.name, static_cast<unsigned long long>(args.seed),
                kWorkers, std::thread::hardware_concurrency(), loadAverage(),
                HYBENCH_BUILD_TYPE, args.commit.c_str(), spinBefore,
                spinAfter, nWindows);
    // Per-window throughput, so a host slowdown inside a run shows.
    std::printf("# window_ops_s");
    for (unsigned b = 1; b <= nWindows; ++b)
        std::printf(" %.0f", winOps[b] / winSec[b]);
    std::printf("\n");

    // Pooled over the timed windows with and without tracing: a slow
    // stretch of host time weighs by its length, as it does for users.
    double plainOps = 0, plainSec = 0, tracedOps = 0, tracedSec = 0;
    std::vector<unsigned> plainWins;
    for (unsigned b = 1; b <= nWindows; ++b) {
        (traced(b) ? tracedOps : plainOps) += winOps[b];
        (traced(b) ? tracedSec : plainSec) += winSec[b];
        if (!traced(b))
            plainWins.push_back(b);
    }
    const double plainThr = ratio(plainOps, plainSec);

    Metrics m;
    if (!args.trace) {
        m.add("throughput_ops_s", plainThr, "1/s");
        auto lat = [&](int cls, double q) {
            return windowMeanQuantileUs(states, plainWins, cls, q);
        };
        m.add("latency_p50_us", lat(-1, 0.50), "us");
        m.add("latency_p99_us", lat(-1, 0.99), "us");
        m.add("get_p50_us", lat(kClassGet, 0.50), "us");
        m.add("put_p50_us", lat(kClassPut, 0.50), "us");
        sys.reset();
        setUpBatch(sys);
        m.add("setup_s", median(setupTimes), "s");
        m.add("peak_rss_mb", peakRssMb, "MB");
        printResult(correct, attempted, failed, m);
        return correct ? 0 : 1;
    }

    const StatsSummary s = sys->stats();
    const double ops = static_cast<double>(s.operations());
    auto per = [&](Counter c) {
        return ratio(static_cast<double>(s.get(c)), ops);
    };
    const SpanSummary sp = summarizeSpans(states);
    uint64_t rmwIssued = 0, allOps = 0, deadline = 0, shed = 0;
    for (const CheckCounts &c : counts) {
        rmwIssued += c.rmwIssued;
        allOps += c.ops;
        deadline += c.deadline;
        shed += c.shed;
    }
    std::vector<std::string> notes;
    if (spec.store) {
        notes.push_back("api.* and structures.body_p50_us/ns_per_access: "
                        "the store runs its own transaction bodies, so "
                        "no span can wrap them from outside; reported 0");
    } else {
        notes.push_back("store.*: no store layer in this workload; "
                        "reported 0");
    }
    if (sp.dropped > 0)
        notes.push_back("span log full: " + std::to_string(sp.dropped) +
                        " spans dropped");

    const double accessesPerOp = s.accessesPerOp();
    m.add("api.txn_p50_us", sp.txn.quantile(0.50) / 1000.0, "us");
    m.add("api.txn_p99_us", sp.txn.quantile(0.99) / 1000.0, "us");
    m.add("api.self_p50_us", sp.self.quantile(0.50) / 1000.0, "us");
    m.add("api.attempts_per_txn",
          ratio(static_cast<double>(sp.bodies), static_cast<double>(sp.txns)),
          "count");
    m.add("structures.body_p50_us", sp.body.quantile(0.50) / 1000.0, "us");
    m.add("structures.accesses_per_op", accessesPerOp, "count");
    m.add("structures.ns_per_access",
          ratio(ratio(sp.bodyNs, static_cast<double>(sp.txns)),
                accessesPerOp),
          "ns");
    m.add("htm.fast_commit_ratio", per(Counter::kCommitsFastPath), "ratio");
    m.add("htm.attempts_per_op", per(Counter::kFastPathAttempts), "count");
    m.add("htm.conflict_aborts_per_op", per(Counter::kHtmConflictAborts),
          "count");
    m.add("htm.capacity_aborts_per_op", per(Counter::kHtmCapacityAborts),
          "count");
    m.add("htm.other_aborts_per_op", per(Counter::kHtmOtherAborts), "count");
    m.add("htm.subscription_aborts_per_op",
          per(Counter::kHtmSubscriptionAborts), "count");
    m.add("htm.reads_per_op", per(Counter::kFastPathReads), "count");
    m.add("htm.writes_per_op", per(Counter::kFastPathWrites), "count");
    m.add("core.slowpath_ratio", s.slowPathRatio(), "ratio");
    m.add("core.mixed_commit_ratio", per(Counter::kCommitsMixedPath),
          "ratio");
    m.add("core.serial_commit_ratio", per(Counter::kCommitsSerialPath),
          "ratio");
    m.add("core.prefix_success_ratio", s.prefixSuccessRatio(), "ratio");
    m.add("core.postfix_success_ratio", s.postfixSuccessRatio(), "ratio");
    m.add("core.restarts_per_slowpath", s.restartsPerSlowPath(), "count");
    m.add("core.killswitch_activations",
          static_cast<double>(s.get(Counter::kKillSwitchActivations)),
          "count");
    m.add("core.serial_wait_ticks_per_op", per(Counter::kSerialWaitTicks),
          "count");
    m.add("engine.revalidations_per_op", per(Counter::kRevalidations),
          "count");
    m.add("engine.revalidation_skip_ratio",
          ratio(static_cast<double>(s.get(Counter::kRevalidationsSkipped)),
                static_cast<double>(s.get(Counter::kRevalidations) +
                                    s.get(Counter::kRevalidationsSkipped))),
          "ratio");
    m.add("engine.ts_extensions_per_op", per(Counter::kTsExtensions),
          "count");
    m.add("stm.restarts_per_op", per(Counter::kSlowPathRestarts), "count");
    m.add("stm.reads_per_op", per(Counter::kSlowPathReads), "count");
    m.add("stm.writes_per_op", per(Counter::kSlowPathWrites), "count");
    m.add("mem.limbo_entries", static_cast<double>(sys->limboEntries()),
          "count");
    static const char *kClassNames[kNumClasses] = {"get", "put", "scan",
                                                   "rmw"};
    for (unsigned c = 0; c < kNumClasses; ++c) {
        m.add(std::string("store.") + kClassNames[c] + "_p99_us",
              sp.store[c].quantile(0.99) / 1000.0, "us");
    }
    m.add("store.scan_p50_us", sp.store[kClassScan].quantile(0.50) / 1000.0,
          "us");
    m.add("store.rmw_p50_us", sp.store[kClassRmw].quantile(0.50) / 1000.0,
          "us");
    const double rmw = static_cast<double>(rmwIssued);
    m.add("store.cross_commits_per_rmw",
          ratio(static_cast<double>(s.get(Counter::kCrossShardCommits)), rmw),
          "count");
    m.add("store.cross_restarts_per_rmw",
          ratio(static_cast<double>(s.get(Counter::kCrossShardRestarts)), rmw),
          "count");
    m.add("store.cross_escalations_per_rmw",
          ratio(static_cast<double>(s.get(Counter::kCrossShardEscalations)),
                rmw),
          "count");
    m.add("store.shard_ops_max_over_mean", sys->shardOpsMaxOverMean(),
          "ratio");
    m.add("store.deadline_exceeded_ratio",
          ratio(static_cast<double>(deadline), static_cast<double>(allOps)),
          "ratio");
    m.add("store.shed_ratio",
          ratio(static_cast<double>(shed), static_cast<double>(allOps)),
          "ratio");
    m.add("bench.host_spin_ns", spinBefore, "ns");
    m.add("bench.host_spin_ns_after", spinAfter, "ns");
    m.add("bench.tracing_overhead_pct",
          100.0 * (1.0 - ratio(ratio(tracedOps, tracedSec), plainThr)), "%");
    for (const std::string &n : notes)
        std::printf("# note: %s\n", n.c_str());
    printResult(correct, attempted, failed, m);
    return correct ? 0 : 1;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "%s\nusage: hybench --workload rbtree-rh|rbtree-stm|"
                 "store-oltp --seed N --seconds S --trace 0|1 "
                 "[--commit ID]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (flag == "--trace") {
            a.trace = v == "1";
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
        } else if (flag == "--commit") {
            a.commit = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && (*end != '\0' || end == v.c_str()))
            usage(("bad number for " + flag).c_str());
    }
    if (!(a.seconds > 0.0 && a.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    return a;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args = parseArgs(argc, argv);
    const WorkloadSpec *spec = findWorkload(args.workload);
    if (spec == nullptr)
        usage(("unknown workload '" + args.workload + "'").c_str());
    return spec->store ? runWorkload<StoreSystem>(*spec, args)
                       : runWorkload<TreeSystem>(*spec, args);
}
