/**
 * @file
 * The simulated best-effort HTM engine (process-global state).
 *
 * Substitution note (see DESIGN.md): this engine stands in for Intel
 * RTM. It provides the four properties the RH NOrec correctness
 * argument relies on:
 *
 *  1. Hardware-transaction writes are invisible until commit, and a
 *     commit publishes them atomically (Figure 2's argument).
 *  2. A hardware transaction aborts as soon as any cache line it has
 *     read is written by another commit *or by a plain store* -- the
 *     "subscription" idiom (read a lock word; a later store to it kills
 *     the transaction).
 *  3. A running hardware transaction never observes an inconsistent
 *     snapshot (hardware opacity).
 *  4. Tracking capacity is bounded, and aborts say whether retrying may
 *     help.
 *
 * Mechanically: a global sequence counter (odd while anybody
 * publishes) plus a striped per-cache-line stamp table. Commits and
 * direct stores publish under an internal mutex, and every stripe a
 * publication writes is stamped with that publication's (odd)
 * sequence value. A transaction remembers the even sequence value its
 * reads are consistent at; a read whose sequence check shows no
 * publication since is consistent as loaded, and otherwise the whole
 * read log is re-validated (every logged stripe's stamp must predate
 * the remembered value), so conflicts abort the reader at its next
 * transactional access -- observably equivalent to RTM's asynchronous
 * coherence abort given that simulated transactions touch shared
 * state only through this API.
 */

#ifndef RHTM_HTM_HTM_ENGINE_H
#define RHTM_HTM_HTM_ENGINE_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/htm/htm_config.h"
#include "src/util/backoff.h"

namespace rhtm
{

/**
 * Process-global simulated-HTM state shared by all threads of one TM
 * runtime. All members are thread safe.
 */
class HtmEngine
{
  public:
    /** Cache-line size used for conflict granularity (bytes, log2). */
    static constexpr unsigned kLineShift = 6;

    explicit HtmEngine(const HtmConfig &cfg = HtmConfig());

    HtmEngine(const HtmEngine &) = delete;
    HtmEngine &operator=(const HtmEngine &) = delete;

    /** The configuration this engine was built with. */
    const HtmConfig &config() const { return cfg_; }

    /**
     * Non-transactional load, atomic with respect to hardware-commit
     * publication (a plain racing load could otherwise observe a torn
     * commit, which real hardware makes impossible).
     */
    uint64_t directLoad(const uint64_t *addr) const;

    /**
     * Non-transactional store. Stamps the line's stripe, dooming every
     * live hardware transaction that has read the line (subscription).
     */
    void directStore(uint64_t *addr, uint64_t value);

    /**
     * Non-transactional compare-and-swap; returns true on success and
     * refreshes @p expected with the observed value on failure.
     */
    bool directCas(uint64_t *addr, uint64_t &expected, uint64_t desired);

    /** Non-transactional fetch-and-add; returns the previous value. */
    uint64_t directFetchAdd(uint64_t *addr, uint64_t delta);

    /** Current publication sequence (even = quiescent). */
    uint64_t
    seq() const
    {
        return seq_.load(std::memory_order_acquire);
    }

    /** Stripe index tracking @p addr's cache line. */
    size_t
    stripeOf(const void *addr) const
    {
        uint64_t line = reinterpret_cast<uint64_t>(addr) >> kLineShift;
        return (line * 0x9e3779b97f4a7c15ull) >> stripeShift_;
    }

    /**
     * Stamp of stripe @p stripe: the odd sequence value of the last
     * publication that wrote one of its lines (0 = never written).
     * Stamps only grow, so a transaction consistent at even sequence
     * value s still holds a line iff its stripe's stamp is below s.
     */
    uint64_t
    stripeStamp(size_t stripe) const
    {
        return stripes_[stripe].load(std::memory_order_acquire);
    }

  private:
    friend class HtmTxn;
    friend class JointPublication;

    /** Take the publish mutex and make the sequence odd; returns the
     *  odd value, which stamps every stripe the window writes. */
    uint64_t
    openWindow()
    {
        publishLock_.lock();
        return seq_.fetch_add(1, std::memory_order_acq_rel) + 1;
    }

    /** Make the sequence even again and drop the publish mutex. */
    void
    closeWindow()
    {
        seq_.fetch_add(1, std::memory_order_acq_rel);
        publishLock_.unlock();
    }

    /**
     * RAII publication window (openWindow/closeWindow). Everything that
     * mutates TM-visible memory does so inside one of these or inside
     * a JointPublication.
     */
    class PublishGuard
    {
      public:
        explicit PublishGuard(HtmEngine &eng)
            : eng_(eng), stamp_(eng.openWindow())
        {}

        ~PublishGuard() { eng_.closeWindow(); }

        PublishGuard(const PublishGuard &) = delete;
        PublishGuard &operator=(const PublishGuard &) = delete;

        /** This window's (odd) sequence value. */
        uint64_t stamp() const { return stamp_; }

      private:
        HtmEngine &eng_;
        uint64_t stamp_;
    };

    /** Store @p value at @p addr and stamp its stripe with @p stamp
     *  (inside an open window whose sequence value is @p stamp). */
    void
    publishWord(uint64_t *addr, uint64_t value, uint64_t stamp)
    {
        std::atomic_ref<uint64_t>(*addr).store(value,
                                               std::memory_order_release);
        stripes_[stripeOf(addr)].store(stamp, std::memory_order_release);
    }

    HtmConfig cfg_;
    unsigned stripeShift_;
    std::atomic<uint64_t> seq_;
    std::mutex publishLock_;
    std::vector<std::atomic<uint64_t>> stripes_;

    // JointPublication bookkeeping, touched only by the thread that
    // holds publishLock_ through a joint window.
    HtmEngine *jointNext_ = nullptr; //!< Next engine the window holds.
    uint64_t jointStamp_ = 0;        //!< This engine's window value.
};

/**
 * One publication window spanning several engines: stores made through
 * it become visible in every engine at once, when the destructor
 * closes all the windows it opened. A reader of any joined engine
 * spins while that engine's sequence is odd, so no reader can see one
 * engine's new values and another engine's old ones after both were
 * joined -- the atomic cross-domain publication a multi-domain commit
 * needs without raising any lock word hardware transactions
 * subscribe to.
 *
 * join() -- and store(), the first time it names an engine -- takes
 * the engine's publish mutex and makes its sequence odd. Every caller
 * that joins more than one engine must join them in one global order
 * -- cross-shard commits join in ascending domain id -- or two joint
 * publications could deadlock; single-engine publishers hold one
 * mutex at a time and never wait inside it, so they cannot complete a
 * cycle. No scheduling point may run while a window is open
 * (src/util/sched_point.h), so callers keep the window's lifetime to
 * the stores themselves.
 */
class JointPublication
{
  public:
    JointPublication() = default;
    ~JointPublication();

    JointPublication(const JointPublication &) = delete;
    JointPublication &operator=(const JointPublication &) = delete;

    /** Open @p eng's window unless this publication holds it already. */
    void join(HtmEngine &eng);

    /** Publish @p value at @p addr in @p eng's window (joined first if
     *  this publication has not joined @p eng yet). */
    void store(HtmEngine &eng, uint64_t *addr, uint64_t value);

  private:
    HtmEngine *head_ = nullptr; //!< Most recently joined engine.
};

} // namespace rhtm

#endif // RHTM_HTM_HTM_ENGINE_H
