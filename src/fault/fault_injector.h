/**
 * @file
 * Seeded, deterministic fault injection for the hybrid TM stack.
 *
 * The correctness argument of RH NOrec (Figure 2, Algorithms 1-3)
 * lives in narrow windows -- the fast path's late clock read, the
 * postfix's atomic publication, the prefix's deferred fallback
 * registration -- that an unperturbed scheduler rarely exercises.
 * This layer lets tests and soak runs script adversity at exactly
 * those windows: abort the Nth prefix commit, squeeze HTM capacity
 * mid-run, stall inside the publication window.
 *
 * Determinism: an injector is per-thread state. Every decision is a
 * pure function of (plan, thread id, per-site hit counts, the
 * injector's private RNG) -- never of wall-clock time or cross-thread
 * state -- so a fixed seed and a fixed per-thread operation sequence
 * replay the identical fault schedule. See docs/FAULT_INJECTION.md.
 *
 * Cost: the plan is compiled once, at construction, into one rule
 * list per site with each probability pre-scaled to a 2^64 threshold,
 * so a hit walks only its own site's rules and does no floating-point
 * work. HtmTxn fires a site on every simulated-HTM access, which makes
 * this the calibrated interrupt-abort model's per-access price.
 */

#ifndef RHTM_FAULT_FAULT_INJECTOR_H
#define RHTM_FAULT_FAULT_INJECTOR_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/rng.h"

namespace rhtm
{

/**
 * Named injection sites. HtmTxn fires the hardware-level sites; the
 * algorithm sessions fire the protocol-level ones at the windows the
 * paper's Figure 2 reasons about.
 */
enum class FaultSite : unsigned
{
    kHtmBegin = 0,    //!< HtmTxn::begin (capacity squeezes anchor here).
    kTxRead,          //!< Each transactional read (the "Nth read" knob).
    kTxWrite,         //!< Each transactional (buffered) write.
    kPreCommit,       //!< HtmTxn::commit entry, before publication.
    kPublishWindow,   //!< Inside the publication window (seq is odd).
    kPrefixCommit,    //!< RH prefix about to commit (Algorithm 3).
    kPostFirstWrite,  //!< Slow path just acquired the clock (Algorithm 2).
    kPostfixCommit,   //!< RH postfix about to publish (Algorithm 2).
    kSoftwareWrite,   //!< Software slow-path write (undo-logged).
    kFallbackStart,   //!< Software/mixed slow-path attempt begins.
    kSerialHeld,      //!< Serial ticket lock just granted (held window).
    kIrrevocableUpgrade, //!< becomeIrrevocable() upgrade in progress.
    kUserException,   //!< Body opt-in: simulate a user exception here.

    // Simulated-NVM crash sites (docs/PERSISTENCE.md). Fired by the
    // persistence overlay around the durable-commit protocol; the
    // scripted CrashScheduler (crash_sched.h) captures a durable-media
    // snapshot at these points, and injector delay/yield rules widen
    // the windows. Abort kinds are ignored here: a crash site is not
    // an abort window (the commit is already past its point of no
    // return when these fire).
    kCrashPreLogSeal,          //!< Redo payload appended, seal not durable.
    kCrashPostSealPreWriteback, //!< Seal durable, write-behind not started.
    kCrashMidWriteback,        //!< Mid-drain: data pwbs pending, no fence.
    kCrashPostMarker,          //!< Commit marker durable, handlers pending.

    // Overload-control sites (docs/OVERLOAD.md). Abort kinds are
    // ignored at both: they mark decision windows, not abort windows
    // -- delay/yield rules stretch the deadline-expiry window and the
    // admission decision respectively.
    kDeadlineWait,  //!< A deadline-aware wait polled for expiry.
    kAdmissionGate, //!< The admission gate ruled on a new transaction.
    kNumSites
};

/** Number of injection sites. */
constexpr unsigned kNumFaultSites =
    static_cast<unsigned>(FaultSite::kNumSites);
static_assert(kNumFaultSites <= 32, "FaultInjector's site mask is 32 bits");

/** Printable name for a site ("tx-read", "prefix-commit", ...). */
const char *faultSiteName(FaultSite site);

/** What a matched rule does at its site. */
enum class FaultKind : uint8_t
{
    kNone = 0,
    kAbortConflict,   //!< Simulated conflict abort (retry may help).
    kAbortCapacity,   //!< Simulated capacity abort (retry won't help).
    kAbortOther,      //!< Interrupt/page-fault style abort.
    kAbortExplicit,   //!< Explicit-style abort (retryable).
    kDelay,           //!< Spin for delaySpins inside the window.
    kYield,           //!< Yield the OS thread inside the window.
    kCapacitySqueeze, //!< Shrink HTM capacity for a span of txns.
};

/** Printable name for a kind ("abort-conflict", "delay", ...). */
const char *faultKindName(FaultKind kind);

/**
 * One scripted fault. A rule matches hits of its site positionally
 * (the Nth hit, optionally repeating every `period` hits) and/or
 * probabilistically, and fires at most `maxFires` times.
 */
struct FaultRule
{
    FaultSite site = FaultSite::kTxRead;
    FaultKind kind = FaultKind::kNone;

    /** First matching hit of the site, 1-based. */
    uint64_t firstHit = 1;

    /** Re-match every `period` hits after firstHit; 0 = one-shot. */
    uint64_t period = 0;

    /** Stop after this many firings. */
    uint64_t maxFires = ~uint64_t(0);

    /** Fire probability per positional match (1.0 = always). */
    double probability = 1.0;

    /** kDelay: busy-spin iterations inside the window. */
    uint32_t delaySpins = 0;

    /** kCapacitySqueeze: caps while the squeeze is active. */
    size_t squeezeReadLines = 0;
    size_t squeezeWriteLines = 0;

    /** kCapacitySqueeze: kHtmBegin hits it stays active; 0 = forever. */
    uint64_t squeezeTxns = 0;

    /** Restrict to one thread id; -1 = every thread. */
    int tid = -1;
};

/**
 * A full fault schedule: the rules plus the base seed. Shared,
 * immutable input; each thread instantiates its own FaultInjector
 * from it.
 */
struct FaultPlan
{
    std::vector<FaultRule> rules;

    /** Base RNG seed; per-thread injectors derive from (seed, tid). */
    uint64_t seed = 1;

    /** Record every firing into the injector's trace (tests). */
    bool recordTrace = false;

    bool empty() const { return rules.empty(); }

    /** Append a rule (builder-style). */
    FaultPlan &
    add(const FaultRule &rule)
    {
        rules.push_back(rule);
        return *this;
    }
};

/**
 * The plan behind HtmConfig::randomAbortProb: an interrupt-style
 * kAbortOther with @p probability (capped at 1) on every tx-read,
 * tx-write and pre-commit hit, seeded with @p seed.
 */
FaultPlan interruptAbortPlan(double probability, uint64_t seed);

/** One recorded firing (when FaultPlan::recordTrace is set). */
struct FaultEvent
{
    FaultSite site;
    FaultKind kind;
    uint64_t hit; //!< 1-based hit index of the site when it fired.
};

/**
 * Per-thread fault-injection engine. Single-threaded by construction
 * (owned by one ThreadCtx/HtmTxn); determinism follows from that plus
 * the seeded private RNG.
 */
class FaultInjector
{
  public:
    /**
     * @param plan The shared schedule (rules for other tids are
     *             filtered out).
     * @param tid This thread's runtime index.
     */
    FaultInjector(const FaultPlan &plan, unsigned tid);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /**
     * Record a hit of @p site and return the fault to apply there
     * (kNone almost always). Delay/yield kinds carry their parameters;
     * abort kinds are executed by the caller (HtmTxn/session), which
     * owns the unwind and the statistics. A site with no compiled rule
     * only counts the hit, inline; the rule walk is out of line.
     */
    FaultKind
    fire(FaultSite site, uint32_t *delay_spins = nullptr)
    {
        const unsigned idx = static_cast<unsigned>(site);
        const uint64_t hit = ++hits_[idx];
        if ((ruledSites_ >> idx & 1u) == 0)
            return FaultKind::kNone;
        return fireRuled(idx, hit, delay_spins);
    }

    /** Effective read capacity given the active squeeze (if any). */
    size_t
    readCapLimit(size_t base) const
    {
        return squeezeActive() && squeezeRead_ < base ? squeezeRead_
                                                      : base;
    }

    /** Effective write capacity given the active squeeze (if any). */
    size_t
    writeCapLimit(size_t base) const
    {
        return squeezeActive() && squeezeWrite_ < base ? squeezeWrite_
                                                       : base;
    }

    /** True while a capacity squeeze is in force. */
    bool
    squeezeActive() const
    {
        return hits_[static_cast<unsigned>(FaultSite::kHtmBegin)] <
                   squeezeUntil_ &&
               squeezeUntil_ != 0;
    }

    /** Times @p site has been hit so far. */
    uint64_t
    hits(FaultSite site) const
    {
        return hits_[static_cast<unsigned>(site)];
    }

    /** Times a fault actually fired at @p site. */
    uint64_t
    fires(FaultSite site) const
    {
        return fires_[static_cast<unsigned>(site)];
    }

    /** Total faults fired across all sites. */
    uint64_t totalFires() const { return totalFires_; }

    /** Recorded firings (empty unless plan.recordTrace). */
    const std::vector<FaultEvent> &trace() const { return trace_; }

    /** This injector's thread id. */
    unsigned tid() const { return tid_; }

    /**
     * Restore the exact post-construction state: hit/fire counts,
     * per-rule firing caps, the private RNG, squeeze state, and the
     * trace. In-place (not reconstruction) because HtmTxn holds a raw
     * pointer to this injector for the lifetime of its thread. Test
     * isolation only (docs/CHECKING.md).
     */
    void resetForTest();

  private:
    /** fire()'s rule walk for a site with at least one rule. */
    FaultKind fireRuled(unsigned idx, uint64_t hit, uint32_t *delay_spins);

    /** One compiled rule: the rule, its scaled threshold, its count. */
    struct RuleState
    {
        FaultRule rule;
        /** True when the rule rolls the RNG (0 < probability < 1). */
        bool draws = false;
        /** Fires when a draw is below this (probability * 2^64). */
        uint64_t threshold = 0;
        uint64_t fired = 0;
    };

    unsigned tid_;
    uint64_t seed_; //!< Plan base seed, kept for resetForTest.
    Rng rng_;
    bool recordTrace_;
    /**
     * The compiled plan: per site, this thread's rules in plan order.
     * kNone rules and rules that can never fire (a probability whose
     * threshold rounds to 0) are left out; neither draws from the RNG.
     */
    std::array<std::vector<RuleState>, kNumFaultSites> sites_;
    /** Bit i set iff sites_[i] is non-empty (fire()'s inline test). */
    uint32_t ruledSites_ = 0;
    std::array<uint64_t, kNumFaultSites> hits_{};
    std::array<uint64_t, kNumFaultSites> fires_{};
    uint64_t totalFires_ = 0;

    // Active capacity squeeze: in force while hits(kHtmBegin) <
    // squeezeUntil_ (0 = none; ~0 = until the end of the run).
    uint64_t squeezeUntil_ = 0;
    size_t squeezeRead_ = 0;
    size_t squeezeWrite_ = 0;

    std::vector<FaultEvent> trace_;
};

} // namespace rhtm

#endif // RHTM_FAULT_FAULT_INJECTOR_H
