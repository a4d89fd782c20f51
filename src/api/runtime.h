/**
 * @file
 * The TM runtime facade: algorithm selection, per-thread contexts, the
 * transaction retry loop, and statistics collection. This is the
 * library's main entry point (the role GCC's libitm played for the
 * paper's implementation).
 */

#ifndef RHTM_API_RUNTIME_H
#define RHTM_API_RUNTIME_H

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/api/action_log.h"
#include "src/api/txn.h"
#include "src/core/admission.h"
#include "src/core/engine/deadline.h"
#include "src/core/engine/domain.h"
#include "src/core/engine/globals.h"
#include "src/core/engine/retry_policy.h"
#include "src/core/engine/session.h"
#include "src/fault/fault_injector.h"
#include "src/htm/htm_txn.h"
#include "src/mem/memory_manager.h"
#include "src/persist/nvm_sim.h"
#include "src/persist/tx_persist.h"
#include "src/stats/stats.h"
#include "src/core/rh_tl2.h"
#include "src/stm/tl2.h"

namespace rhtm
{

/** The TM algorithms evaluated by the paper (Section 3.1). */
enum class AlgoKind
{
    kLockElision, //!< HTM + global-lock fallback.
    kNOrec,       //!< Eager NOrec STM (all software).
    kNOrecLazy,   //!< Lazy NOrec STM (all software).
    kTl2,         //!< Eager TL2 STM (all software).
    kHybridNOrec, //!< Hybrid NOrec HyTM (eager slow path, as evaluated).
    kHybridNOrecLazy, //!< Hybrid NOrec with the lazy slow path.
    kRhNOrec,     //!< Reduced Hardware NOrec (this paper).
    kRhTl2,       //!< RH-TL2, the predecessor design (Section 1.2).
};

/** Canonical short name ("rh-norec", ...). */
const char *algoKindName(AlgoKind kind);

/**
 * Parse a short name back to a kind.
 * @return true on success.
 */
bool algoKindFromString(const std::string &name, AlgoKind &out);

/** All algorithm kinds, in the paper's presentation order. */
const std::vector<AlgoKind> &allAlgoKinds();

/** Everything configurable about a runtime instance. */
struct RuntimeConfig
{
    HtmConfig htm;      //!< Simulated-HTM model.
    RetryPolicy retry;  //!< Fallback/retry policy (Section 3.3).
    RhConfig rh;        //!< RH NOrec feature switches (Section 3.4).
    uint64_t rngSeed = 1;

    /**
     * Deterministic fault schedule (docs/FAULT_INJECTION.md). Each
     * registered thread gets its own injector built from this plan; an
     * empty plan injects nothing. If the plan's seed is 0 it inherits
     * rngSeed.
     */
    FaultPlan fault;

    /**
     * Simulated-NVM persistence overlay (docs/PERSISTENCE.md). When
     * enabled the runtime owns an NvmSim device, each thread gets a
     * TxPersist driver, slow-path commits run the durable seal/drain/
     * mark protocol, and HTM fast paths escalate to the logged slow
     * path. A seed of 0 inherits rngSeed.
     */
    PersistConfig persist;

    /**
     * Overload admission control (docs/OVERLOAD.md). When enabled the
     * runtime owns an AdmissionGate consulted by runWith()/run()
     * before every top-level transaction; disabled (the default), no
     * gate exists and admission is unconditional.
     */
    AdmissionConfig admission;

    /**
     * Instrumentation-cost model (DESIGN.md): cycles of busy work per
     * software-path shared access, standing in for the libitm dynamic
     * call + logging that the paper's instrumented slow paths pay and
     * its uninstrumented hardware fast path does not. 0 disables.
     */
    unsigned stmAccessPenalty = 64;
};

class TmRuntime;

/**
 * Per-thread execution context. Obtain one per worker thread via
 * TmRuntime::registerThread() and pass it to every run() call from
 * that thread. Not shareable across threads.
 */
class ThreadCtx
{
  public:
    /** Runtime-assigned thread index. */
    unsigned tid() const { return tid_; }

    /** This thread's statistics block. */
    const ThreadStats &stats() const { return stats_; }

    /**
     * Mutable statistics for coordination layers that run transactions
     * outside runWith() (the sharded store's cross-shard commits
     * charge their counters here). Owning thread only.
     */
    ThreadStats &mutableStats() { return stats_; }

    /** This thread's session (exposed for white-box tests). */
    TxSession &session() { return *session_; }

    /**
     * This thread's simulated hardware transaction. The sharded
     * store's cross-shard hardware attempts run on it, outside
     * runWith(); it is idle whenever no transaction of this context
     * runs.
     */
    HtmTxn &htm() { return *htm_; }

    /** This thread's memory arena. */
    ThreadMem &mem() { return *mem_; }

    /**
     * This thread's fault injector, or nullptr when the runtime's
     * fault plan is empty (exposed for tests to read hit counts and
     * traces).
     */
    FaultInjector *injector() { return fault_.get(); }

    /** This thread's deferred-action log (exposed for tests). */
    ActionLog &actions() { return actions_; }

    /**
     * This thread's durable-commit driver, or nullptr when the
     * persistence overlay is disabled (exposed for white-box tests).
     */
    TxPersist *persistence() { return persist_.get(); }

    /** This thread's deadline state (exposed for white-box tests). */
    DeadlineState &deadlineState() { return deadline_; }

  private:
    friend class TmRuntime;

    ThreadCtx(unsigned tid, ThreadMem *mem) : tid_(tid), mem_(mem) {}

    unsigned tid_;
    ThreadMem *mem_;
    ThreadStats stats_;
    ActionLog actions_;
    DeadlineState deadline_;
    std::unique_ptr<FaultInjector> fault_;
    std::unique_ptr<HtmTxn> htm_;
    std::unique_ptr<TxPersist> persist_;
    std::unique_ptr<TxSession> session_;
    bool inTxn_ = false;
};

/**
 * A transactional-memory runtime: one algorithm, one shared-memory
 * coordination domain. Threads register once, then execute transaction
 * bodies through run().
 *
 * @code
 *   TmRuntime rt(AlgoKind::kRhNOrec);
 *   ThreadCtx &ctx = rt.registerThread();   // per worker thread
 *   rt.run(ctx, [&](Txn &tx) {
 *       uint64_t v = tx.load(&counter);
 *       tx.store(&counter, v + 1);
 *   });
 * @endcode
 */
class TmRuntime
{
  public:
    explicit TmRuntime(AlgoKind kind, RuntimeConfig cfg = RuntimeConfig());
    ~TmRuntime();

    TmRuntime(const TmRuntime &) = delete;
    TmRuntime &operator=(const TmRuntime &) = delete;

    /** Register the calling thread; thread safe. */
    ThreadCtx &registerThread();

    /**
     * Execute @p body as one transaction, retrying per the algorithm's
     * policy until it commits. @p hint may declare the body read-only
     * (never required; purely an optimization knob mirroring the GCC
     * static analysis). Exceptions from @p body abort the transaction
     * and propagate.
     *
     * Nested calls flatten (like RTM and GCC TM): a run() issued from
     * inside a transaction body joins the enclosing transaction, so
     * library code that opens its own transactions composes freely.
     */
    template <typename Body>
    void
    run(ThreadCtx &ctx, Body &&body, TxnHint hint = TxnHint::kNone)
    {
        TxnOptions opts;
        opts.allowShed = false; // Legacy contract: always commits.
        opts.hint = hint;
        TxnOutcome outcome =
            runWith(ctx, opts, std::forward<Body>(body));
        (void)outcome; // Unbounded + non-sheddable: kCommitted.
    }

    /**
     * Execute @p body as one transaction under the bounds in @p opts
     * (docs/OVERLOAD.md) and report how the call ended:
     *
     *  - kCommitted: as run().
     *  - kDeadlineExceeded: the wall-clock deadline or attempt budget
     *    expired. The in-flight attempt (if any) was fully unwound
     *    through the user-abort path -- locks released, journals
     *    rolled back, onAbort handlers fired -- and the transaction's
     *    effects never became visible. Not charged to the kill switch
     *    or retry budgets (the caller gave up; nothing failed).
     *  - kAdmissionShed: rejected by the admission gate before any TM
     *    state was touched; no handler ran.
     *
     * An irrevocable grant suppresses the deadline: once granted the
     * transaction always commits. Nested calls flatten and join the
     * enclosing transaction (its bounds stay in force).
     */
    template <typename Body>
    TxnOutcome
    runWith(ThreadCtx &ctx, const TxnOptions &opts, Body &&body)
    {
        if (ctx.inTxn_) {
            // Flat nesting: execute within the enclosing transaction.
            Txn tx(ctx.session_.get(), ctx.mem_, ctx.tid(),
                   &ctx.actions_);
            body(tx);
            return TxnOutcome::kCommitted;
        }
        DeadlineState &dl = ctx.deadline_;
        if (opts.deadline.count() > 0)
            dl.arm(DeadlineState::Clock::now() + opts.deadline);
        if (gate_ != nullptr &&
            !gate_->admit(eng_, domain_.globals, cfg_.retry, &ctx.stats_,
                          opts.deadline.count() > 0 ? &dl : nullptr,
                          ctx.fault_.get(), opts.allowShed)) {
            // Shed before any TM state was touched: no epoch slot, no
            // handlers, no session activity to unwind.
            dl.disarm();
            return TxnOutcome::kAdmissionShed;
        }
        EpochManager &ep = mem_.epochs();
        ep.enterRegion(ctx.tid());
        ctx.inTxn_ = true;
        ctx.actions_.clear();
        TxSession &s = *ctx.session_;
        TxnOutcome outcome = TxnOutcome::kCommitted;
        unsigned attemptsDone = 0;
        // The outer try catches TxnDeadlineExceeded thrown from inside
        // an abort *handler* (a deadline-aware wait in onHtmAbort, for
        // example): C++ does not route a throw from a catch clause to
        // its sibling clauses, so it must be fielded one level up.
        try {
            for (;;) {
                if ((opts.maxAttempts != 0 &&
                     attemptsDone >= opts.maxAttempts) ||
                    (dl.armed() && dl.expiredNow())) {
                    outcome = TxnOutcome::kDeadlineExceeded;
                    break;
                }
                try {
                    s.begin(opts.hint);
                    Txn tx(&s, ctx.mem_, ctx.tid(), &ctx.actions_);
                    body(tx);
                    s.commit();
                    break;
                } catch (const HtmAbort &abort) {
                    // Rollback first (the session releases any held
                    // locks and undoes in-place writes), THEN the
                    // action log: abort handlers observe post-rollback
                    // state, and the memory journal retires this
                    // attempt's allocations.
                    ++attemptsDone;
                    s.onHtmAbort(abort);
                    ctx.actions_.runAbort(*ctx.mem_, &ctx.stats_);
                } catch (const TxRestart &) {
                    ++attemptsDone;
                    s.onRestart();
                    ctx.actions_.runAbort(*ctx.mem_, &ctx.stats_);
                } catch (const TxnDeadlineExceeded &) {
                    // A deadline-aware wait unwound mid-attempt; the
                    // attempt is still live and needs the full
                    // user-abort rollback below.
                    outcome = TxnOutcome::kDeadlineExceeded;
                    break;
                } catch (...) {
                    // A user exception: full abort (locks released,
                    // HTM buffers discarded, journals rolled back,
                    // epoch slot quiesced), then rethrow to the caller
                    // exactly once.
                    ctx.stats_.inc(Counter::kUserExceptionAborts);
                    s.onUserAbort();
                    ctx.actions_.runAbort(*ctx.mem_, &ctx.stats_);
                    ctx.inTxn_ = false;
                    dl.disarm();
                    ep.exitRegion(ctx.tid());
                    throw;
                }
            }
        } catch (const TxnDeadlineExceeded &) {
            outcome = TxnOutcome::kDeadlineExceeded;
        }
        if (outcome == TxnOutcome::kCommitted) {
            // Commit is linearized and onComplete() has dropped the
            // serial/global locks; only now may deferred commit
            // actions (journal retirement, then user handlers) run.
            s.onComplete();
            ctx.actions_.runCommit(*ctx.mem_, &ctx.stats_);
            ctx.stats_.inc(Counter::kOperations);
        } else {
            ctx.stats_.inc(Counter::kDeadlineExceeded);
            // Same ordering as the user-exception path: session
            // rollback, then the action log (abort handlers fire
            // exactly once, LIFO -- runAbort clears the log, so this
            // is a no-op when the last attempt already ran it). The
            // unwind runs even on a quiescent attempt boundary: a
            // restarted slow path keeps its fallback registration
            // (and a pre-grant barrier its serial ticket) across
            // attempts, and only the session's unwind tail releases
            // those.
            s.onUserAbort();
            ctx.actions_.runAbort(*ctx.mem_, &ctx.stats_);
        }
        ctx.inTxn_ = false;
        dl.disarm();
        ep.exitRegion(ctx.tid());
        if (gate_ != nullptr)
            gate_->onOutcome(outcome == TxnOutcome::kCommitted);
        return outcome;
    }

    /**
     * Aggregate statistics over all registered threads. Safe to call
     * concurrently with registerThread() on this or any other runtime
     * (a sharded store polls one shard while another is still wiring
     * up workers); counts from threads mid-transaction are a benign
     * torn snapshot, exactly as before.
     */
    StatsSummary stats() const;

    /**
     * Zero all per-thread statistics. Safe against a concurrent
     * registerThread(); this runtime's own threads must be quiescent,
     * but other domains' runtimes need not be.
     */
    void resetStats();

    /** The simulated-HTM engine (shared by all threads). */
    HtmEngine &engine() { return eng_; }

    /** The memory subsystem. */
    MemoryManager &memory() { return mem_; }

    /**
     * This runtime's coordination domain: identity for cross-domain
     * commit ordering plus the coordination words.
     */
    TmDomain &domain() { return domain_; }

    /** The hybrid coordination globals (for white-box tests). */
    TmGlobals &globals() { return domain_.globals; }

    /**
     * TL2's shared clock/orec state when kind() == kTl2, else nullptr
     * (the sharded store's cross-domain commit locks orecs directly).
     */
    Tl2Globals *tl2Globals() { return tl2_.get(); }

    /** RH-TL2's shared state when kind() == kRhTl2, else nullptr. */
    RhTl2Globals *rhTl2Globals() { return rhTl2_.get(); }

    /**
     * The admission gate, or nullptr when admission control is
     * disabled (white-box tests and bench reporting).
     */
    AdmissionGate *admission() { return gate_.get(); }

    /**
     * The simulated NVM device, or nullptr when the persistence
     * overlay is disabled. Setup code registers durable heap ranges
     * through it before transactions run; crash/recovery harnesses
     * read its snapshots once threads are quiescent.
     */
    NvmSim *nvm() { return nvm_.get(); }

    /** Selected algorithm. */
    AlgoKind kind() const { return kind_; }

    /** Selected algorithm's short name. */
    const char *algoName() const { return algoKindName(kind_); }

    /** Configuration in effect. */
    const RuntimeConfig &config() const { return cfg_; }

    /**
     * Non-transactional read, safe against concurrent transactions
     * (setup/verification helper).
     */
    uint64_t peek(const uint64_t *addr) { return eng_.directLoad(addr); }

    /** Non-transactional write, safe against concurrent transactions. */
    void poke(uint64_t *addr, uint64_t value)
    {
        eng_.directStore(addr, value);
    }

    /** Number of registered threads (safe vs. registerThread()). */
    unsigned threadCount() const
    {
        std::lock_guard<std::mutex> guard(registerLock_);
        return static_cast<unsigned>(ctxs_.size());
    }

    /** Context of an already-registered tid (white-box tests). */
    ThreadCtx &context(unsigned tid) { return *ctxs_[tid]; }

    /**
     * The live retry policy every session reads through its const
     * reference. Tests mutate it mid-run to prove sessions see policy
     * updates (the policy-by-value regression, docs/CHECKING.md);
     * nothing else may write it after construction.
     */
    RetryPolicy &mutableRetryPolicyForTest() { return cfg_.retry; }

    /**
     * Restore the whole runtime -- coordination globals, TL2/RH-TL2
     * clocks and orec tables, and every registered thread's stats,
     * action log, fault injector, simulated-HTM context, session, and
     * memory journal -- to its just-registered state. The interleaving
     * explorer (src/check/) calls this between explored runs so each
     * run starts from identical state; callers must guarantee no
     * transaction is in flight. The HtmEngine's sequence and stripe
     * stamps are deliberately NOT rewound: a stamp is only ever
     * compared by order against a transaction's snapshot of the same
     * monotonic sequence, taken within one run, so their absolute
     * values cannot affect control flow.
     */
    void resetForTest();

  private:
    std::unique_ptr<TxSession> makeSession(ThreadCtx &ctx);

    AlgoKind kind_;
    RuntimeConfig cfg_;
    HtmEngine eng_;
    MemoryManager mem_;
    TmDomain domain_;
    std::unique_ptr<Tl2Globals> tl2_;
    std::unique_ptr<RhTl2Globals> rhTl2_;
    std::unique_ptr<NvmSim> nvm_;
    std::unique_ptr<AdmissionGate> gate_;
    // Guards ctxs_ growth; mutable so the stats readers can take it
    // from const methods (satellite: per-domain stats safety).
    mutable std::mutex registerLock_;
    std::vector<std::unique_ptr<ThreadCtx>> ctxs_;
};

} // namespace rhtm

#endif // RHTM_API_RUNTIME_H
