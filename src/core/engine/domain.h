/**
 * @file
 * TmDomain: one instance-scoped TM coordination domain.
 *
 * The paper's runtime assumes exactly one set of coordination words
 * per process (the NOrec clock/seqlock, the HTM lock, the serial
 * ticket lock). Alistarh et al. prove that contention on this shared
 * metadata is unavoidable *within* one domain -- so the way past the
 * bottleneck is to host many domains: a sharded store gives every
 * shard its own TmDomain and commits a cross-shard transaction by
 * freezing the involved domains in ascending id order
 * (src/store/cross_txn.h, docs/STORE.md).
 *
 * A TmDomain bundles the things that make a coordination domain a
 * domain: a process-unique identity (the global acquisition order for
 * cross-domain commits), the TmGlobals coordination words (which
 * already embed the kill switch and the stall watchdog), and an
 * opaque slot the api layer uses to attach the domain's admission
 * gate. Sessions and the progress/retry helpers receive the domain,
 * not bare globals, so "which shard am I coordinating through" is
 * explicit everywhere below the api.
 *
 * Layering: the admission gate lives two ranks above the engine
 * (core/admission.h), so the engine holds only a forward-declared
 * pointer and never calls through it -- the bundle carries identity,
 * the api layer owns the behaviour.
 */

#ifndef RHTM_CORE_ENGINE_DOMAIN_H
#define RHTM_CORE_ENGINE_DOMAIN_H

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/core/engine/globals.h"

namespace rhtm
{

class AdmissionGate;

//
// Cacheline audit (ROADMAP item 2). Every coordination word a fast
// path subscribes to or a slow path spins on must own its 64-byte
// line: sharing a line would make the simulated HTM's line-granular
// conflict tracking (and a real machine's coherence traffic) couple
// logically independent words. The asserts pin the layout so a future
// field insertion cannot silently introduce false sharing.
//
static_assert(offsetof(TmGlobals, clock) % 64 == 0,
              "clock must own its cache line");
static_assert(offsetof(TmGlobals, htmLock) % 64 == 0,
              "htmLock must own its cache line");
static_assert(offsetof(TmGlobals, fallbacks) % 64 == 0,
              "fallbacks must own its cache line");
static_assert(offsetof(TmGlobals, serialLock) % 64 == 0,
              "serialLock must own its cache line");
static_assert(offsetof(TmGlobals, serialNextTicket) % 64 == 0,
              "serialNextTicket must own its cache line");
static_assert(offsetof(TmGlobals, serialServing) % 64 == 0,
              "serialServing must own its cache line");
static_assert(offsetof(TmGlobals, globalLock) % 64 == 0,
              "globalLock must own its cache line");
static_assert(offsetof(TmGlobals, killSwitch) % 64 == 0,
              "killSwitch must own its cache line");
static_assert(offsetof(TmGlobals, watchdog) % 64 == 0,
              "watchdog must own its cache line");
static_assert(offsetof(TmGlobals, htmLock) -
                      offsetof(TmGlobals, clock) >= 64 &&
                  offsetof(TmGlobals, fallbacks) -
                          offsetof(TmGlobals, htmLock) >= 64,
              "adjacent coordination words must not share a line");
static_assert(sizeof(TmGlobals) % 64 == 0,
              "TmGlobals must tile cache lines exactly");

/**
 * One TM coordination domain. A TmRuntime owns exactly one; a sharded
 * store hosts N runtimes and therefore N domains in one process.
 */
struct alignas(64) TmDomain
{
    TmDomain() : id_(nextId().fetch_add(1, std::memory_order_relaxed)) {}

    TmDomain(const TmDomain &) = delete;
    TmDomain &operator=(const TmDomain &) = delete;

    /**
     * Process-unique domain id, assigned at construction. Cross-domain
     * commits freeze the involved domains in ascending id order
     * (src/store/cross_txn.h), so the id IS the global lock order and
     * must never be reused or reordered.
     */
    uint64_t id() const { return id_; }

    /** The domain's coordination words (clock, locks, kill switch,
     *  watchdog). */
    TmGlobals globals;

    /**
     * The domain's admission gate, or nullptr when admission control
     * is disabled. Attached by the owning runtime; the engine only
     * carries the identity (see the file comment on layering).
     */
    AdmissionGate *admission = nullptr;

    /** Restore the coordination words; identity survives (test use). */
    void
    resetForTest()
    {
        globals.resetForTest();
    }

  private:
    static std::atomic<uint64_t> &
    nextId()
    {
        static std::atomic<uint64_t> counter{0};
        return counter;
    }

    uint64_t id_;
};

// Arrayed domains must never share a line either: a store laying its
// shards out contiguously would otherwise couple the last word of
// shard i with the first word of shard i+1.
static_assert(alignof(TmDomain) >= 64,
              "TmDomain instances must start on a cache line");
static_assert(sizeof(TmDomain) % 64 == 0,
              "arrayed TmDomain instances must not share a line");

} // namespace rhtm

#endif // RHTM_CORE_ENGINE_DOMAIN_H
