/**
 * @file
 * MultiDomainCommit: ordered two-phase commit across TmDomains.
 *
 * A transaction that touched several domains cannot use any single
 * domain's seqlock to serialize itself -- it must hold *every*
 * involved domain's commit lock across one atomic publication point.
 * This header supplies the shape of that protocol; what "acquire",
 * "revalidate" and "publish" mean is algorithm-specific (NOrec locks
 * its clock, TL2 locks orecs, rh-tl2 takes the HTM lock) and is
 * supplied by the participant objects.
 *
 * The protocol is the classic ordered two-phase commit, instantiated
 * with NOrec-style value validation:
 *
 *   1. Sort participants by ascending TmDomain id. Domain ids are
 *      process-unique and never reused (domain.h), so every
 *      cross-domain committer acquires in the same global order and
 *      the protocol cannot deadlock against other cross committers.
 *      Single-domain (native) committers never *block* on a commit
 *      lock while holding another -- they restart or time out -- so
 *      they cannot complete a cycle either.
 *   2. prepare() each participant in order: acquire that domain's
 *      commit lock with a bounded wait, then revalidate the read log
 *      against committed state. Any failure releases the already-
 *      prepared prefix in reverse order with releaseRestore() (commit
 *      clocks resume their pre-lock value, so peers that sampled the
 *      clock before our attempt do not observe a spurious bump).
 *   3. publish() each participant's write buffer into ONE
 *      JointPublication (src/htm/htm_engine.h): the first store into
 *      a domain's engine takes that engine's publish mutex and makes
 *      its sequence odd, in the same ascending domain order, and no
 *      window closes until every participant has published. The held
 *      commit locks keep every committer out; the joint window keeps
 *      every reader -- hardware transactions included, which subscribe
 *      to no commit lock -- from seeing one domain's new values next
 *      to another domain's old ones.
 *   4. releaseAdvance() in reverse order: advance each domain's
 *      commit clock past the published state.
 *
 * Step 2's validation gives the whole protocol opacity: between the
 * last lock acquisition and publication, every read of every involved
 * domain is re-checked against a now-frozen world, which is exactly
 * the NOrec commit argument applied per-domain. Repeated step-2
 * failure is the caller's cue to escalate to serial mode (the store
 * freezes the involved domains up front; see docs/STORE.md).
 */

#ifndef RHTM_CORE_ENGINE_MULTI_DOMAIN_COMMIT_H
#define RHTM_CORE_ENGINE_MULTI_DOMAIN_COMMIT_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/engine/domain.h"
#include "src/htm/htm_engine.h"

namespace rhtm
{

/**
 * Interface one per-domain commit participant implements. Kept
 * abstract (rather than a duck-typed template) so a mixed-AlgoKind
 * transaction can carry heterogeneous participants in one vector.
 */
class DomainCommitPart
{
  public:
    virtual ~DomainCommitPart() = default;

    /** Id of the TmDomain this participant commits into. */
    virtual uint64_t domainId() const = 0;

    /**
     * Acquire this domain's commit lock (bounded wait) and revalidate
     * the read log. Returns false on lock timeout or validation
     * failure; must leave the domain untouched in that case.
     */
    virtual bool prepare() = 0;

    /** Write back this domain's buffered writes. Called with every
     *  involved domain's commit lock held; engine-visible stores go
     *  through @p window so all domains publish at one instant. */
    virtual void publish(JointPublication &window) = 0;

    /** Release after successful publication, advancing the domain's
     *  commit clock. */
    virtual void releaseAdvance() = 0;

    /** Release without publication, restoring the pre-prepare clock. */
    virtual void releaseRestore() = 0;
};

/** Sort participants into the global acquisition order. */
inline void
sortByDomain(std::vector<DomainCommitPart *> &parts)
{
    std::sort(parts.begin(), parts.end(),
              [](const DomainCommitPart *a, const DomainCommitPart *b) {
                  return a->domainId() < b->domainId();
              });
}

/**
 * Step 3 on its own: publish every participant in one joint window.
 * Also the whole publication of a caller whose participants are
 * already frozen (the store's escalated mode), so nothing needs
 * preparing.
 */
inline void
publishJointly(std::vector<DomainCommitPart *> &parts)
{
    JointPublication window;
    for (DomainCommitPart *p : parts)
        p->publish(window);
}

/**
 * Run the ordered two-phase commit over `parts` (must already be
 * sorted by ascending domain id -- see sortByDomain). Returns true on
 * commit; on false every domain is back to its pre-attempt state and
 * the caller restarts or escalates.
 */
inline bool
multiDomainCommit(std::vector<DomainCommitPart *> &parts)
{
    for (size_t i = 0; i < parts.size(); ++i) {
        if (!parts[i]->prepare()) {
            while (i-- > 0)
                parts[i]->releaseRestore();
            return false;
        }
    }
    publishJointly(parts);
    for (size_t i = parts.size(); i-- > 0;)
        parts[i]->releaseAdvance();
    return true;
}

} // namespace rhtm

#endif // RHTM_CORE_ENGINE_MULTI_DOMAIN_COMMIT_H
