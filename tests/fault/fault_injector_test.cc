/**
 * @file
 * Unit tests for the deterministic fault injector: positional and
 * periodic matching, probability, fire caps, thread filtering,
 * capacity squeezes, and the determinism guarantee the chaos suite
 * builds on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>

#include "src/fault/fault_injector.h"
#include "src/fault/schedules.h"
#include "src/util/rng.h"

namespace rhtm
{
namespace
{

FaultRule
abortRule(FaultSite site, uint64_t first_hit, uint64_t period = 0)
{
    FaultRule r;
    r.site = site;
    r.kind = FaultKind::kAbortConflict;
    r.firstHit = first_hit;
    r.period = period;
    return r;
}

TEST(FaultInjectorTest, OneShotFiresExactlyOnNthHit)
{
    FaultPlan plan;
    plan.add(abortRule(FaultSite::kTxRead, 3));
    FaultInjector inj(plan, 0);
    EXPECT_EQ(inj.fire(FaultSite::kTxRead), FaultKind::kNone);
    EXPECT_EQ(inj.fire(FaultSite::kTxRead), FaultKind::kNone);
    EXPECT_EQ(inj.fire(FaultSite::kTxRead), FaultKind::kAbortConflict);
    EXPECT_EQ(inj.fire(FaultSite::kTxRead), FaultKind::kNone);
    EXPECT_EQ(inj.hits(FaultSite::kTxRead), 4u);
    EXPECT_EQ(inj.fires(FaultSite::kTxRead), 1u);
    EXPECT_EQ(inj.totalFires(), 1u);
}

TEST(FaultInjectorTest, PeriodicRuleFiresOnSchedule)
{
    FaultPlan plan;
    plan.add(abortRule(FaultSite::kPreCommit, 2, 3)); // Hits 2,5,8,...
    FaultInjector inj(plan, 0);
    std::vector<uint64_t> fired;
    for (uint64_t hit = 1; hit <= 12; ++hit) {
        if (inj.fire(FaultSite::kPreCommit) != FaultKind::kNone)
            fired.push_back(hit);
    }
    EXPECT_EQ(fired, (std::vector<uint64_t>{2, 5, 8, 11}));
}

TEST(FaultInjectorTest, MaxFiresCapsARule)
{
    FaultPlan plan;
    FaultRule r = abortRule(FaultSite::kTxWrite, 1, 1);
    r.maxFires = 2;
    plan.add(r);
    FaultInjector inj(plan, 0);
    unsigned fires = 0;
    for (int i = 0; i < 10; ++i) {
        if (inj.fire(FaultSite::kTxWrite) != FaultKind::kNone)
            ++fires;
    }
    EXPECT_EQ(fires, 2u);
}

TEST(FaultInjectorTest, SitesAreIndependent)
{
    FaultPlan plan;
    plan.add(abortRule(FaultSite::kTxRead, 1));
    FaultInjector inj(plan, 0);
    EXPECT_EQ(inj.fire(FaultSite::kTxWrite), FaultKind::kNone);
    EXPECT_EQ(inj.fire(FaultSite::kPreCommit), FaultKind::kNone);
    EXPECT_EQ(inj.fire(FaultSite::kTxRead), FaultKind::kAbortConflict);
}

TEST(FaultInjectorTest, TidFilterDropsOtherThreadsRules)
{
    FaultPlan plan;
    FaultRule r = abortRule(FaultSite::kTxRead, 1, 1);
    r.tid = 2;
    plan.add(r);
    FaultInjector mine(plan, 2);
    FaultInjector other(plan, 3);
    EXPECT_EQ(mine.fire(FaultSite::kTxRead), FaultKind::kAbortConflict);
    EXPECT_EQ(other.fire(FaultSite::kTxRead), FaultKind::kNone);
}

TEST(FaultInjectorTest, ProbabilityZeroNeverFiresProbabilityOneAlways)
{
    FaultPlan plan;
    FaultRule never = abortRule(FaultSite::kTxRead, 1, 1);
    never.probability = 0.0;
    plan.add(never);
    FaultRule always = abortRule(FaultSite::kTxWrite, 1, 1);
    always.probability = 1.0;
    plan.add(always);
    FaultInjector inj(plan, 0);
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(inj.fire(FaultSite::kTxRead), FaultKind::kNone);
        EXPECT_EQ(inj.fire(FaultSite::kTxWrite),
                  FaultKind::kAbortConflict);
    }
}

TEST(FaultInjectorTest, ProbabilityRoughlyMatchesRate)
{
    FaultPlan plan;
    plan.seed = 7;
    FaultRule r = abortRule(FaultSite::kTxRead, 1, 1);
    r.probability = 0.25;
    plan.add(r);
    FaultInjector inj(plan, 0);
    unsigned fires = 0;
    constexpr unsigned kTrials = 20000;
    for (unsigned i = 0; i < kTrials; ++i) {
        if (inj.fire(FaultSite::kTxRead) != FaultKind::kNone)
            ++fires;
    }
    double rate = double(fires) / kTrials;
    EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(FaultInjectorTest, DelayCarriesItsSpinCount)
{
    FaultPlan plan;
    FaultRule r;
    r.site = FaultSite::kPublishWindow;
    r.kind = FaultKind::kDelay;
    r.delaySpins = 1234;
    plan.add(r);
    FaultInjector inj(plan, 0);
    uint32_t spins = 0;
    EXPECT_EQ(inj.fire(FaultSite::kPublishWindow, &spins),
              FaultKind::kDelay);
    EXPECT_EQ(spins, 1234u);
}

TEST(FaultInjectorTest, CapacitySqueezeWindowsCapsAndExpires)
{
    FaultPlan plan;
    FaultRule r;
    r.site = FaultSite::kHtmBegin;
    r.kind = FaultKind::kCapacitySqueeze;
    r.firstHit = 2;
    r.squeezeReadLines = 4;
    r.squeezeWriteLines = 2;
    r.squeezeTxns = 3;
    plan.add(r);
    FaultInjector inj(plan, 0);

    inj.fire(FaultSite::kHtmBegin); // Hit 1: not yet.
    EXPECT_FALSE(inj.squeezeActive());
    EXPECT_EQ(inj.readCapLimit(100), 100u);

    inj.fire(FaultSite::kHtmBegin); // Hit 2: armed for 3 txns.
    EXPECT_TRUE(inj.squeezeActive());
    EXPECT_EQ(inj.readCapLimit(100), 4u);
    EXPECT_EQ(inj.writeCapLimit(100), 2u);
    // A base below the squeeze is never raised.
    EXPECT_EQ(inj.readCapLimit(3), 3u);

    inj.fire(FaultSite::kHtmBegin); // Hits 3,4: still squeezed.
    inj.fire(FaultSite::kHtmBegin);
    EXPECT_TRUE(inj.squeezeActive());

    inj.fire(FaultSite::kHtmBegin); // Hit 5: expired.
    EXPECT_FALSE(inj.squeezeActive());
    EXPECT_EQ(inj.readCapLimit(100), 100u);
}

TEST(FaultInjectorTest, TraceRecordsFirings)
{
    FaultPlan plan;
    plan.recordTrace = true;
    plan.add(abortRule(FaultSite::kTxRead, 2));
    FaultInjector inj(plan, 0);
    inj.fire(FaultSite::kTxRead);
    inj.fire(FaultSite::kTxRead);
    inj.fire(FaultSite::kPreCommit);
    ASSERT_EQ(inj.trace().size(), 1u);
    EXPECT_EQ(inj.trace()[0].site, FaultSite::kTxRead);
    EXPECT_EQ(inj.trace()[0].kind, FaultKind::kAbortConflict);
    EXPECT_EQ(inj.trace()[0].hit, 2u);
}

TEST(FaultInjectorTest, SameSeedSameSequenceIsDeterministic)
{
    FaultPlan plan;
    plan.seed = 99;
    plan.recordTrace = true;
    FaultRule r = abortRule(FaultSite::kTxRead, 1, 1);
    r.probability = 0.3;
    plan.add(r);
    FaultRule d;
    d.site = FaultSite::kPublishWindow;
    d.kind = FaultKind::kDelay;
    d.period = 1;
    d.probability = 0.5;
    d.delaySpins = 10;
    plan.add(d);

    auto runOnce = [&plan](std::vector<FaultEvent> &trace_out) {
        FaultInjector inj(plan, 1);
        for (int i = 0; i < 500; ++i) {
            inj.fire(FaultSite::kTxRead);
            if (i % 3 == 0)
                inj.fire(FaultSite::kPublishWindow);
        }
        trace_out = inj.trace();
        return inj.totalFires();
    };
    std::vector<FaultEvent> a, b;
    uint64_t aFires = runOnce(a);
    uint64_t bFires = runOnce(b);
    EXPECT_EQ(aFires, bFires);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].site, b[i].site);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].hit, b[i].hit);
    }
    EXPECT_GT(aFires, 0u);
}

TEST(FaultInjectorTest, DifferentTidsDecorrelate)
{
    // Same plan, different threads: the probabilistic decisions must
    // not be lockstep-identical across tids (seed mixing).
    FaultPlan plan;
    plan.seed = 5;
    FaultRule r = abortRule(FaultSite::kTxRead, 1, 1);
    r.probability = 0.5;
    plan.add(r);
    FaultInjector a(plan, 0);
    FaultInjector b(plan, 1);
    unsigned diverged = 0;
    for (int i = 0; i < 256; ++i) {
        if (a.fire(FaultSite::kTxRead) != b.fire(FaultSite::kTxRead))
            ++diverged;
    }
    EXPECT_GT(diverged, 0u);
}

/**
 * Reference injector: the uncompiled semantics, kept deliberately
 * naive. Every hit scans every rule in plan order, recomputes the
 * probability threshold, and applies the period modulo for every
 * period. The compiled FaultInjector must agree with it hit for hit,
 * including which hits draw from the RNG.
 */
class ReferenceInjector
{
  public:
    ReferenceInjector(const FaultPlan &plan, unsigned tid)
        : rng_(plan.seed ^ (uint64_t(tid) * 0x9e3779b97f4a7c15ull)),
          recordTrace_(plan.recordTrace)
    {
        for (const FaultRule &rule : plan.rules) {
            if (rule.tid >= 0 && static_cast<unsigned>(rule.tid) != tid)
                continue;
            rules_.push_back({rule, 0});
        }
    }

    FaultKind
    fire(FaultSite site, uint32_t *delay_spins)
    {
        const unsigned idx = static_cast<unsigned>(site);
        const uint64_t hit = ++hits_[idx];
        for (auto &rs : rules_) {
            const FaultRule &r = rs.rule;
            if (r.site != site || r.kind == FaultKind::kNone)
                continue;
            if (rs.fired >= r.maxFires || hit < r.firstHit)
                continue;
            if (r.period == 0 ? hit != r.firstHit
                              : (hit - r.firstHit) % r.period != 0)
                continue;
            if (r.probability < 1.0) {
                uint64_t threshold = r.probability <= 0.0
                    ? 0
                    : static_cast<uint64_t>(std::ldexp(r.probability, 64));
                if (threshold == 0 || rng_.next() >= threshold)
                    continue;
            }
            ++rs.fired;
            ++fires_[idx];
            ++totalFires_;
            if (recordTrace_)
                trace_.push_back(FaultEvent{site, r.kind, hit});
            if (r.kind == FaultKind::kCapacitySqueeze) {
                squeezeRead_ = r.squeezeReadLines;
                squeezeWrite_ = r.squeezeWriteLines;
                squeezeUntil_ = r.squeezeTxns == 0
                    ? ~uint64_t(0)
                    : hits(FaultSite::kHtmBegin) + r.squeezeTxns;
                continue;
            }
            if (r.kind == FaultKind::kDelay && delay_spins != nullptr)
                *delay_spins = r.delaySpins;
            return r.kind;
        }
        return FaultKind::kNone;
    }

    bool
    squeezeActive() const
    {
        return squeezeUntil_ != 0 &&
               hits(FaultSite::kHtmBegin) < squeezeUntil_;
    }

    size_t
    readCapLimit(size_t base) const
    {
        return squeezeActive() && squeezeRead_ < base ? squeezeRead_
                                                      : base;
    }

    size_t
    writeCapLimit(size_t base) const
    {
        return squeezeActive() && squeezeWrite_ < base ? squeezeWrite_
                                                       : base;
    }

    uint64_t hits(FaultSite s) const { return hits_[unsigned(s)]; }
    uint64_t fires(FaultSite s) const { return fires_[unsigned(s)]; }
    uint64_t totalFires() const { return totalFires_; }
    const std::vector<FaultEvent> &trace() const { return trace_; }

  private:
    struct RuleState
    {
        FaultRule rule;
        uint64_t fired;
    };

    Rng rng_;
    bool recordTrace_;
    std::vector<RuleState> rules_;
    std::array<uint64_t, kNumFaultSites> hits_{};
    std::array<uint64_t, kNumFaultSites> fires_{};
    uint64_t totalFires_ = 0;
    uint64_t squeezeUntil_ = 0;
    size_t squeezeRead_ = 0;
    size_t squeezeWrite_ = 0;
    std::vector<FaultEvent> trace_;
};

/** A random rule over a handful of sites, mixing every rule knob. */
FaultRule
randomRule(Rng &rng)
{
    static const FaultSite kSites[] = {
        FaultSite::kHtmBegin, FaultSite::kTxRead, FaultSite::kTxWrite,
        FaultSite::kPreCommit, FaultSite::kPublishWindow};
    static const FaultKind kKinds[] = {
        FaultKind::kNone, FaultKind::kAbortConflict,
        FaultKind::kAbortCapacity, FaultKind::kAbortOther,
        FaultKind::kAbortExplicit, FaultKind::kDelay, FaultKind::kYield,
        FaultKind::kCapacitySqueeze};
    static const double kProbs[] = {0.0, 5e-4, 0.3, 1.0};
    FaultRule r;
    r.site = kSites[rng.nextBounded(5)];
    r.kind = kKinds[rng.nextBounded(8)];
    r.firstHit = rng.nextRange(1, 20);
    switch (rng.nextBounded(3)) {
      case 0: r.period = 0; break;
      case 1: r.period = 1; break;
      default: r.period = rng.nextRange(2, 7); break;
    }
    if (rng.nextPercent(30))
        r.maxFires = rng.nextRange(1, 5);
    r.probability = kProbs[rng.nextBounded(4)];
    r.delaySpins = static_cast<uint32_t>(rng.nextRange(1, 1000));
    r.squeezeReadLines = rng.nextRange(1, 64);
    r.squeezeWriteLines = rng.nextRange(1, 64);
    r.squeezeTxns = rng.nextBounded(4);
    r.tid = static_cast<int>(rng.nextBounded(3)) - 1; // -1, 0 or 1.
    return r;
}

TEST(FaultInjectorTest, CompiledPlanMatchesReferenceOnRandomPlans)
{
    Rng rng(2024);
    constexpr unsigned kPlans = 50;
    constexpr unsigned kHitsPerPlan = 2000; // 100k hits in total.
    uint64_t fired = 0;
    for (unsigned p = 0; p < kPlans; ++p) {
        FaultPlan plan;
        plan.seed = rng.next();
        plan.recordTrace = true;
        const unsigned nrules = static_cast<unsigned>(rng.nextRange(1, 8));
        for (unsigned i = 0; i < nrules; ++i)
            plan.add(randomRule(rng));
        const unsigned tid = static_cast<unsigned>(rng.nextBounded(2));
        FaultInjector inj(plan, tid);
        ReferenceInjector ref(plan, tid);
        for (unsigned h = 0; h < kHitsPerPlan; ++h) {
            const auto site =
                static_cast<FaultSite>(rng.nextBounded(5));
            uint32_t gotSpins = 0, wantSpins = 0;
            const FaultKind got = inj.fire(site, &gotSpins);
            const FaultKind want = ref.fire(site, &wantSpins);
            ASSERT_EQ(got, want) << "plan " << p << " hit " << h;
            ASSERT_EQ(gotSpins, wantSpins) << "plan " << p << " hit " << h;
            ASSERT_EQ(inj.squeezeActive(), ref.squeezeActive());
            ASSERT_EQ(inj.readCapLimit(100), ref.readCapLimit(100));
            ASSERT_EQ(inj.writeCapLimit(100), ref.writeCapLimit(100));
        }
        for (unsigned s = 0; s < kNumFaultSites; ++s) {
            const auto site = static_cast<FaultSite>(s);
            EXPECT_EQ(inj.hits(site), ref.hits(site));
            EXPECT_EQ(inj.fires(site), ref.fires(site));
        }
        EXPECT_EQ(inj.totalFires(), ref.totalFires());
        ASSERT_EQ(inj.trace().size(), ref.trace().size());
        for (size_t i = 0; i < ref.trace().size(); ++i) {
            EXPECT_EQ(inj.trace()[i].site, ref.trace()[i].site);
            EXPECT_EQ(inj.trace()[i].kind, ref.trace()[i].kind);
            EXPECT_EQ(inj.trace()[i].hit, ref.trace()[i].hit);
        }
        fired += ref.totalFires();
    }
    EXPECT_GT(fired, 0u);
}

/** A lone every-hit draw rule: the shape fire() rolls inline. */
FaultRule
everyHitDrawRule(FaultSite site, FaultKind kind, double probability)
{
    FaultRule r;
    r.site = site;
    r.kind = kind;
    r.period = 1;
    r.probability = probability;
    r.delaySpins = 7;
    return r;
}

/**
 * A plan that mixes inline and walked sites on one RNG: each of six
 * sites carries either a lone every-hit draw rule (p 5e-4 or 0.3;
 * abort, delay or yield), or rules that take the walk -- a positional
 * one-shot, a capped or periodic draw, a capacity squeeze, or two
 * every-hit draw rules on the same site. A draw site may also carry a
 * rule for another thread, which the tid filter drops.
 */
FaultPlan
inlineDrawPlan(Rng &rng, unsigned tid)
{
    static const FaultSite kSites[] = {
        FaultSite::kHtmBegin, FaultSite::kTxRead, FaultSite::kTxWrite,
        FaultSite::kPreCommit, FaultSite::kPublishWindow,
        FaultSite::kPrefixCommit};
    static const FaultKind kDrawKinds[] = {
        FaultKind::kAbortOther, FaultKind::kAbortConflict,
        FaultKind::kDelay, FaultKind::kYield};
    static const double kDrawProbs[] = {5e-4, 0.3};
    FaultPlan plan;
    plan.seed = rng.next();
    plan.recordTrace = true;
    // Every plan has at least one site on each path.
    const size_t n = std::size(kSites);
    const size_t forcedDraw = rng.nextBounded(n);
    const size_t forcedWalk = (forcedDraw + rng.nextRange(1, n - 1)) % n;
    for (size_t i = 0; i < n; ++i) {
        const FaultSite site = kSites[i];
        const FaultKind kind = kDrawKinds[rng.nextBounded(4)];
        const double p = kDrawProbs[rng.nextBounded(2)];
        if (i == forcedDraw || (i != forcedWalk && rng.nextPercent(50))) {
            plan.add(everyHitDrawRule(site, kind, p));
            if (rng.nextPercent(30)) {
                FaultRule other = abortRule(site, 1, 1);
                other.tid = static_cast<int>(tid) + 1;
                plan.add(other);
            }
            continue;
        }
        FaultRule r = everyHitDrawRule(site, kind, p);
        switch (rng.nextBounded(5)) {
          case 0: // Positional one-shot.
            r.period = 0;
            r.firstHit = rng.nextRange(1, 50);
            r.probability = 1.0;
            break;
          case 1: // Every-hit draw, but capped.
            r.maxFires = rng.nextRange(1, 5);
            break;
          case 2: // Periodic draw from a later first hit.
            r.firstHit = rng.nextRange(1, 20);
            r.period = rng.nextRange(2, 7);
            break;
          case 3: // Capacity squeeze every few hits.
            r.kind = FaultKind::kCapacitySqueeze;
            r.period = rng.nextRange(2, 7);
            r.squeezeReadLines = rng.nextRange(1, 64);
            r.squeezeWriteLines = rng.nextRange(1, 64);
            r.squeezeTxns = rng.nextBounded(4);
            break;
          default: // A second every-hit draw rule on the same site.
            plan.add(r);
            r.kind = kDrawKinds[rng.nextBounded(4)];
            r.probability = kDrawProbs[rng.nextBounded(2)];
            break;
        }
        plan.add(r);
    }
    return plan;
}

TEST(FaultInjectorTest, InlineDrawPathMatchesReference)
{
    // fire() rolls a lone every-hit draw rule inline and walks every
    // other site; both share the RNG, so the two paths must interleave
    // their draws exactly as the reference does. The second pass runs
    // after resetForTest and must replay the first hit for hit.
    Rng rng(4242);
    constexpr unsigned kPlans = 8;
    constexpr unsigned kHitsPerPlan = 100000;
    uint64_t fired = 0;
    for (unsigned p = 0; p < kPlans; ++p) {
        const unsigned tid = static_cast<unsigned>(rng.nextBounded(2));
        const FaultPlan plan = inlineDrawPlan(rng, tid);
        const uint64_t siteSeed = rng.next();
        FaultInjector inj(plan, tid);
        for (unsigned pass = 0; pass < 2; ++pass) {
            ReferenceInjector ref(plan, tid);
            Rng sites(siteSeed);
            for (unsigned h = 0; h < kHitsPerPlan; ++h) {
                const auto site =
                    static_cast<FaultSite>(sites.nextBounded(6));
                uint32_t gotSpins = 0, wantSpins = 0;
                const FaultKind got = inj.fire(site, &gotSpins);
                const FaultKind want = ref.fire(site, &wantSpins);
                ASSERT_EQ(got, want)
                    << "plan " << p << " pass " << pass << " hit " << h;
                ASSERT_EQ(gotSpins, wantSpins)
                    << "plan " << p << " pass " << pass << " hit " << h;
                ASSERT_EQ(inj.readCapLimit(100), ref.readCapLimit(100));
                ASSERT_EQ(inj.writeCapLimit(100), ref.writeCapLimit(100));
            }
            for (unsigned s = 0; s < kNumFaultSites; ++s) {
                const auto site = static_cast<FaultSite>(s);
                ASSERT_EQ(inj.hits(site), ref.hits(site))
                    << "plan " << p << " pass " << pass;
                ASSERT_EQ(inj.fires(site), ref.fires(site))
                    << "plan " << p << " pass " << pass;
            }
            ASSERT_EQ(inj.totalFires(), ref.totalFires());
            ASSERT_EQ(inj.trace().size(), ref.trace().size());
            for (size_t i = 0; i < ref.trace().size(); ++i) {
                ASSERT_EQ(inj.trace()[i].site, ref.trace()[i].site);
                ASSERT_EQ(inj.trace()[i].kind, ref.trace()[i].kind);
                ASSERT_EQ(inj.trace()[i].hit, ref.trace()[i].hit);
            }
            fired += ref.totalFires();
            inj.resetForTest();
        }
    }
    EXPECT_GT(fired, 0u);
}

TEST(FaultInjectorTest, BenchCalibrationScheduleIsPinned)
{
    // The plan HtmTxn builds for randomAbortProb = 5e-4 (the bench
    // calibration) on tid 0 with seed 1, driven by a fixed cycle of
    // 8 reads, 2 writes and 1 pre-commit. The firing call indices
    // are pinned: any change to which hits draw from the RNG, or in
    // what order, moves them.
    FaultPlan plan;
    plan.seed = 1;
    for (FaultSite site : {FaultSite::kTxRead, FaultSite::kTxWrite,
                           FaultSite::kPreCommit}) {
        FaultRule rule;
        rule.site = site;
        rule.kind = FaultKind::kAbortOther;
        rule.period = 1;
        rule.probability = 5e-4;
        plan.add(rule);
    }
    FaultInjector inj(plan, 0);
    std::vector<uint64_t> firings;
    for (uint64_t call = 1; firings.size() < 16 && call <= 1000000;
         ++call) {
        const uint64_t slot = call % 11;
        const FaultSite site = slot < 8 ? FaultSite::kTxRead
            : slot < 10                 ? FaultSite::kTxWrite
                                        : FaultSite::kPreCommit;
        if (inj.fire(site) != FaultKind::kNone)
            firings.push_back(call);
    }
    const std::vector<uint64_t> expected = {
        2029, 2548, 5105, 6384, 11334, 11606, 17957, 28212,
        31718, 32851, 33554, 36696, 40248, 40388, 40613, 41917};
    EXPECT_EQ(firings, expected) << ::testing::PrintToString(firings);
}

TEST(FaultSchedulesTest, AllNamedSchedulesBuild)
{
    for (const std::string &name : chaosScheduleNames()) {
        FaultPlan plan;
        EXPECT_TRUE(makeChaosSchedule(name, 42, plan)) << name;
        EXPECT_FALSE(plan.empty()) << name;
        EXPECT_EQ(plan.seed, 42u) << name;
    }
    FaultPlan plan;
    EXPECT_FALSE(makeChaosSchedule("no-such-schedule", 1, plan));
}

TEST(FaultSiteNamesTest, NamesAreStableAndDistinct)
{
    for (unsigned i = 0; i < kNumFaultSites; ++i) {
        const char *name = faultSiteName(static_cast<FaultSite>(i));
        EXPECT_NE(std::string(name), "unknown");
    }
    EXPECT_STREQ(faultKindName(FaultKind::kAbortCapacity),
                 "abort-capacity");
}

} // namespace
} // namespace rhtm
