#include "src/fault/fault_injector.h"

#include <cmath>

namespace rhtm
{

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::kHtmBegin: return "htm-begin";
      case FaultSite::kTxRead: return "tx-read";
      case FaultSite::kTxWrite: return "tx-write";
      case FaultSite::kPreCommit: return "pre-commit";
      case FaultSite::kPublishWindow: return "publish-window";
      case FaultSite::kPrefixCommit: return "prefix-commit";
      case FaultSite::kPostFirstWrite: return "post-first-write";
      case FaultSite::kPostfixCommit: return "postfix-commit";
      case FaultSite::kSoftwareWrite: return "software-write";
      case FaultSite::kFallbackStart: return "fallback-start";
      case FaultSite::kSerialHeld: return "serial-held";
      case FaultSite::kIrrevocableUpgrade: return "irrevocable-upgrade";
      case FaultSite::kUserException: return "user-exception";
      case FaultSite::kCrashPreLogSeal: return "crash-pre-log-seal";
      case FaultSite::kCrashPostSealPreWriteback:
        return "crash-post-seal-pre-writeback";
      case FaultSite::kCrashMidWriteback: return "crash-mid-writeback";
      case FaultSite::kCrashPostMarker: return "crash-post-marker";
      case FaultSite::kDeadlineWait: return "deadline-wait";
      case FaultSite::kAdmissionGate: return "admission-gate";
      case FaultSite::kNumSites: break;
    }
    return "unknown";
}

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::kNone: return "none";
      case FaultKind::kAbortConflict: return "abort-conflict";
      case FaultKind::kAbortCapacity: return "abort-capacity";
      case FaultKind::kAbortOther: return "abort-other";
      case FaultKind::kAbortExplicit: return "abort-explicit";
      case FaultKind::kDelay: return "delay";
      case FaultKind::kYield: return "yield";
      case FaultKind::kCapacitySqueeze: return "capacity-squeeze";
    }
    return "unknown";
}

FaultPlan
interruptAbortPlan(double probability, uint64_t seed)
{
    FaultPlan plan;
    plan.seed = seed;
    for (FaultSite site : {FaultSite::kTxRead, FaultSite::kTxWrite,
                           FaultSite::kPreCommit}) {
        FaultRule rule;
        rule.site = site;
        rule.kind = FaultKind::kAbortOther;
        rule.period = 1;
        rule.probability = probability >= 1.0 ? 1.0 : probability;
        plan.add(rule);
    }
    return plan;
}

FaultInjector::FaultInjector(const FaultPlan &plan, unsigned tid)
    : tid_(tid), seed_(plan.seed),
      rng_(plan.seed ^ (uint64_t(tid) * 0x9e3779b97f4a7c15ull)),
      recordTrace_(plan.recordTrace)
{
    for (const FaultRule &rule : plan.rules) {
        if (rule.tid >= 0 && static_cast<unsigned>(rule.tid) != tid)
            continue;
        if (rule.kind == FaultKind::kNone ||
            static_cast<unsigned>(rule.site) >= kNumFaultSites)
            continue;
        RuleState rs{rule};
        if (rule.probability < 1.0) {
            // Threshold compare on the raw draw keeps this exact and
            // deterministic. A threshold that rounds to 0 (p <= 0 or
            // below 2^-64) can never fire and never draws: drop it.
            rs.draws = true;
            rs.threshold = rule.probability <= 0.0
                ? 0
                : static_cast<uint64_t>(std::ldexp(rule.probability, 64));
            if (rs.threshold == 0)
                continue;
        }
        sites_[static_cast<unsigned>(rule.site)].push_back(rs);
        ruledSites_ |= uint32_t(1) << static_cast<unsigned>(rule.site);
    }
    // A lone rule that matches every hit and is never capped reduces
    // the walk to one draw and one compare: fire() does those inline.
    for (unsigned idx = 0; idx < kNumFaultSites; ++idx) {
        if (sites_[idx].size() != 1)
            continue;
        const RuleState &rs = sites_[idx].front();
        if (rs.draws && rs.rule.firstHit == 1 && rs.rule.period == 1 &&
            rs.rule.maxFires == ~uint64_t(0)) {
            drawSites_ |= uint32_t(1) << idx;
            drawThreshold_[idx] = rs.threshold;
        }
    }
}

void
FaultInjector::resetForTest()
{
    rng_ = Rng(seed_ ^ (uint64_t(tid_) * 0x9e3779b97f4a7c15ull));
    for (auto &rules : sites_)
        for (RuleState &rs : rules)
            rs.fired = 0;
    hits_.fill(0);
    fires_.fill(0);
    totalFires_ = 0;
    squeezeUntil_ = 0;
    squeezeRead_ = 0;
    squeezeWrite_ = 0;
    trace_.clear();
}

FaultKind
FaultInjector::fireRuled(unsigned idx, uint64_t hit, uint32_t *delay_spins)
{
    for (RuleState &rs : sites_[idx]) {
        const FaultRule &r = rs.rule;
        if (rs.fired >= r.maxFires || hit < r.firstHit)
            continue;
        if (r.period == 0) {
            if (hit != r.firstHit)
                continue;
        } else if (r.period != 1 && (hit - r.firstHit) % r.period != 0) {
            continue;
        }
        if (rs.draws && rng_.next() >= rs.threshold)
            continue;
        const FaultKind kind = fireRule(rs, idx, hit, delay_spins);
        if (kind != FaultKind::kNone)
            return kind;
    }
    return FaultKind::kNone;
}

FaultKind
FaultInjector::fireRule(RuleState &rs, unsigned idx, uint64_t hit,
                        uint32_t *delay_spins)
{
    const FaultRule &r = rs.rule;
    ++rs.fired;
    ++fires_[idx];
    ++totalFires_;
    if (recordTrace_)
        trace_.push_back(
            FaultEvent{static_cast<FaultSite>(idx), r.kind, hit});

    if (r.kind == FaultKind::kCapacitySqueeze) {
        const uint64_t begins =
            hits_[static_cast<unsigned>(FaultSite::kHtmBegin)];
        squeezeRead_ = r.squeezeReadLines;
        squeezeWrite_ = r.squeezeWriteLines;
        squeezeUntil_ = r.squeezeTxns == 0 ? ~uint64_t(0)
                                           : begins + r.squeezeTxns;
        return FaultKind::kNone; // A squeeze arms state; nothing unwinds.
    }
    if (r.kind == FaultKind::kDelay && delay_spins != nullptr)
        *delay_spins = r.delaySpins;
    return r.kind;
}

} // namespace rhtm
