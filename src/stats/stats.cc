#include "src/stats/stats.h"

#include <sstream>

namespace rhtm
{

namespace
{

double
ratio(uint64_t num, uint64_t den)
{
    return den == 0 ? 0.0 : static_cast<double>(num) / den;
}

} // namespace

double
StatsSummary::conflictAbortsPerOp() const
{
    return ratio(get(Counter::kHtmConflictAborts), operations());
}

double
StatsSummary::capacityAbortsPerOp() const
{
    return ratio(get(Counter::kHtmCapacityAborts), operations());
}

double
StatsSummary::injectedAbortsPerOp() const
{
    return ratio(get(Counter::kHtmInjectedAborts), operations());
}

double
StatsSummary::subscriptionAbortsPerOp() const
{
    return ratio(get(Counter::kHtmSubscriptionAborts), operations());
}

double
StatsSummary::restartsPerSlowPath() const
{
    uint64_t slow = get(Counter::kCommitsMixedPath) +
                    get(Counter::kCommitsSoftwarePath) +
                    get(Counter::kCommitsSerialPath);
    return ratio(get(Counter::kSlowPathRestarts), slow);
}

double
StatsSummary::slowPathRatio() const
{
    return ratio(get(Counter::kFallbacks), operations());
}

double
StatsSummary::prefixSuccessRatio() const
{
    return ratio(get(Counter::kPrefixSuccesses),
                 get(Counter::kPrefixAttempts));
}

double
StatsSummary::postfixSuccessRatio() const
{
    return ratio(get(Counter::kPostfixSuccesses),
                 get(Counter::kPostfixAttempts));
}

uint64_t
StatsSummary::accesses() const
{
    return get(Counter::kFastPathReads) + get(Counter::kFastPathWrites) +
           get(Counter::kSlowPathReads) + get(Counter::kSlowPathWrites);
}

double
StatsSummary::accessesPerOp() const
{
    return ratio(accesses(), operations());
}

void
StatsSummary::accumulate(const ThreadStats &ts)
{
    for (unsigned i = 0; i < kNumCounters; ++i)
        totals[i] += ts.get(static_cast<Counter>(i));
}

std::string
StatsSummary::toString() const
{
    std::ostringstream os;
    os << "operations:            " << operations() << "\n"
       << "fast-path commits:     " << get(Counter::kCommitsFastPath) << "\n"
       << "mixed-path commits:    " << get(Counter::kCommitsMixedPath)
       << "\n"
       << "software-path commits: " << get(Counter::kCommitsSoftwarePath)
       << "\n"
       << "serial-path commits:   " << get(Counter::kCommitsSerialPath)
       << "\n"
       << "HTM conflict aborts:   " << get(Counter::kHtmConflictAborts)
       << " (" << conflictAbortsPerOp() << "/op)\n"
       << "HTM capacity aborts:   " << get(Counter::kHtmCapacityAborts)
       << " (" << capacityAbortsPerOp() << "/op)\n"
       << "HTM injected aborts:   " << get(Counter::kHtmInjectedAborts)
       << " (" << injectedAbortsPerOp() << "/op)\n"
       << "HTM subscription aborts: "
       << get(Counter::kHtmSubscriptionAborts) << " ("
       << subscriptionAbortsPerOp() << "/op)\n"
       << "fast-path attempts:    " << get(Counter::kFastPathAttempts)
       << "\n"
       << "kill-switch activations: "
       << get(Counter::kKillSwitchActivations) << "\n"
       << "kill-switch bypasses:  " << get(Counter::kKillSwitchBypasses)
       << "\n"
       << "slow-path restarts:    " << get(Counter::kSlowPathRestarts)
       << " (" << restartsPerSlowPath() << "/slow-path)\n"
       << "slow-path ratio:       " << slowPathRatio() << "\n"
       << "prefix success ratio:  " << prefixSuccessRatio() << "\n"
       << "postfix success ratio: " << postfixSuccessRatio() << "\n"
       << "serial acquires:       " << get(Counter::kSerialAcquires)
       << " (" << ratio(get(Counter::kSerialWaitTicks),
                        get(Counter::kSerialAcquires))
       << " wait-ticks each)\n"
       << "stalls detected:       " << get(Counter::kStallsDetected)
       << " (yields " << get(Counter::kStallYields) << ", sleeps "
       << get(Counter::kStallSleeps) << ", recovered "
       << get(Counter::kStallRecoveries) << ")\n"
       << "irrevocable upgrades:  "
       << get(Counter::kIrrevocableUpgrades) << "\n"
       << "deferred actions:      commit "
       << get(Counter::kCommitActionsRun) << ", abort "
       << get(Counter::kAbortActionsRun) << "\n"
       << "user-exception aborts: "
       << get(Counter::kUserExceptionAborts) << "\n"
       << "transactional accesses: " << accesses() << " ("
       << accessesPerOp() << "/op)\n";
    if (get(Counter::kDurableRecordsSealed) > 0 ||
        get(Counter::kPersistEscalations) > 0) {
        os << "persist escalations:   "
           << get(Counter::kPersistEscalations) << "\n"
           << "durable records:       "
           << get(Counter::kDurableRecordsSealed) << " sealed ("
           << get(Counter::kDurableEntriesLogged) << " entries), "
           << get(Counter::kDurableMarksWritten) << " marked\n";
    }
    if (get(Counter::kDeadlineExceeded) > 0 ||
        get(Counter::kAdmissionShed) > 0 ||
        get(Counter::kAdmissionQueuedTicks) > 0) {
        os << "deadline exceeded:     "
           << get(Counter::kDeadlineExceeded) << "\n"
           << "admission:             shed "
           << get(Counter::kAdmissionShed) << ", queued-ticks "
           << get(Counter::kAdmissionQueuedTicks) << "\n";
    }
    return os.str();
}

} // namespace rhtm
