/**
 * @file
 * TmConfig: the commit-path switches (docs/COMMIT_PATH.md).
 *
 * The commit path ships one design: per-transaction read/write Bloom
 * filters published through the CommitFilterRing (front 1) and a
 * hash-indexed redo buffer (front 2) are unconditional. What remains
 * switchable is the eager NOrec family's timestamp extension (front
 * 3), whose "off" side is the paper's Section 3.1 eager NOrec, and a
 * test hook. The switches are engine-wide policy, not per-algorithm:
 * a session that has no use for one (e.g. a TL2-family session and
 * the timestamp extension) simply ignores it.
 */

#ifndef RHTM_CORE_ENGINE_TM_CONFIG_H
#define RHTM_CORE_ENGINE_TM_CONFIG_H

namespace rhtm
{

/**
 * Commit-path switches, wired from RuntimeConfig into every session
 * (TxSession::configureCommitPath). Defaults are the shipped
 * configuration (docs/COMMIT_PATH.md has the safety argument).
 */
struct TmConfig
{
    /**
     * Front 3: timestamp extension for the eager NOrec family. On a
     * clock bump in the read phase, revalidate the (filter-summarized)
     * value read log once and re-stamp txVersion_ instead of
     * restarting. The lazy family has always extended; this wires the
     * same rule into the eager sessions, guarded by
     * RetryPolicy::revertTsExtensionFix for the check matrix. Off =
     * the paper's eager NOrec, which restarts on any clock move.
     */
    bool tsExtension = true;

    /**
     * Test hook: saturate every Bloom filter (all bits set), the
     * universal hash collision. Forces the filter-intersection path on
     * every check (ring skips never taken) so the check matrix can pin
     * the collision schedule deterministically (the filter-collision
     * program).
     */
    bool filterSaturateForTest = false;
};

} // namespace rhtm

#endif // RHTM_CORE_ENGINE_TM_CONFIG_H
