/**
 * @file
 * White-box tests of the STM baselines, driving sessions directly to
 * pin down the protocol differences the paper leans on: the NOrec
 * readers value-validate (extending across unrelated commits), TL2
 * detects conflicts per location, eager writers hold the clock.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/api/runtime.h"

namespace rhtm
{
namespace
{

/** Drive a complete single-location write transaction on @p s. */
void
writeTxn(TxSession &s, uint64_t *addr, uint64_t value)
{
    s.begin(TxnHint::kNone);
    s.write(addr, value);
    s.commit();
    s.onComplete();
}

struct StmFixture : public ::testing::Test
{
    alignas(64) uint64_t x = 1;
    alignas(64) uint64_t y = 2;
    alignas(64) uint64_t z = 3;
};

TEST_F(StmFixture, EagerNOrecReaderExtendsAcrossUnrelatedCommit)
{
    // Front 3: the eager session keeps a value log and extends its
    // snapshot across a disjoint commit instead of restarting (the
    // paper's eager NOrec restarts on any commit).
    TmRuntime rt(AlgoKind::kNOrec);
    TxSession &a = rt.registerThread().session();
    TxSession &b = rt.registerThread().session();

    a.begin(TxnHint::kNone);
    EXPECT_EQ(a.read(&x), 1u);

    writeTxn(b, &z, 30);

    EXPECT_EQ(a.read(&y), 2u) << "extension should absorb the commit";
    a.commit();
    a.onComplete();
}

TEST_F(StmFixture, EagerNOrecReaderStillRestartsOnOverwrite)
{
    TmRuntime rt(AlgoKind::kNOrec);
    TxSession &a = rt.registerThread().session();
    TxSession &b = rt.registerThread().session();

    a.begin(TxnHint::kNone);
    EXPECT_EQ(a.read(&x), 1u);

    writeTxn(b, &x, 100); // Overwrites a logged location.

    EXPECT_THROW(a.read(&y), TxRestart);
    a.onRestart();
}

TEST_F(StmFixture, EagerNOrecFirstWriteExtendsAcrossUnrelatedCommit)
{
    // The extension also applies at the first-write clock acquire: a
    // foreign disjoint commit between snapshot and first write no
    // longer forces a restart.
    TmRuntime rt(AlgoKind::kNOrec);
    TxSession &a = rt.registerThread().session();
    TxSession &b = rt.registerThread().session();

    a.begin(TxnHint::kNone);
    EXPECT_EQ(a.read(&x), 1u);

    writeTxn(b, &z, 30);

    a.write(&y, 20); // Classic eager NOrec would restart here.
    a.commit();
    a.onComplete();
    EXPECT_EQ(y, 20u);
}

TEST_F(StmFixture, LazyNOrecReaderSurvivesUnrelatedCommit)
{
    TmRuntime rt(AlgoKind::kNOrecLazy);
    TxSession &a = rt.registerThread().session();
    TxSession &b = rt.registerThread().session();

    a.begin(TxnHint::kNone);
    EXPECT_EQ(a.read(&x), 1u);

    writeTxn(b, &z, 30);

    // Value-based validation: x is unchanged, the snapshot extends.
    EXPECT_EQ(a.read(&y), 2u);
    a.commit();
    a.onComplete();
}

TEST_F(StmFixture, LazyNOrecReaderRestartsOnOverwrite)
{
    TmRuntime rt(AlgoKind::kNOrecLazy);
    TxSession &a = rt.registerThread().session();
    TxSession &b = rt.registerThread().session();

    a.begin(TxnHint::kNone);
    EXPECT_EQ(a.read(&x), 1u);

    writeTxn(b, &x, 100);

    EXPECT_THROW(a.read(&y), TxRestart);
    a.onRestart();
}

TEST_F(StmFixture, LazyNOrecWritesDeferredToCommit)
{
    TmRuntime rt(AlgoKind::kNOrecLazy);
    TxSession &a = rt.registerThread().session();

    a.begin(TxnHint::kNone);
    a.write(&x, 50);
    EXPECT_EQ(x, 1u) << "lazy write leaked before commit";
    EXPECT_EQ(a.read(&x), 50u) << "read-own-write through the buffer";
    a.commit();
    a.onComplete();
    EXPECT_EQ(x, 50u);
}

TEST_F(StmFixture, EagerNOrecWritesInPlaceUnderClockLock)
{
    TmRuntime rt(AlgoKind::kNOrec);
    TxSession &a = rt.registerThread().session();

    a.begin(TxnHint::kNone);
    a.write(&x, 50);
    EXPECT_EQ(x, 50u) << "eager write should be in place";
    EXPECT_TRUE(clockIsLocked(rt.globals().clock))
        << "the clock is held from first write to commit";
    a.commit();
    a.onComplete();
    EXPECT_FALSE(clockIsLocked(rt.globals().clock));
}

TEST_F(StmFixture, EagerNOrecWriterBlocksOtherWriter)
{
    // a holds the clock from its first write to commit: b's first
    // write waits for the lock, then extends its (empty) read log and
    // takes the clock itself.
    TmRuntime rt(AlgoKind::kNOrec);
    TxSession &a = rt.registerThread().session();
    TxSession &b = rt.registerThread().session();

    a.begin(TxnHint::kNone);
    b.begin(TxnHint::kNone);
    a.write(&x, 10);
    std::atomic<bool> b_wrote{false};
    std::thread writer_b([&] {
        b.write(&y, 20);
        b_wrote = true;
        b.commit();
        b.onComplete();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(b_wrote) << "b must not write while a holds the clock";
    a.commit();
    a.onComplete();
    writer_b.join();
    EXPECT_EQ(x, 10u);
    EXPECT_EQ(y, 20u);
}

TEST_F(StmFixture, Tl2ReaderSurvivesUnrelatedCommit)
{
    TmRuntime rt(AlgoKind::kTl2);
    TxSession &a = rt.registerThread().session();
    TxSession &b = rt.registerThread().session();

    a.begin(TxnHint::kNone);
    EXPECT_EQ(a.read(&x), 1u);

    writeTxn(b, &z, 30);

    // Per-location conflict detection: the commit touched a different
    // orec, so the reader proceeds (TL2's scalability edge).
    EXPECT_EQ(a.read(&y), 2u);
    a.commit();
    a.onComplete();
}

TEST_F(StmFixture, Tl2ReaderRestartsOnOverwrittenLocation)
{
    TmRuntime rt(AlgoKind::kTl2);
    TxSession &a = rt.registerThread().session();
    TxSession &b = rt.registerThread().session();

    a.begin(TxnHint::kNone);
    EXPECT_EQ(a.read(&x), 1u);

    writeTxn(b, &x, 100);

    // Reading x again sees a version newer than our snapshot.
    EXPECT_THROW(a.read(&x), TxRestart);
    a.onRestart();
}

TEST_F(StmFixture, Tl2WriteWriteConflictRestartsSecond)
{
    TmRuntime rt(AlgoKind::kTl2);
    TxSession &a = rt.registerThread().session();
    TxSession &b = rt.registerThread().session();

    a.begin(TxnHint::kNone);
    b.begin(TxnHint::kNone);
    a.write(&x, 10);
    EXPECT_THROW(b.write(&x, 20), TxRestart);
    b.onRestart();
    a.commit();
    a.onComplete();
    EXPECT_EQ(x, 10u);
}

TEST_F(StmFixture, Tl2ConcurrentDisjointWritersBothCommit)
{
    TmRuntime rt(AlgoKind::kTl2);
    TxSession &a = rt.registerThread().session();
    TxSession &b = rt.registerThread().session();

    a.begin(TxnHint::kNone);
    b.begin(TxnHint::kNone);
    a.write(&x, 10);
    b.write(&y, 20); // NOrec would restart here; TL2 does not.
    a.commit();
    a.onComplete();
    b.commit();
    b.onComplete();
    EXPECT_EQ(x, 10u);
    EXPECT_EQ(y, 20u);
}

TEST_F(StmFixture, Tl2UndoRestoresEagerWritesOnRestart)
{
    TmRuntime rt(AlgoKind::kTl2);
    TxSession &a = rt.registerThread().session();
    TxSession &b = rt.registerThread().session();

    a.begin(TxnHint::kNone);
    a.write(&x, 10);
    EXPECT_EQ(x, 10u) << "eager write in place";

    writeTxn(b, &y, 99);

    // Reading y now fails (version beyond snapshot) and the undo log
    // must restore x.
    EXPECT_THROW(a.read(&y), TxRestart);
    a.onRestart();
    EXPECT_EQ(x, 1u) << "undo log failed to roll back";
}

TEST_F(StmFixture, Tl2ReadOwnLockedLine)
{
    TmRuntime rt(AlgoKind::kTl2);
    TxSession &a = rt.registerThread().session();

    a.begin(TxnHint::kNone);
    a.write(&x, 10);
    EXPECT_EQ(a.read(&x), 10u) << "owner reads through its own lock";
    a.commit();
    a.onComplete();
}

} // namespace
} // namespace rhtm
