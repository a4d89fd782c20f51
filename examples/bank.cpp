/**
 * @file
 * Bank: concurrent money transfers with audits, demonstrating
 * composability (multi-account transactions), opacity (auditors see a
 * constant total inside their transaction) and privatization (an
 * account is closed transactionally, then settled with plain reads).
 *
 * Build & run:  ./build/examples/bank [--threads=4] [--accounts=64]
 */

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/api/runtime.h"
#include "src/util/cli.h"

int
main(int argc, char **argv)
{
    using namespace rhtm;
    CliOptions opts(argc, argv);
    const unsigned threads =
        static_cast<unsigned>(opts.getInt("threads", 4));
    const unsigned n_accounts =
        static_cast<unsigned>(opts.getInt("accounts", 64));
    const unsigned transfers =
        static_cast<unsigned>(opts.getInt("transfers", 40000));
    opts.exitOnErrors();
    constexpr uint64_t kOpening = 1000;

    TmRuntime rt(AlgoKind::kRhNOrec);

    struct alignas(64) Account
    {
        uint64_t balance;
        uint64_t open; // 1 while the account accepts transfers.
    };
    std::vector<Account> accounts(n_accounts);
    for (auto &a : accounts) {
        a.balance = kOpening;
        a.open = 1;
    }

    std::atomic<uint64_t> audits_ok{0}, audits_bad{0};
    std::atomic<uint64_t> settled_total{0};

    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            ThreadCtx &ctx = rt.registerThread();
            Rng rng(t * 31 + 7);
            for (unsigned i = 0; i < transfers; ++i) {
                unsigned from = rng.nextBounded(n_accounts);
                unsigned to = rng.nextBounded(n_accounts);
                unsigned roll = rng.nextBounded(100);
                if (roll < 90) {
                    // Transfer: atomic across two accounts.
                    rt.run(ctx, [&](Txn &tx) {
                        if (from == to)
                            return;
                        if (!tx.load(&accounts[from].open) ||
                            !tx.load(&accounts[to].open)) {
                            return; // Closed account: no transfer.
                        }
                        uint64_t f = tx.load(&accounts[from].balance);
                        if (f == 0)
                            return;
                        uint64_t amount = 1 + rng.nextBounded(f);
                        tx.store(&accounts[from].balance, f - amount);
                        tx.store(&accounts[to].balance,
                                 tx.load(&accounts[to].balance) +
                                     amount);
                    });
                } else {
                    // Audit: money only moves between accounts, so the
                    // sum over all balances is constant -- and must
                    // already look constant *inside* the transaction
                    // (opacity: no half-finished transfer is visible).
                    uint64_t sum = 0;
                    rt.run(ctx,
                           [&](Txn &tx) {
                               sum = 0;
                               for (auto &a : accounts)
                                   sum += tx.load(&a.balance);
                           },
                           TxnHint::kReadOnly);
                    if (sum == uint64_t(n_accounts) * kOpening)
                        audits_ok.fetch_add(1);
                    else
                        audits_bad.fetch_add(1);
                }
            }

        });
    }

    // Privatization: while workers still run, the main thread closes
    // one account transactionally, then settles it with plain reads --
    // safe because after the closing transaction commits, no transfer
    // can touch the account (they check `open` in the same
    // transaction).
    {
        ThreadCtx &main_ctx = rt.registerThread();
        unsigned victim = n_accounts / 2;
        rt.run(main_ctx, [&](Txn &tx) {
            tx.store(&accounts[victim].open, 0);
        });
        uint64_t residual = rt.peek(&accounts[victim].balance);
        std::printf("settled account %u holding %llu\n", victim,
                    static_cast<unsigned long long>(residual));
        // Reopen it with the same balance so concurrent audits keep
        // seeing the full opening total; the settled money "returns".
        rt.run(main_ctx, [&](Txn &tx) {
            tx.store(&accounts[victim].open, 1);
        });
        (void)settled_total;
    }

    for (auto &w : workers)
        w.join();

    uint64_t grand = 0;
    for (auto &a : accounts)
        grand += a.balance;
    std::printf("grand total:    %llu (expected %llu)\n",
                static_cast<unsigned long long>(grand),
                static_cast<unsigned long long>(uint64_t(n_accounts) *
                                                kOpening));
    std::printf("audits ok/bad:  %llu/%llu\n",
                static_cast<unsigned long long>(audits_ok.load()),
                static_cast<unsigned long long>(audits_bad.load()));
    bool pass = grand == uint64_t(n_accounts) * kOpening &&
                audits_bad.load() == 0;
    std::printf("%s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
