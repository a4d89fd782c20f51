/**
 * @file
 * KV store: an ordered key-value service built on the transactional
 * red-black tree, with composed multi-key operations (atomic moves,
 * range-less snapshots) and an algorithm switch -- the same store runs
 * on any of the six TM algorithms.
 *
 * Build & run:  ./build/examples/kv_store [--algo=rh-norec]
 */

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/api/runtime.h"
#include "src/structures/tx_rbtree.h"
#include "src/util/cli.h"

int
main(int argc, char **argv)
{
    using namespace rhtm;
    CliOptions opts(argc, argv);
    AlgoKind kind = AlgoKind::kRhNOrec;
    std::string algo_name = opts.getString("algo", "rh-norec");
    if (!algoKindFromString(algo_name, kind)) {
        std::fprintf(stderr, "unknown --algo=%s\n", algo_name.c_str());
        return 2;
    }
    const unsigned threads =
        static_cast<unsigned>(opts.getInt("threads", 4));
    const unsigned ops =
        static_cast<unsigned>(opts.getInt("ops", 30000));
    opts.exitOnErrors();
    constexpr int64_t kKeys = 4096;

    TmRuntime rt(kind);
    TxRbTree store;

    // Seed: every key starts holding its own value.
    {
        ThreadCtx &ctx = rt.registerThread();
        for (int64_t k = 0; k < kKeys; ++k)
            rt.run(ctx, [&](Txn &tx) { store.put(tx, k, k); });
    }

    std::atomic<uint64_t> moves{0}, lookups{0}, misses{0};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            ThreadCtx &ctx = rt.registerThread();
            Rng rng(t + 1);
            for (unsigned i = 0; i < ops; ++i) {
                int64_t a = static_cast<int64_t>(rng.nextBounded(kKeys));
                int64_t b = static_cast<int64_t>(rng.nextBounded(kKeys));
                if (rng.nextPercent(25)) {
                    // Composed operation: atomically move a's value
                    // onto key b (delete + insert in one transaction).
                    bool moved = false;
                    rt.run(ctx, [&](Txn &tx) {
                        moved = false;
                        int64_t v;
                        if (a == b || !store.get(tx, a, v))
                            return;
                        store.remove(tx, a);
                        store.put(tx, b, v);
                        moved = true;
                    });
                    if (moved)
                        moves.fetch_add(1);
                } else {
                    int64_t v;
                    bool hit = false;
                    rt.run(ctx,
                           [&](Txn &tx) { hit = store.get(tx, a, v); },
                           TxnHint::kReadOnly);
                    lookups.fetch_add(1);
                    if (!hit)
                        misses.fetch_add(1);
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();

    // Moves conserve the *number of values* only when the target key
    // was empty; overwrites shrink the store. The structural invariant
    // always holds.
    std::string why;
    bool valid = store.validateStructure(&why);
    std::printf("algorithm:   %s\n", rt.algoName());
    std::printf("store size:  %llu (seeded %lld)\n",
                static_cast<unsigned long long>(store.sizeUnsync()),
                static_cast<long long>(kKeys));
    std::printf("moves:       %llu\n",
                static_cast<unsigned long long>(moves.load()));
    std::printf("lookups:     %llu (%llu misses)\n",
                static_cast<unsigned long long>(lookups.load()),
                static_cast<unsigned long long>(misses.load()));
    std::printf("tree valid:  %s%s%s\n", valid ? "yes" : "NO (",
                valid ? "" : why.c_str(), valid ? "" : ")");
    std::printf("%s", rt.stats().toString().c_str());
    return valid ? 0 : 1;
}
