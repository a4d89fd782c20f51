/**
 * @file
 * Packet filter: a produce/consume pipeline in the spirit of the
 * paper's Intruder motivation -- producers push packets into a shared
 * transactional queue, consumers pop them, update per-source counters
 * in a transactional hash map, and quarantine noisy sources atomically
 * once they cross a threshold.
 *
 * Build & run:  ./build/examples/packet_filter [--packets=20000]
 */

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/api/runtime.h"
#include "src/structures/tx_hashmap.h"
#include "src/structures/tx_queue.h"
#include "src/util/cli.h"

int
main(int argc, char **argv)
{
    using namespace rhtm;
    CliOptions opts(argc, argv);
    const unsigned producers =
        static_cast<unsigned>(opts.getInt("producers", 2));
    const unsigned consumers =
        static_cast<unsigned>(opts.getInt("consumers", 2));
    const unsigned packets_per_producer =
        static_cast<unsigned>(opts.getInt("packets", 20000));
    opts.exitOnErrors();
    constexpr uint64_t kSources = 64;
    constexpr uint64_t kQuarantineAt = 500;

    TmRuntime rt(AlgoKind::kRhNOrec);
    TxQueue wire;
    TxHashMap per_source(8);   // source -> packets seen.
    TxHashMap quarantined(8);  // source -> count at quarantine time.

    std::atomic<uint64_t> produced{0}, consumed{0};
    std::atomic<bool> producers_done{false};

    std::vector<std::thread> threads;
    for (unsigned p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            ThreadCtx &ctx = rt.registerThread();
            Rng rng(p * 131 + 17);
            for (unsigned i = 0; i < packets_per_producer; ++i) {
                // Skewed sources: a few are chatty.
                uint64_t src = rng.nextPercent(30)
                                   ? rng.nextBounded(4)
                                   : rng.nextBounded(kSources);
                rt.run(ctx, [&](Txn &tx) { wire.push(tx, src); });
                produced.fetch_add(1);
            }
        });
    }
    for (unsigned c = 0; c < consumers; ++c) {
        threads.emplace_back([&] {
            ThreadCtx &ctx = rt.registerThread();
            for (;;) {
                bool got = false;
                rt.run(ctx, [&](Txn &tx) {
                    uint64_t src;
                    got = wire.pop(tx, src);
                    if (!got)
                        return;
                    // Count and quarantine in the same transaction:
                    // the threshold crossing is detected exactly once
                    // no matter how consumers interleave.
                    uint64_t n = per_source.addTo(tx, src, 1);
                    if (n == kQuarantineAt)
                        quarantined.putIfAbsent(tx, src, n);
                });
                if (got) {
                    consumed.fetch_add(1);
                } else if (producers_done.load()) {
                    break; // Wire drained and no more producers.
                }
            }
        });
    }

    for (unsigned p = 0; p < producers; ++p)
        threads[p].join();
    producers_done.store(true);
    for (unsigned c = 0; c < consumers; ++c)
        threads[producers + c].join();

    // Verification: every packet was counted exactly once, and every
    // source that crossed the threshold is quarantined exactly once.
    uint64_t counted = 0;
    per_source.forEachUnsync([&](uint64_t, uint64_t n) { counted += n; });
    uint64_t over_threshold = 0;
    per_source.forEachUnsync([&](uint64_t, uint64_t n) {
        if (n >= kQuarantineAt)
            ++over_threshold;
    });
    bool pass = produced.load() == consumed.load() &&
                counted == consumed.load() &&
                quarantined.sizeUnsync() == over_threshold;

    std::printf("produced:    %llu\n",
                static_cast<unsigned long long>(produced.load()));
    std::printf("consumed:    %llu\n",
                static_cast<unsigned long long>(consumed.load()));
    std::printf("counted:     %llu\n",
                static_cast<unsigned long long>(counted));
    std::printf("quarantined: %llu (expected %llu)\n",
                static_cast<unsigned long long>(quarantined.sizeUnsync()),
                static_cast<unsigned long long>(over_threshold));
    std::printf("%s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
