#!/usr/bin/env bash
# One-stop CI gate: the include-layering lint, the tier-1 build (with
# -Werror) + test suite, the interleaving-explorer `check` leg
# (docs/CHECKING.md), the crash-recovery sweep with its reverted-fix
# regression, an ASan leg over recovery replay (docs/PERSISTENCE.md),
# the HTM tracking tables, the store's slot-pointer scan index and the
# fault injector's per-site tables, and a single ThreadSanitizer chaos
# leg as a concurrency smoke check plus a live stats() poll and the
# HTM and store unit tests under the sanitizer (the full sanitizer
# soak matrix lives in tools/run_chaos.sh).
#
# Usage: tools/ci.sh [--skip-tsan]
set -euo pipefail

cd "$(dirname "$0")/.."

SKIP_TSAN=0
for arg in "$@"; do
    case "$arg" in
        --skip-tsan) SKIP_TSAN=1 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

echo "== include-layering lint =="
python3 tools/check_layers.py

echo "== tier-1: build (warnings are errors) =="
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build -j "$(nproc)"

echo "== tier-1: ctest =="
ctest --test-dir build --output-on-failure

echo "== check: curated matrix, every AlgoKind (random walks) =="
build/bench/bench_check --mode=random --runs=40 --seed=1

echo "== check: exhaustive write-skew coverage, every AlgoKind =="
build/bench/bench_check --mode=dfs --program=write-skew \
    --runs=1000 --no-sleep-sets

echo "== check: reverted-fix regressions =="
# Each historical bug must FAIL with its fix reverted and pass with
# the fix in place. kill-switch-streak needs a schedule that parks the
# stale decayer across the breaker reopen: PCT depth 3 with this
# pinned seed reaches it; the other two fail on any schedule.
if build/bench/bench_check --algo=hy-norec \
        --regression=kill-switch-streak --revert \
        --mode=pct --seed=1 --depth=3 --runs=20000 --max-steps=3000; then
    echo "kill-switch-streak did not fail when reverted" >&2
    exit 1
fi
build/bench/bench_check --algo=hy-norec \
    --regression=kill-switch-streak \
    --mode=pct --seed=1 --depth=3 --runs=20000 --max-steps=3000
for reg in first-try-budget policy-snapshot deadline-unwind; do
    if build/bench/bench_check --algo=hy-norec \
            --regression="$reg" --revert --mode=random --runs=8; then
        echo "$reg did not fail when reverted" >&2
        exit 1
    fi
    build/bench/bench_check --algo=hy-norec \
        --regression="$reg" --mode=random --runs=8
done

echo "== check: commit-path campaign (docs/COMMIT_PATH.md) =="
# Front 3's extension zombie is schedule-dependent: 512 random walks
# with this seed park the reader inside the writer's clock-held
# writeback window on both eager kinds. The reverted fix must FAIL
# (the history checker sees the impossible read mix) and the shipped
# fix must survive the same exploration.
for algo in norec hy-norec; do
    if build/bench/bench_check --algo="$algo" \
            --regression=ts-extension --revert \
            --mode=random --seed=1 --runs=512; then
        echo "ts-extension did not fail when reverted ($algo)" >&2
        exit 1
    fi
    build/bench/bench_check --algo="$algo" --regression=ts-extension \
        --mode=random --seed=1 --runs=512
done
# Front 1's false-positive extreme: saturated summaries must never
# pass the disjointness skip, on any kind, while still committing.
build/bench/bench_check --algo=all --regression=filter-collision \
    --mode=random --seed=3 --runs=64

echo "== overload: adversary A/B, admission off vs on =="
# The two pathologies the admission gate must demonstrably bound
# (docs/OVERLOAD.md): tail collapse with the gate off, bounded p99
# plus nonzero shed/deadline counters with it on. The binary's exit
# status asserts every cell's invariant verified; the pathology-level
# off/on ratios are printed in its summary block.
build/bench/bench_adversary --threads=2,8 --algos=rh-norec,hy-norec \
    --pathologies=adv-serial-storm,adv-capacity-bomb \
    --ops=120 --admission=both --seed=1

echo "== overload: full sweep -> BENCH_ci.json, diff vs prior =="
# Parameters mirror the committed BENCH_7.json so ops/committed cells
# line up and only genuine latency/counter drift trips the diff.
build/bench/bench_adversary --threads=2,8 --algos=all --ops=150 \
    --admission=both --seed=1 --json=build/BENCH_ci.json
# Compare against the newest committed BENCH_*.json of the same bench
# family (adversary); captures of other families are skipped.
cp build/BENCH_ci.json BENCH_ci_tmp.json
python3 tools/diff_bench.py BENCH_ci_tmp.json
rm -f BENCH_ci_tmp.json

echo "== store: smoke + history check, every AlgoKind =="
# Mixed OLTP over the sharded store (docs/STORE.md): point ops, range
# scans and cross-shard RMWs. The check leg records every committed
# operation through the StoreObserver and must pass the strict-
# serializability checker for all 8 algorithms; the binary's exit
# status asserts it.
build/bench/bench_store --threads=2 --shards=2 --algos=all \
    --ops=200 --check-ops=120 --saturation=off --seed=1

echo "== store: saturation sweep, 1 shard vs 4 shards =="
# Disjoint-key scaling cells. On hosts with >= 4 hardware threads the
# binary enforces that 4 shards out-throughput 1 shard at 8 worker
# threads; on smaller hosts it reports the cells without enforcing.
# Its millisecond cells flip between runs (ROADMAP item 2), so a
# failure is recorded here and reported at the end: the crash,
# ASan and TSan legs below still run.
FAILED_LEG=""
if ! build/bench/bench_store --threads=1,8 --shards=1,4 \
        --algos=rh-norec,norec,tl2 --ops=2000 --check=off --seed=1; then
    FAILED_LEG="store saturation sweep"
fi

echo "== crash-recovery: 3-seed sweep, every AlgoKind x site =="
for seed in 1 2 3; do
    build/bench/bench_crash --threads=1,2 --algos=all --ops=120 \
        --crash-seed="$seed" --seed="$seed"
done

echo "== crash-recovery: torn + reordered flushes =="
build/bench/bench_crash --threads=2 --algos=all --ops=120 \
    --torn --reordered --crash-seed=7

echo "== crash-recovery: reverted-fix regression =="
# Replaying an unsealed record must be caught by the recovery-
# consistency checker (docs/PERSISTENCE.md "Recovery algorithm").
if build/bench/bench_crash --threads=2 --algos=norec,rh-tl2 \
        --ops=120 --sites=pre-seal --revert=replay-unsealed \
        >/dev/null 2>&1; then
    echo "replay-unsealed did not fail when reverted" >&2
    exit 1
fi

echo "== ASan leg: recovery replay, HTM tracking tables, store scan index, fault sites =="
# The HTM tracking tables reallocate their slots as they grow, so a
# slot reference held across a growth is a use-after-free ASan sees;
# htm_tests and core_tests drive them directly and through every
# AlgoKind. The store's scan index holds pointers to hash-map value
# words (docs/STORE.md "Index discipline"), so a stale slot is a heap
# error too; structures_tests and store_tests cover it. The fault
# injector's per-site tables (rule lists, inline draw thresholds) are
# indexed by site, and fault_tests drives every path through them.
cmake -B build-asan -S . -DRHTM_SANITIZE=address >/dev/null
cmake --build build-asan -j "$(nproc)" \
    --target bench_crash persist_tests htm_tests core_tests \
    structures_tests store_tests fault_tests
build-asan/tests/fault_tests
build-asan/tests/persist_tests
build-asan/tests/htm_tests
build-asan/tests/core_tests
build-asan/tests/structures_tests
build-asan/tests/store_tests
build-asan/bench/bench_crash --threads=1,2 --algos=all --ops=80 \
    --crash-seed=5 --torn

if [ "$SKIP_TSAN" -eq 0 ]; then
    echo "== TSan chaos leg: stall-serial seed=1 =="
    cmake -B build-tsan -S . -DRHTM_SANITIZE=thread >/dev/null
    cmake --build build-tsan -j "$(nproc)" \
        --target bench_chaos api_tests htm_tests store_tests
    build-tsan/bench/bench_chaos \
        --schedule=stall-serial --seed=1 --seconds=2 --threads=1,4 \
        --algos=rh-norec,hy-norec-lazy --irrevocable-pct=20 --stats
    echo "== TSan chaos leg: lazy kinds under stall-publisher =="
    # The lazy kinds' publication window under the sanitizer: the
    # commit write-back, the filter-ring publish and the readers'
    # ring walk race exactly where stall-publisher stretches them.
    build-tsan/bench/bench_chaos \
        --schedule=stall-publisher --seed=1 --seconds=2 --threads=1,4 \
        --algos=norec-lazy,hy-norec-lazy --stats
    echo "== TSan stats leg: polling stats() during a run =="
    # ThreadStats slots are single-writer relaxed atomics, so a live
    # poll is race-free. Any sanitizer report exits nonzero (66).
    build-tsan/tests/api_tests --gtest_filter='StatsPollTest.*'
    echo "== TSan HTM + store leg: stamp reads, joint publication =="
    # A simulated-HTM read loads the value and then checks the
    # sequence (value-then-seq ordering), and a cross-shard commit
    # nests several engines' publish mutexes in one joint window.
    build-tsan/tests/htm_tests
    build-tsan/tests/store_tests
    echo "== TSan cross-shard leg: hardware, freeze and release paths, repeated =="
    # Family B's multi-engine hardware attempts and joint commit, the
    # cross-shard part's freezes (clock seqlock, word lock, TL2 token
    # and orecs, fallback registration) and their releases, three
    # times over.
    build-tsan/tests/store_tests \
        --gtest_filter='*CrossShard*:*FamilyB*' --gtest_repeat=3
fi

if [ -n "$FAILED_LEG" ]; then
    echo "ci gate FAILED: $FAILED_LEG" >&2
    exit 1
fi
echo "ci gate passed"
