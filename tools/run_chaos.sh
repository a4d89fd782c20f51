#!/usr/bin/env bash
# Tier-2 chaos matrix: build with ThreadSanitizer and soak the
# bank-transfer conservation workload under every named fault schedule
# with a fixed seed matrix, so any run is exactly reproducible from
# its (schedule, seed) pair (see docs/FAULT_INJECTION.md). Ends with
# a crash/recover soak of the persistence overlay under the same
# sanitizer (docs/PERSISTENCE.md).
#
# Usage: tools/run_chaos.sh [build-dir] [--seconds=S] [--threads=LIST]
#
# Environment:
#   RHTM_SANITIZE  Sanitizer for the build (default: thread; set to
#                  'address' for ASan, 'undefined' for UBSan, or ''
#                  for an uninstrumented run).
#   SEEDS          Space-separated seed matrix (default: "1 2 3").
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build-chaos
SECONDS_PER_CELL=2
THREADS=1,4
for arg in "$@"; do
    case "$arg" in
        --seconds=*) SECONDS_PER_CELL="${arg#*=}" ;;
        --threads=*) THREADS="${arg#*=}" ;;
        -*) echo "unknown flag: $arg" >&2; exit 2 ;;
        *) BUILD_DIR="$arg" ;;
    esac
done

echo "== include-layering lint =="
python3 tools/check_layers.py

SANITIZE="${RHTM_SANITIZE-thread}"
SEEDS="${SEEDS:-1 2 3}"
SCHEDULES="prefix-kill postfix-kill capacity-squeeze delay-in-publish-window stall-serial stall-publisher irrevocable-storm adversary-storm"

echo "== configure ($BUILD_DIR, sanitizer: ${SANITIZE:-none}) =="
cmake -B "$BUILD_DIR" -S . -DRHTM_SANITIZE="$SANITIZE" >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_chaos \
    bench_check bench_crash bench_adversary fault_tests \
    integration_tests persist_tests

echo "== fault + chaos + persist unit suites =="
"$BUILD_DIR/tests/fault_tests"
"$BUILD_DIR/tests/integration_tests" --gtest_filter='*Chaos*'
"$BUILD_DIR/tests/persist_tests"

# Interleaving-explorer leg (docs/CHECKING.md) under the same
# sanitizer as the soak: the cooperative scheduler serializes every
# step, so TSan here vets the scheduler/runtime handshake itself
# (run_chaos with RHTM_SANITIZE='' gives the uninstrumented leg).
echo "== check: explorer under ${SANITIZE:-no} sanitizer =="
"$BUILD_DIR/bench/bench_check" --mode=random --runs=12 --seed=1
"$BUILD_DIR/bench/bench_check" --mode=dfs --algo=rh-norec \
    --program=write-skew --runs=300 --no-sleep-sets

echo "== soak matrix: {$SCHEDULES} x seeds {$SEEDS} =="
fail=0
for schedule in $SCHEDULES; do
    for seed in $SEEDS; do
        echo "-- $schedule seed=$seed"
        if ! "$BUILD_DIR/bench/bench_chaos" \
                --schedule="$schedule" --seed="$seed" \
                --seconds="$SECONDS_PER_CELL" --threads="$THREADS" \
                --algos=rh-norec,hy-norec-lazy \
                --irrevocable-pct=20 --stats; then
            echo "FAILED: $schedule seed=$seed" >&2
            fail=1
        fi
    done
done

# Lazy-kind publish soak: the lazy kinds' commit write-back and
# filter-ring publish under the schedule that stretches publish
# windows, plus scripted stalls. Conservation + opacity + quiescence
# are checked per cell as above.
echo "== stall-publisher soak: lazy kinds x seeds {$SEEDS} =="
for seed in $SEEDS; do
    echo "-- stall-publisher seed=$seed"
    if ! "$BUILD_DIR/bench/bench_chaos" \
            --schedule=stall-publisher --seed="$seed" \
            --seconds="$SECONDS_PER_CELL" --threads="$THREADS" \
            --algos=norec-lazy,hy-norec-lazy --stats; then
        echo "FAILED: stall-publisher soak seed=$seed" >&2
        fail=1
    fi
done

# Adversarial overload soak under the same sanitizer: the named
# pathologies drive the admission gate and the deadline unwind from
# many threads at once while the adversary-storm schedule jitters the
# gate decision, stalls serial holders, and deschedules deadline
# polls -- the racy paths TSan exists to vet (docs/OVERLOAD.md).
echo "== adversarial overload soak: seeds {$SEEDS} =="
for seed in $SEEDS; do
    echo "-- adversary pathologies + adversary-storm seed=$seed"
    if ! "$BUILD_DIR/bench/bench_adversary" \
            --threads="$THREADS" --algos=rh-norec,hy-norec \
            --ops=60 --admission=both --seed="$seed" \
            --fault-schedule=adversary-storm; then
        echo "FAILED: adversary soak seed=$seed" >&2
        fail=1
    fi
done

# Crash/recover soak under the same sanitizer: every AlgoKind, every
# crash site, the full seed matrix, with torn and reordered flush
# capture on -- each run recovers and checks every captured snapshot
# (docs/PERSISTENCE.md).
echo "== crash-recovery soak: seeds {$SEEDS} =="
for seed in $SEEDS; do
    echo "-- crash soak seed=$seed (torn+reordered)"
    if ! "$BUILD_DIR/bench/bench_crash" \
            --threads="$THREADS" --algos=all --ops=150 \
            --seed="$seed" --crash-seed="$seed" --torn --reordered; then
        echo "FAILED: crash soak seed=$seed" >&2
        fail=1
    fi
done

# The irrevocable-storm schedule crosses lock handoffs with exception
# unwinds; run it under UBSan too (the TSan matrix above cannot see
# e.g. invalid shifts or misaligned unwinds), unless this whole run
# already is the UBSan one.
if [ "$SANITIZE" != "undefined" ]; then
    UB_BUILD_DIR="${BUILD_DIR}-ubsan"
    echo "== irrevocable-storm under UBSan ($UB_BUILD_DIR) =="
    cmake -B "$UB_BUILD_DIR" -S . -DRHTM_SANITIZE=undefined >/dev/null
    cmake --build "$UB_BUILD_DIR" -j "$(nproc)" --target bench_chaos
    for seed in $SEEDS; do
        echo "-- irrevocable-storm (ubsan) seed=$seed"
        if ! "$UB_BUILD_DIR/bench/bench_chaos" \
                --schedule=irrevocable-storm --seed="$seed" \
                --seconds="$SECONDS_PER_CELL" --threads="$THREADS" \
                --irrevocable-pct=20 --stats; then
            echo "FAILED: irrevocable-storm (ubsan) seed=$seed" >&2
            fail=1
        fi
    done
fi

if [ "$fail" -ne 0 ]; then
    echo "chaos matrix FAILED" >&2
    exit 1
fi
echo "chaos matrix passed"
