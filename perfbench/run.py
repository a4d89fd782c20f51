#!/usr/bin/env python3
"""Build and run the hybrid-TM benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload rbtree-rh --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root. '--workload all' runs every workload in
turn and exits with the worst exit code. The first call configures and builds
perfbench/ (which compiles the library from src/) in Release mode under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
rebuild what changed. The benchmark's stdout passes through, and its
last line is the result JSON. Exits non-zero, printing no result, when
the build fails or the library sources are missing, and with the
benchmark's own code when a correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rbtree-rh", "rbtree-stm", "store-oltp")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# One workload's run, build excluded, must finish well inside 180 s.
RUN_BUDGET_S = 170.0


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    build_dir = build_dir / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "hybench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "hybench"


def commit_id():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_one(binary, workload, args, commit):
    """Run one workload, echo its stdout, and return its exit code."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} timed out")
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        fail(f"{workload} printed no result (exit {proc.returncode})")
    for line in lines:
        print(line, flush=True)
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",),
                    help="one workload, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    commit = commit_id()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    worst = 0
    for name in names:
        if len(names) > 1:
            print(f"# workload {name}", flush=True)
        worst = max(worst, run_one(binary, name, args, commit))
    sys.exit(worst)


if __name__ == "__main__":
    main()
