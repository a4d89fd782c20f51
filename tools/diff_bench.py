#!/usr/bin/env python3
"""Diff a BENCH_*.json capture against the newest prior capture.

Usage: tools/diff_bench.py NEW.json [--baseline=OLD.json]
                           [--band=0.35] [--strict]

Captures accumulate as BENCH_<n>.json files at the repo root; this
tool keeps the sequence honest by comparing a new capture against the
newest prior one of the same kind. Two captures are only comparable
when their top-level "bench" family matches (crash sweep, adversary
sweep, store sweep, ...), and the families interleave, so without
--baseline it picks, among the BENCH_*.json files of the new capture's
family, the one with the highest numeric suffix below the new
capture's own (any suffix when the new file has none). When no
capture of that family exists, or an explicit --baseline belongs to
another family, it says so and exits 0: there is nothing to diff,
which is not a regression.

Comparable captures are joined cell-by-cell on their identity fields
(every non-numeric field plus thread count). Shared numeric metrics
are compared with a relative noise band (default 0.35: container
timing is noisy; only changes beyond +/-35% are called out, and only
in the regressing direction -- higher for latency/seconds-like
metrics, lower for committed/ops-like ones). A verified flag flipping
true -> false is always a regression. Exit status is 0 unless --strict
is given, in which case any regression exits 1.
"""

import glob
import json
import os
import re
import sys

# Metrics where an increase beyond the band is a regression.
HIGHER_IS_WORSE = (
    "p50_us", "p99_us", "max_us", "seconds", "recovery_ms",
    "records_discarded", "crashes_injected",
)

# Metrics where a decrease beyond the band is a regression.
# cross_commits guards the store family (BENCH_9.json): fewer
# committed cross-shard transactions for the same cell identity means
# the multi-domain commit path regressed.
LOWER_IS_WORSE = ("committed", "ops", "throughput", "cross_commits")


def cell_key(cell):
    """Identity of a cell: every non-numeric field, plus threads."""
    key = []
    for k in sorted(cell):
        v = cell[k]
        if isinstance(v, str) or isinstance(v, bool) and k != "verified":
            key.append((k, v))
    if "threads" in cell:
        key.append(("threads", cell["threads"]))
    return tuple(key)


def pick_baseline(new_path, family):
    """Newest BENCH_*.json of bench family `family`, not new_path.

    "Newest" is the highest numeric suffix, below new_path's own when
    it has one. Files that do not parse are skipped.
    """
    root = os.path.dirname(os.path.abspath(new_path)) or "."
    new_suffix = suffix_of(new_path)
    best, best_n = None, -1
    for cand in glob.glob(os.path.join(root, "BENCH_*.json")):
        if os.path.abspath(cand) == os.path.abspath(new_path):
            continue
        n = suffix_of(cand)
        if n is None or n <= best_n:
            continue
        if new_suffix is not None and n >= new_suffix:
            continue
        try:
            with open(cand) as f:
                cand_family = json.load(f).get("bench")
        except (OSError, ValueError, AttributeError):
            continue
        if cand_family == family:
            best, best_n = cand, n
    return best


def suffix_of(path):
    m = re.match(r"BENCH_(\d+)\.json$", os.path.basename(path))
    return int(m.group(1)) if m else None


def compare(old, new, band):
    """Return a list of human-readable regression strings."""
    old_cells = {cell_key(c): c for c in old.get("cells", [])}
    regressions = []
    matched = 0
    for cell in new.get("cells", []):
        prev = old_cells.get(cell_key(cell))
        if prev is None:
            continue
        matched += 1
        label = ", ".join(
            f"{k}={v}" for k, v in cell_key(cell))
        if prev.get("verified") is True and cell.get("verified") is False:
            regressions.append(f"[{label}] verified: true -> false")
        for metric in cell:
            a, b = prev.get(metric), cell.get(metric)
            if not (isinstance(a, (int, float)) and
                    isinstance(b, (int, float))):
                continue
            if isinstance(a, bool) or isinstance(b, bool):
                continue
            if metric in HIGHER_IS_WORSE:
                worse = b > a * (1 + band) and b - a > 1e-9
            elif metric in LOWER_IS_WORSE:
                worse = b < a * (1 - band) and a - b > 1e-9
            else:
                continue
            if worse:
                regressions.append(
                    f"[{label}] {metric}: {a} -> {b}")
    return regressions, matched


def main():
    new_path = None
    baseline = None
    band = 0.35
    strict = False
    for arg in sys.argv[1:]:
        if arg.startswith("--baseline="):
            baseline = arg.split("=", 1)[1]
        elif arg.startswith("--band="):
            band = float(arg.split("=", 1)[1])
        elif arg == "--strict":
            strict = True
        else:
            new_path = arg
    if new_path is None:
        print(__doc__.strip().splitlines()[2].strip())
        return 2

    with open(new_path) as f:
        new = json.load(f)
    if baseline is None:
        baseline = pick_baseline(new_path, new.get("bench"))
    if baseline is None:
        print(f"diff_bench: no prior '{new.get('bench')}' BENCH_*.json "
              f"to compare {new_path} against; nothing to diff")
        return 0
    with open(baseline) as f:
        old = json.load(f)

    if old.get("bench") != new.get("bench"):
        print(f"diff_bench: {os.path.basename(baseline)} is a "
              f"'{old.get('bench')}' capture, "
              f"{os.path.basename(new_path)} is a "
              f"'{new.get('bench')}' capture; schemas are not "
              f"comparable -- nothing to diff")
        return 0

    regressions, matched = compare(old, new, band)
    print(f"diff_bench: {os.path.basename(new_path)} vs "
          f"{os.path.basename(baseline)}: {matched} comparable cells, "
          f"noise band +/-{band:.0%}")
    for r in regressions:
        print(f"  regression: {r}")
    if not regressions:
        print("  no regressions beyond the noise band")
    return 1 if (strict and regressions) else 0


if __name__ == "__main__":
    sys.exit(main())
