#!/usr/bin/env python3
"""Regression test: diff_bench.py picks a baseline of the same family.

Usage: diff_bench_test.py <repo_root>

The fixtures in tests/tools/fixtures/diff_bench/ interleave two bench
families, as the committed BENCH_*.json files do: adversary captures
3, 4, 6 and 8, crash captures 5 and 9. BENCH_4 has half of BENCH_6's
p50, so a diff of 6 against 4 reports a regression; against 3 or 8 it
reports none. Picking the newest capture regardless of family used to
land on a crash capture and print "not comparable", so the diff never
ran at all.
"""

import os
import shutil
import subprocess
import sys
import tempfile


def run(tool, *args):
    proc = subprocess.run(
        [sys.executable, tool, *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, proc.stdout


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2].strip())
        return 2
    root = sys.argv[1]
    tool = os.path.join(root, "tools", "diff_bench.py")
    fixtures = os.path.join(root, "tests", "tools", "fixtures",
                            "diff_bench")

    failures = []

    def check(name, cond, detail):
        if not cond:
            failures.append(f"{name}: {detail}")

    # A numbered capture diffs against the newest same-family capture
    # below its own suffix: 4, not crash 5 and not adversary 8.
    new = os.path.join(fixtures, "BENCH_6.json")
    rc, out = run(tool, new)
    check("numbered", rc == 0, f"exit {rc}\n{out}")
    check("numbered", "BENCH_6.json vs BENCH_4.json" in out,
          f"wrong baseline\n{out}")
    check("numbered", "regression: " in out and "p50_us" in out,
          f"p50 regression not reported\n{out}")

    # --strict turns the same regression into a failing exit.
    rc, out = run(tool, new, "--strict")
    check("strict", rc == 1, f"exit {rc}\n{out}")

    # An explicit baseline of another family is reported, not diffed.
    rc, out = run(tool, new,
                  "--baseline=" + os.path.join(fixtures, "BENCH_5.json"))
    check("explicit-other-family", rc == 0, f"exit {rc}\n{out}")
    check("explicit-other-family", "not comparable" in out,
          f"family mismatch not reported\n{out}")

    with tempfile.TemporaryDirectory() as tmp:
        for name in os.listdir(fixtures):
            shutil.copy(os.path.join(fixtures, name), tmp)

        # An unnumbered capture (the CI leg's BENCH_ci_tmp.json) takes
        # the newest same-family capture of all: adversary 8, even
        # though crash 9 is newer.
        ci = os.path.join(tmp, "BENCH_ci_tmp.json")
        shutil.copy(new, ci)
        rc, out = run(tool, ci)
        check("unnumbered", rc == 0, f"exit {rc}\n{out}")
        check("unnumbered", "BENCH_ci_tmp.json vs BENCH_8.json" in out,
              f"wrong baseline\n{out}")
        check("unnumbered", "no regressions beyond the noise band" in out,
              f"unexpected regression\n{out}")

        # A family with no prior capture has nothing to diff.
        with open(ci, "w") as f:
            f.write('{"bench": "store", "cells": []}\n')
        rc, out = run(tool, ci)
        check("no-prior-family", rc == 0, f"exit {rc}\n{out}")
        check("no-prior-family", "no prior 'store'" in out,
              f"missing-baseline message not printed\n{out}")

    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    print("diff_bench baseline selection: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
