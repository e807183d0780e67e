#!/usr/bin/env python
"""Run the bundled instances through the CLI at demo sizes.

    python3 scripts/run_demos.py

Small box sizes keep this quick; bump --M/--M-outer for tighter residuals.
Each command is echoed with its spec path relative to the repository root,
so the output of two checkouts compares byte for byte.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from mdzeta.cli import main  # noqa: E402

RUNS = [
    ["validate", "--spec", "mt_r2.json"],
    ["eval", "--spec", "mt_r2.json", "--M", "600"],
    ["verify", "--spec", "mt_r2.json", "--M", "600", "--M-outer", "600",
     "--tol", "1e-4"],
    ["verify", "--spec", "mt_r2_null.json", "--M", "400", "--M-outer", "400",
     "--tol", "1e-6"],
    ["verify", "--spec", "mt_r2_twisted.json", "--M", "400", "--M-outer", "400",
     "--tol", "1e-6"],
    # r = 3 outer sums converge like 1/M_outer (residual ~5e-2 at 120);
    # raise --M-outer into the thousands for a tolerance like 1e-3
    ["verify", "--spec", "mt_r3.json", "--M", "120", "--M-outer", "120",
     "--tol", "1e-1"],
    ["reduce", "--spec", "root_a2.json", "--M", "400", "--M-outer", "400"],
]


def run() -> int:
    worst = 0
    for argv in RUNS:
        argv = argv.copy()
        pos = argv.index("--spec") + 1
        argv[pos] = f"specs/{argv[pos]}"
        print(f"$ mdzeta {' '.join(argv)}")
        argv[pos] = os.path.join(ROOT, argv[pos])
        code = main(argv)
        print(f"[exit {code}]\n")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(run())
