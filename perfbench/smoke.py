#!/usr/bin/env python3
"""Smoke run of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced, with
`--size tiny`, one after the other.  Each run must exit 0, end with the
result object, report correct outputs, and emit every metric BENCHMARK.json
names for its mode, with the unit given there.  Takes about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    group = bench["end_to_end"] if trace == 0 else bench["per_layer"]
    argv = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')}: {proc.stderr.strip()}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted is {result.get('attempted')}")
    metrics = result.get("metrics", {})
    for metric in group:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"missing metric {metric['name']}")
        elif got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{metric['name']}: got {got}, want unit {metric['unit']}")
    extra = set(metrics) - {m["name"] for m in group}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in bench["workloads"]:
        for trace in (0, 1):
            problems = check_run(bench, workload["name"], trace)
            print(f"{'ok  ' if not problems else 'FAIL'} {workload['name']} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
