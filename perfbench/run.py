#!/usr/bin/env python3
"""The mdzeta benchmark: `mdzeta verify`/`reduce` end to end, and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It loads mdzeta from `src/` and calls
`mdzeta.cli.main([..., "--output", "json"])` in this one process, pass after
pass over the workload's calls, for S seconds after one warm-up pass.  Every
call's output is checked; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` untraced and traced passes
alternate and the metrics are the per-layer ones (see perfbench/README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 21
TWO_ZETA3 = 2.0 * 1.2020569031595942854
MT_R2_SLACK = 1e-6
RESIDUAL_FLOOR = 2.0**-52  # a residual of 0 reads as 15.65 digits
EXIT_FOR_VERDICT = {"pass": 0, "inconclusive": 3, "fail": 1}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, unknown workload)."""


# ----------------------------------------------------------------- set-up


def _import_mdzeta():
    """Import mdzeta afresh, dropping any copy loaded before."""
    for name in [m for m in sys.modules if m == "mdzeta" or m.startswith("mdzeta.")]:
        del sys.modules[name]
    names = ("cli", "evaluator", "exact", "genfun", "model", "mpseries")
    return SimpleNamespace(**{n: importlib.import_module(f"mdzeta.{n}") for n in names})


def _setup_once(name: str, seed: int, tiny: bool, spec_dir: Path):
    """Import mdzeta, write and parse the workload's spec files, check convergence."""
    mdz = _import_mdzeta()

    def proved(spec: dict) -> bool:
        verdict = mdz.model.convergence_check(mdz.model.parse_spec(spec))
        return verdict.status == "proved-sufficient"

    workload = workloads.WORKLOADS[name](seed, tiny, proved)
    spec_dir.mkdir()
    for spec_name, spec in workload.specs.items():
        (spec_dir / f"{spec_name}.json").write_text(json.dumps(spec), encoding="utf-8")
    for spec_name in workload.specs:
        spec = mdz.model.load_spec(str(spec_dir / f"{spec_name}.json"))
        if not mdz.model.convergence_check(spec).established:
            raise BenchError(f"convergence of {spec_name} is not established")
    return mdz, workload


def set_up(name: str, seed: int, tiny: bool, work: Path):
    """Set up SETUP_REPS times; return the last set-up and the median time."""
    times = []
    for rep in range(SETUP_REPS):
        gc.collect()  # free the previous copy, so set-up garbage never sets peak RSS
        start = time.perf_counter()
        mdz, workload = _setup_once(name, seed, tiny, work / f"specs{rep}")
        times.append(time.perf_counter() - start)
    return mdz, workload, work / f"specs{SETUP_REPS - 1}", statistics.median(times)


# ------------------------------------------------------------------ passes


def run_pass(mdz, calls, spec_dir: Path):
    """One pass over the calls; returns (wall seconds, [(exit code, stdout, stderr)])."""
    results = []
    start = time.perf_counter()
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = mdz.cli.main(call.argv(str(spec_dir)))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # counted as a failed call, never a crash of the run
            code = "raised"
            err.write(traceback.format_exc())
        results.append((code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, results


@dataclass
class Outcome:
    """What one call's exit code and report say."""

    residual: float | None  # verify: residual; reduce: corollary delta
    verdict: str            # verify: its verdict; reduce: "ok"
    error: str | None       # raised, no report, or an exit code the verdict rules out
    wrong: list[str]        # values that contradict a known result

    @property
    def sound(self) -> bool:
        return self.error is None and self.verdict != "fail"


def check_call(call, code, stdout: str) -> Outcome:
    if code == "raised":
        return Outcome(None, "-", "raised", [])
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return Outcome(None, "-", f"exit {code} without a JSON report", [])
    if call.command == "reduce":
        error = None if code == 0 else f"exit {code}"
        return Outcome(float(report["corollary"]["delta"]), "ok", error, [])
    verdict = report["verdict"]
    error = None if code == EXIT_FOR_VERDICT.get(verdict) else f"verdict {verdict} but exit {code}"
    wrong = []
    if call.spec == "mt_r2":
        lhs = report["lhs"]
        value = complex(float(lhs["zeta_plus"]["re"]), float(lhs["zeta_plus"]["im"]))
        bound = float(lhs["zeta_plus_tail"]) + MT_R2_SLACK
        if not abs(value - TWO_ZETA3) <= bound:
            wrong.append(f"zeta_plus {value} is more than {bound:.3g} from 2 zeta(3)")
    return Outcome(float(report["residual"]), verdict, error, wrong)


def _digits(residual: float) -> float:
    return -math.log10(max(residual, RESIDUAL_FLOOR))


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "mdzeta").rglob("*.py")))


def measure(args, work: Path) -> dict:
    tiny = args.size == "tiny"
    mdz, workload, spec_dir, setup_s = set_up(args.workload, args.seed, tiny, work)
    calls = workload.calls

    # The warm-up pass fills lazy tables and is the reference output.
    _, reference = run_pass(mdz, calls, spec_dir)
    untraced, traced = [], []
    layer_runs = []  # one Tracer per traced pass, spans kept in memory
    mismatches = set()
    attempted = failed = 0
    origin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - origin
        if args.trace:
            done = elapsed >= args.seconds and len(traced) >= 2 and len(untraced) >= 2
            trace_this = len(traced) < len(untraced)
        else:
            done = elapsed >= args.seconds and len(untraced) >= 3
            trace_this = False
        if done:
            break
        if trace_this:
            tr = tracing.Tracer()
            tr.install(mdz)
            try:
                wall, results = run_pass(mdz, calls, spec_dir)
            finally:
                tr.uninstall()
            traced.append(wall)
            layer_runs.append(tr)
        else:
            wall, results = run_pass(mdz, calls, spec_dir)
            untraced.append(wall)
        for call, (code, out, _), (ref_code, ref_out, _) in zip(calls, results, reference):
            attempted += 1
            if (code, out) != (ref_code, ref_out):
                mismatches.add(f"{call.label}: report differs from the warm-up pass")
            failed += check_call(call, code, out).error is not None

    outcomes = [check_call(call, code, out) for call, (code, out, _) in zip(calls, reference)]
    wrong = []
    for call, outcome, (code, _, err) in zip(calls, outcomes, reference):
        print(f"call {call.label} {' '.join(call.params)}: exit {code} "
              f"verdict {outcome.verdict} residual {outcome.residual}"
              + (f" error {outcome.error}" if outcome.error else ""))
        if err.strip():
            print(f"  stderr: {err.strip().splitlines()[-1]}")
        wrong += [f"{call.label}: {w}" for w in outcome.wrong]
    if any(tr.counts != layer_runs[0].counts for tr in layer_runs[1:]):
        mismatches.add("counters differ between traced passes")
    for line in wrong + sorted(mismatches):
        print(f"error: {line}", file=sys.stderr)

    info = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "untraced_pass_s": [round(w, 4) for w in untraced],
        "traced_pass_s": [round(w, 4) for w in traced],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
        "src_mdzeta_lines": _src_lines(),
    }
    print("info " + json.dumps(info, sort_keys=True))
    if workload.instances:
        print("instances " + json.dumps(list(workload.instances)))

    if args.trace:
        metrics = _per_layer(layer_runs, traced, untraced)
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with span_file.open("w", encoding="utf-8") as fh:
            for index, tr in enumerate(layer_runs, start=1):
                tr.write_spans(fh, index, origin)
        print(f"spans written to {span_file.relative_to(ROOT)}")
    else:
        known = [o.residual for o in outcomes if o.residual is not None]
        metrics = {
            "wall_s": (statistics.median(untraced), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "residual_digits_min": (min(map(_digits, known)) if known else 0.0, "digits"),
            "sound_share": (sum(o.sound for o in outcomes) / len(outcomes), "share"),
        }
    return {
        "correct": not wrong and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _per_layer(layer_runs, traced, untraced) -> dict:
    per_pass = [tracing.layer_metrics(tr) for tr in layer_runs]
    metrics = {
        name: (statistics.median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    traced_wall, untraced_wall = statistics.median(traced), statistics.median(untraced)
    self_total = statistics.median(sum(tr.self_s.values()) for tr in layer_runs)
    metrics.update({
        "trace.self_total_s": (self_total, "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.spans": (len(layer_runs[-1].spans), "count"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes (perfbench/smoke.py)")
    args = parser.parse_args(argv)
    try:
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(workloads.WORKLOADS)}")
        if not (SRC / "mdzeta" / "__init__.py").is_file():
            raise BenchError(f"no mdzeta source tree under {SRC}; run from a checkout")
        sys.path.insert(0, str(SRC))
        os.environ.pop("MDZETA_OUTPUT_DIR", None)  # reports go to stdout only
        work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        try:
            result = measure(args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
