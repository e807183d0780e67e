#!/usr/bin/env python3
"""Check that another checkout prints the same reports as this one.

    python3 scripts/compare_reports.py OTHER_CHECKOUT [--rtol X]

The calls are every run of scripts/run_demos.py, every call of the
benchmark's workloads at seed 1 (perfbench/workloads.py, full sizes), and
verify and reduce of every bundled spec at small sizes and of the r = 4
Mordell-Tornheim spec below (their reduced sides share terms across
subsets J of one symmetry class), each in json, text and csv with
MDZETA_OUTPUT_DIR set.  Their spec files are
written once, from this checkout, into one temporary directory that both
sides read.  Each checkout runs all calls in its own process, with
PYTHONPATH=<checkout>/src and PYTHONDONTWRITEBYTECODE=1.  For each call the
exit code, stdout, stderr and the report file are compared; the first
difference is printed and the exit code is 1.  Exit code 0 means every
output matched byte for byte.  `python3 scripts/compare_reports.py .`
checks that a checkout's output does not change between runs.

With --rtol X, the numbers in stdout, stderr and the report files may
move by X relative: the text is split into tokens at blanks, commas,
parentheses and JSON punctuation (quotes, colons, brackets, braces), as
tests/test_demos.py splits its lines, and a pair of finite numbers (a
trailing i stripped) matches when |a - b| <= X max(|a|, |b|).  Every
other token, every separator and every exit code must match byte for
byte.  Each call whose numbers moved is printed with its largest
relative and its largest absolute move, and the largest of each over all
calls with the call it came from: a difference of two sums, such as a
residual, can move far in relative terms by one rounding of the sums.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # read perfbench/ and src/, write nothing there

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("json", "text", "csv")
# verify and reduce of each bundled spec at these sizes
BUNDLED_SIZES = ("--M", "40", "--M-outer", "20")
MT_R4 = {"h": [1, 1, 1, 1], "k": [3], "y": ["0", "0", "0", "0"], "A": [[1, 1, 1, 1]]}
MT_R4_SIZES = ("--M", "12", "--M-outer", "8")


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = sys.modules[path.stem] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_calls(work: Path) -> list[dict]:
    """Write every spec file under work; return the calls as {label, argv}."""
    sys.path.insert(0, str(ROOT / "src"))
    from mdzeta import model

    demos = _load(ROOT / "scripts" / "run_demos.py")
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    calls = []
    (work / "demos").mkdir()
    for run in demos.RUNS:
        argv = list(run)
        pos = argv.index("--spec") + 1
        name = argv[pos]
        shutil.copyfile(ROOT / "specs" / name, work / "demos" / name)
        argv[pos] = str(work / "demos" / name)
        calls.append({"label": f"demo {' '.join(run)}", "argv": argv})

    shared = work / "shared"
    shared.mkdir()
    sized = []
    for path in sorted((ROOT / "specs").glob("*.json")):
        shutil.copyfile(path, shared / path.name)
        sized.append((path.name, BUNDLED_SIZES))
    (shared / "mt_r4.json").write_text(json.dumps(MT_R4), encoding="utf-8")
    sized.append(("mt_r4.json", MT_R4_SIZES))
    for name, sizes in sized:
        for command in ("verify", "reduce"):
            argv = [command, "--spec", str(shared / name), *sizes]
            calls.append({"label": f"shared: {command} {name} {' '.join(sizes)}", "argv": argv})

    def proved(spec: dict) -> bool:
        return model.convergence_check(model.parse_spec(spec)).status == "proved-sufficient"

    for name, make in workloads.WORKLOADS.items():
        workload = make(1, False, proved)  # seed 1, full sizes
        spec_dir = work / name
        spec_dir.mkdir()
        for spec_name, spec in workload.specs.items():
            (spec_dir / f"{spec_name}.json").write_text(json.dumps(spec), encoding="utf-8")
        for call in workload.calls:
            argv = [call.command, "--spec", str(spec_dir / f"{call.spec}.json"), *call.params]
            calls.append({"label": f"{name}: {call.label} {' '.join(call.params)}", "argv": argv})
    return calls


def run_calls(tree: Path, calls_file: Path, out_file: Path) -> int:
    """In a process whose PYTHONPATH is tree/src: run every call, write what it printed."""
    import mdzeta
    from mdzeta.cli import main

    if not Path(mdzeta.__file__).resolve().is_relative_to(tree / "src"):
        print(f"mdzeta loaded from {mdzeta.__file__}, not from {tree / 'src'}", file=sys.stderr)
        return 2
    reports = calls_file.parent / "reports"
    results = []
    for call in json.loads(calls_file.read_text(encoding="utf-8")):
        for fmt in FORMATS:
            os.environ["MDZETA_OUTPUT_DIR"] = str(reports)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main([*call["argv"], "--output", fmt])
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # recorded as this call's outcome
                    code = f"raised {type(exc).__name__}: {exc}"
            files = {p.name: p.read_text(encoding="utf-8") for p in sorted(reports.glob("*"))}
            shutil.rmtree(reports, ignore_errors=True)
            results.append({"label": f"{call['label']} --output {fmt}", "exit code": code,
                            "stdout": out.getvalue(), "stderr": err.getvalue(),
                            "report file": files})
    out_file.write_text(json.dumps(results), encoding="utf-8")
    return 0


def _side(tree: Path, work: Path, calls_file: Path, name: str) -> list[dict]:
    env = {k: v for k, v in os.environ.items() if k != "MDZETA_OUTPUT_DIR"}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    out_file = work / f"{name}.json"
    subprocess.run(
        [sys.executable, __file__, "--run-calls", str(tree), str(calls_file), str(out_file)],
        env=env, cwd=work, check=True,
    )
    return json.loads(out_file.read_text(encoding="utf-8"))


def _first_difference(a, b) -> str:
    if isinstance(a, str) and isinstance(b, str):
        lines_a, lines_b = a.splitlines(), b.splitlines()
        for n, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
            if x != y:
                return f"line {n}:\n  this:  {x!r}\n  other: {y!r}"
        return f"{len(lines_a)} lines here, {len(lines_b)} there (or a trailing newline differs)"
    return f"\n  this:  {a!r}\n  other: {b!r}"


# the separators of tests/test_demos.py, and the quotes, colons, brackets
# and braces around numbers in a JSON report
_TOKENS = re.compile(r'([\s,()":\[\]{}]+)')


def _number(token: str) -> float | None:
    """The finite float a token spells (a trailing i stripped), or None."""
    try:
        x = float(token.removesuffix("i"))
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def _moved(a: str, b: str, rtol: float) -> tuple[float, float, str | None]:
    """(largest relative move, largest absolute move, first mismatch or None) of two texts."""
    worst = worst_abs = 0.0
    for n, (line_a, line_b) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        tokens_a, tokens_b = _TOKENS.split(line_a), _TOKENS.split(line_b)
        if len(tokens_a) != len(tokens_b):
            return worst, worst_abs, f"line {n}:\n  this:  {line_a!r}\n  other: {line_b!r}"
        for x, y in zip(tokens_a, tokens_b):
            if x == y:
                continue
            u, v = _number(x), _number(y)
            move = math.inf if u is None or v is None else abs(u - v) / max(abs(u), abs(v))
            if move > rtol:
                lines = f"\n  this:  {line_a!r}\n  other: {line_b!r}"
                return worst, worst_abs, f"line {n}, {x!r} against {y!r}:{lines}"
            worst, worst_abs = max(worst, move), max(worst_abs, abs(u - v))
    if len(a.splitlines()) != len(b.splitlines()) or a.endswith("\n") != b.endswith("\n"):
        return worst, worst_abs, _first_difference(a, b)
    return worst, worst_abs, None


def _fields(result: dict):
    """(field, value) of one call's outcome: exit code, stdout, stderr, then its report files."""
    files = result["report file"]
    yield from ((field, result[field]) for field in ("exit code", "stdout", "stderr"))
    yield "report file names", sorted(files)
    yield from ((f"report file {name}", files[name]) for name in sorted(files))


def _size(move: tuple[float, str]) -> float:
    """The size of a (move, where) pair: max keeps the first of equal moves."""
    return move[0]


def compare(other: Path, rtol: float | None = None) -> int:
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as tmp:
        work = Path(tmp)
        calls = write_calls(work)
        calls_file = work / "calls.json"
        calls_file.write_text(json.dumps(calls), encoding="utf-8")
        here, there = _side(ROOT, work, calls_file, "this"), _side(other, work, calls_file, "other")
    # [relative, absolute] x (largest move, where): over all calls, and per call
    worst = [(0.0, ""), (0.0, "")]
    for a, b in zip(here, there):
        moved = [(0.0, ""), (0.0, "")]
        # the file names come before the files, so the files pair up by name
        for (field, x), (_, y) in zip(_fields(a), _fields(b)):
            if x == y:
                continue
            if rtol is not None and isinstance(x, str) and isinstance(y, str):
                *moves, mismatch = _moved(x, y, rtol)
                if mismatch is None:
                    moved = [max(m, (move, field), key=_size) for m, move in zip(moved, moves)]
                    continue
            else:
                mismatch = _first_difference(x, y)
            print(f"differs: {a['label']}: {field}, {mismatch}")
            return 1
        if moved[0][0]:
            (rel, rel_at), (abs_, abs_at) = moved
            print(f"moved: {a['label']}: {rel:.3g} relative, in {rel_at}; "
                  f"{abs_:.3g} absolute, in {abs_at}")
            worst = [max(w, (m, f", in {a['label']}: {at}"), key=_size)
                     for w, (m, at) in zip(worst, moved)]
    outputs = (f"{len(calls)} calls x {len(FORMATS)} formats "
               "(exit code, stdout, stderr, report file)")
    if rtol is None:
        print(f"identical: {outputs}")
    else:
        print(f"within rtol {rtol:g}: {outputs}")
        for kind, (move, at) in zip(("relative", "absolute"), worst):
            print(f"largest {kind} move: {move:.3g}{at}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--run-calls"] and len(argv) == 4:
        return run_calls(Path(argv[1]).resolve(), Path(argv[2]), Path(argv[3]))
    flag = len(argv) == 3 and argv[1] == "--rtol"
    rtol = _number(argv[2]) if flag else None
    if len(argv) != (3 if flag else 1) or not (Path(argv[0]) / "src" / "mdzeta").is_dir() or (
        flag and (rtol is None or rtol < 0)
    ):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    return compare(Path(argv[0]).resolve(), rtol)


if __name__ == "__main__":
    sys.exit(main())
