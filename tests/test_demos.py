"""The demo runs of scripts/run_demos.py against their frozen reports and output."""

import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

from mdzeta import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "data" / "golden_demo_reports.json").read_text())


def _run_demos():
    spec = importlib.util.spec_from_file_location("run_demos", ROOT / "scripts" / "run_demos.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _number(value):
    """The float a report string spells, or None for any other string."""
    try:
        x = float(value)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= max(1e-13, 1e-12 * abs(want))


def _assert_close(got, want, where):
    """Same structure, types and text; numbers within max(1e-13, 1e-12 |want|)."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, str) and _number(want) is not None and _number(got) is not None:
        assert _close(_number(got), _number(want)), (where, got, want)
    else:
        assert got == want, where


def test_golden_file_covers_the_demo_runs():
    assert [run["argv"] for run in GOLDEN["runs"]] == _run_demos().RUNS


def _assert_same_tokens(got: str, want: str, where):
    """Same tokens; a number (a trailing i stripped) within max(1e-13, 1e-12 |want|).

    Tokens are the runs between blanks, commas and parentheses, and those
    separators themselves, so the separators must match too.
    """
    got_tokens, want_tokens = (re.split(r"([\s,()]+)", line) for line in (got, want))
    assert len(got_tokens) == len(want_tokens), (where, got, want)
    for g, w in zip(got_tokens, want_tokens):
        x, y = _number(g.removesuffix("i")), _number(w.removesuffix("i"))
        if x is None or y is None:
            assert g == w, (where, got, want)
        else:
            assert _close(x, y), (where, g, w)


def _argv(golden) -> list:
    argv = list(golden["argv"])
    pos = argv.index("--spec") + 1
    argv[pos] = str(ROOT / "specs" / argv[pos])
    return argv


@pytest.mark.parametrize("index", range(len(GOLDEN["runs"])))
def test_demo_reports_match_the_golden_reports(capsys, monkeypatch, index):
    monkeypatch.delenv("MDZETA_OUTPUT_DIR", raising=False)
    golden = GOLDEN["runs"][index]
    code = cli.main(_argv(golden) + ["--output", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == golden["exit"]
    assert report.get("verdict") == golden["report"].get("verdict")
    _assert_close(report, golden["report"], "report")


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("index", range(len(GOLDEN["runs"])))
def test_demo_text_and_csv_match_the_golden_output(capsys, monkeypatch, index, fmt):
    monkeypatch.delenv("MDZETA_OUTPUT_DIR", raising=False)
    golden = GOLDEN["runs"][index]
    code = cli.main(_argv(golden) + ["--output", fmt])
    lines = capsys.readouterr().out.splitlines()
    assert code == golden["exit"]
    assert len(lines) == len(golden[fmt])
    for n, (got, want) in enumerate(zip(lines, golden[fmt])):
        _assert_same_tokens(got, want, f"{fmt} line {n}")
