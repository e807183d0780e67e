"""The demo runs of scripts/run_demos.py against their frozen JSON reports."""

import importlib.util
import json
import math
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
        assert abs(_number(got) - _number(want)) <= max(1e-13, 1e-12 * abs(_number(want))), (
            where, got, want
        )
    else:
        assert got == want, where


def test_golden_file_covers_the_demo_runs():
    assert [run["argv"] for run in GOLDEN["runs"]] == _run_demos().RUNS


@pytest.mark.parametrize("index", range(len(GOLDEN["runs"])))
def test_demo_reports_match_the_golden_reports(capsys, monkeypatch, index):
    monkeypatch.delenv("MDZETA_OUTPUT_DIR", raising=False)
    golden = GOLDEN["runs"][index]
    argv = list(golden["argv"])
    pos = argv.index("--spec") + 1
    argv[pos] = str(ROOT / "specs" / argv[pos])
    code = cli.main(argv + ["--output", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == golden["exit"]
    assert report.get("verdict") == golden["report"].get("verdict")
    _assert_close(report, golden["report"], "report")
