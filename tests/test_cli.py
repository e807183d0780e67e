"""Command-line behavior: formats, exit codes, reports, determinism."""

import dataclasses
import json
import math
from pathlib import Path

import pytest

import helpers
from mdzeta import cli, evaluator, genfun, model

SPECS = Path(__file__).resolve().parent.parent / "specs"
MT_PATH = str(SPECS / "mt_r2.json")


def _run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_validate_text_output(capsys):
    code, out, err = _run(capsys, ["validate", "--spec", MT_PATH])
    assert code == 0 and err == ""
    assert "valid: yes" in out
    assert "convergence: proved-sufficient" in out


def test_validate_json_and_csv(capsys):
    code, out, _ = _run(capsys, ["validate", "--spec", MT_PATH, "--output", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["convergence"]["status"] == "proved-sufficient"
    assert payload["spec"]["h"] == [1, 1]
    code, out, _ = _run(capsys, ["validate", "--spec", MT_PATH, "--output", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "field,value"


def test_validate_rejects_bad_input(capsys, tmp_path):
    zero_row = tmp_path / "zero_row.json"
    zero_row.write_text('{"h": [1], "k": [1], "y": ["0"], "A": [[0]]}')
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    for path in (zero_row, garbled, tmp_path / "absent.json"):
        code, _, err = _run(capsys, ["validate", "--spec", str(path)])
        assert code == 2
        assert err.startswith("error:")


def test_eval_reports_refined_value(capsys):
    code, out, _ = _run(
        capsys, ["eval", "--spec", MT_PATH, "--M", "300", "--output", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    value = complex(float(payload["value"]["re"]), float(payload["value"]["im"]))
    assert abs(value - 2 * helpers.apery_zeta3()) <= 1e-3
    assert value.imag == 0
    assert payload["terms"] == 300**2


def test_convergence_gate_exit_codes(capsys, tmp_path):
    path = tmp_path / "thin.json"
    path.write_text('{"h": [1, 1], "k": [1], "y": ["0", "0"], "A": [[1, 2]]}')
    for argv in (
        ["eval", "--spec", str(path), "--M", "50"],
        ["verify", "--spec", str(path), "--M", "50", "--M-outer", "50"],
    ):
        code, _, err = _run(capsys, argv)
        assert code == 2
        assert "convergence not established" in err
    code, out, _ = _run(
        capsys,
        ["validate", "--spec", str(path), "--assert-convergence", "--output", "json"],
    )
    assert code == 0
    assert json.loads(out)["convergence"]["status"] == "user-asserted"


def test_verify_passes_and_prints_verdict(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "--spec", MT_PATH, "--M", "300", "--M-outer", "300",
         "--tol", "1e-3"],
    )
    assert code == 0
    assert "verdict: pass" in out
    assert "parity case: symmetric" in out


def test_verify_json_is_deterministic(capsys):
    argv = [
        "verify", "--spec", MT_PATH, "--M", "120", "--M-outer", "120",
        "--tol", "1e-2", "--output", "json",
    ]
    code, first, _ = _run(capsys, argv)
    assert code == 0
    code, second, _ = _run(capsys, argv)
    assert code == 0
    assert first == second
    assert json.loads(first)["verdict"] == "pass"


def test_verify_exit_codes_follow_verdict(capsys, monkeypatch):
    spec = model.load_spec(MT_PATH)
    base = evaluator.verify_parity(spec, M=60, M_outer=60, tol=1e-2)
    for verdict, expected in (("fail", 1), ("inconclusive", 3)):
        doctored = dataclasses.replace(base, verdict=verdict)
        monkeypatch.setattr(
            cli.evaluator, "verify_parity", lambda *a, **kw: doctored
        )
        code, out, _ = _run(
            capsys, ["verify", "--spec", MT_PATH, "--M", "60", "--M-outer", "60"]
        )
        assert code == expected
        assert f"verdict: {verdict}" in out


def test_verify_csv_sections(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "--spec", MT_PATH, "--M", "120", "--M-outer", "120",
         "--tol", "1e-2", "--output", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "section,J,I,sign,value_re,value_im,tail"
    assert sum(1 for l in lines if l.startswith("term,")) == 3
    assert lines[-1].startswith("residual,") and lines[-1].endswith(",pass")


def test_reduce_prints_corollary(capsys):
    code, out, _ = _run(
        capsys, ["reduce", "--spec", MT_PATH, "--M", "120", "--M-outer", "120"]
    )
    assert code == 0
    assert "corollary [real-part]" in out
    assert "D (no outer sum)" in out


def test_reduce_csv_lists_every_subset(capsys):
    code, out, _ = _run(
        capsys,
        ["reduce", "--spec", str(SPECS / "root_a2.json"), "--M", "150",
         "--M-outer", "150", "--output", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "J,I,sign,T_re,T_im,tail,D_ones_re,D_ones_im"
    assert len(lines) == 1 + 3  # three nonempty subsets of {1, 2}


def test_selftest_reports_every_check(capsys):
    code, out, _ = _run(capsys, ["selftest"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("selftest:")]
    assert len(lines) == 4
    assert all(l.endswith(": ok") for l in lines)


def test_output_dir_mirrors_stdout_report(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MDZETA_OUTPUT_DIR", str(tmp_path))
    code, out, _ = _run(
        capsys,
        ["verify", "--spec", MT_PATH, "--M", "120", "--M-outer", "120",
         "--tol", "1e-2", "--output", "json"],
    )
    assert code == 0
    written = (tmp_path / "verify_report.json").read_text(encoding="utf-8")
    assert written == out


def test_threads_option(capsys):
    argv = ["eval", "--spec", MT_PATH, "--M", "150", "--output", "json"]
    code, serial, _ = _run(capsys, argv + ["--threads", "1"])
    assert code == 0
    code, auto, _ = _run(capsys, argv + ["--threads", "auto"])
    assert code == 0
    assert serial == auto
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--threads", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--spec", MT_PATH, "--M", "0", "--M-outer", "0"],
        ["verify", "--spec", MT_PATH, "--M", "50", "--M-outer", "0"],
        ["eval", "--spec", MT_PATH, "--M", "-5"],
        ["reduce", "--spec", MT_PATH, "--M", "0", "--M-outer", "50"],
        ["reduce", "--spec", MT_PATH, "--M", "50", "--M-outer", "-1"],
    ],
)
def test_empty_or_negative_boxes_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "box size must be >= 1" in capsys.readouterr().err


def test_reduce_reports_unit_outer_d_and_shared_corollary(capsys):
    code, out, _ = _run(
        capsys,
        ["reduce", "--spec", MT_PATH, "--M", "120", "--M-outer", "120", "--output", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    spec = model.load_spec(MT_PATH)
    for term in payload["terms"]:
        J = tuple(term["J"])
        Jbar = [j for j in range(1, spec.r + 1) if j not in J]
        want = genfun.extract_D(genfun.compute_G(spec, J, {j: 1 for j in Jbar}))
        got = complex(float(term["D_at_unit_outer"]["re"]), float(term["D_at_unit_outer"]["im"]))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    report = evaluator.verify_parity(spec, M=120, M_outer=120, tol=1e-2)
    assert payload["corollary"] == evaluator.corollary_json(report.corollary())
