"""Command-line behavior: formats, exit codes, reports, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

import helpers
from mdzeta import cli, evaluator, exact, genfun, model, mpseries

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


def _bad_spec_files(tmp_path):
    """A zero row, garbled JSON, a missing file and malformed twists."""
    zero_row = tmp_path / "zero_row.json"
    zero_row.write_text('{"h": [1], "k": [1], "y": ["0"], "A": [[0]]}')
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    malformed = []
    for name, y in (("word", '["abc"]'), ("pole", '["1/0"]'), ("nan", "[NaN]"),
                    ("scalar", "5"), ("string", '"00"')):
        malformed.append(tmp_path / f"y_{name}.json")
        malformed[-1].write_text(f'{{"h": [1, 1], "k": [1], "y": {y}, "A": [[1, 1]]}}')
    return [zero_row, garbled, tmp_path / "absent.json", *malformed]


def test_validate_rejects_bad_input(capsys, tmp_path):
    for path in _bad_spec_files(tmp_path):
        code, _, err = _run(capsys, ["validate", "--spec", str(path)])
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, options", [
    ("eval", ["--M", "20"]),
    ("verify", ["--M", "20", "--M-outer", "20"]),
    ("reduce", ["--M", "20", "--M-outer", "20"]),
])
def test_every_subcommand_rejects_bad_input_as_validate_does(capsys, tmp_path, command, options):
    for path in _bad_spec_files(tmp_path):
        _, _, want = _run(capsys, ["validate", "--spec", str(path)])
        code, out, err = _run(capsys, [command, "--spec", str(path), *options])
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert err == want


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


def test_every_subcommand_runs_a_spec_beyond_the_classical_shapes(capsys, monkeypatch, tmp_path):
    # A = [[1, 2]] is neither the all-ones form nor covered by exponent >= 2;
    # it converges absolutely like every valid spec, and every subcommand
    # runs it with no flag, stating the proof once per call
    path = tmp_path / "thin.json"
    path.write_text('{"h": [1, 1], "k": [1], "y": ["0", "0"], "A": [[1, 2]]}')
    calls, check = [], cli.convergence_check

    def counted(spec):
        calls.append(spec)
        return check(spec)

    monkeypatch.setattr(cli, "convergence_check", counted)
    boxes = ["--M", "50", "--M-outer", "20"]
    for argv, codes in (
        (["validate"], (0,)),
        (["eval", "--M", "50"], (0,)),
        (["verify", *boxes], (0, 3)),
        (["reduce", *boxes], (0,)),
    ):
        calls.clear()
        code, out, err = _run(capsys, [*argv, "--spec", str(path), "--output", "json"])
        assert code in codes and err == ""
        assert json.loads(out)["convergence"]["status"] == "proved-absolute"
        assert len(calls) == 1


@pytest.mark.parametrize("command", ["validate", "eval", "verify", "reduce"])
def test_assert_convergence_is_no_option(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0 and "--assert-convergence" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--spec", MT_PATH, "--assert-convergence"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --assert-convergence" in capsys.readouterr().err


@pytest.mark.parametrize("data", [
    {"h": [1, 1], "k": [1], "y": ["1/4", "0"], "A": [[2, 1]]},
    {"h": [1, 2], "k": [1], "y": ["0", "0"], "A": [[1, 2]]},
])
def test_true_identities_with_short_outer_sums_are_not_a_fail(capsys, tmp_path, data):
    # at M_outer 12 the unfitted outer sum of J = {1} of the first is 0.127
    # from its limit, and that of J = {2} of the second 0.262: a tail rule
    # that states less than that turns these true identities into fail
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    argv = ["verify", "--spec", str(path), "--M", "100", "--M-outer", "12", "--tol", "1e-6"]
    code, out, _ = _run(capsys, argv)
    assert code == 3 and "verdict: inconclusive" in out


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


SELFTEST_CHECKS = [
    "bernoulli table",
    "closed form, mt_r3 J={1,2}, regular path",
    "closed form, root_a2 J={1}, singular path",
    "closed form, mt_r2 J={1}, regular path",
    "singleton coefficients",
]


def test_selftest_reports_every_check(capsys):
    code, out, _ = _run(capsys, ["selftest"])
    assert code == 0
    assert out.splitlines() == [f"selftest: {name}: ok" for name in SELFTEST_CHECKS]


def test_selftest_takes_both_assembly_paths(capsys, monkeypatch):
    calls = []
    plan = genfun.GeneratingFunctionPlan
    for owner, name in ((plan, "_assemble_regular"), (plan, "_assemble_singular"),
                        (mpseries, "divide_linear")):
        def counted(*args, _fn=getattr(owner, name), _name=name):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(owner, name, counted)
    assert _run(capsys, ["selftest"])[0] == 0
    assert {"_assemble_regular", "_assemble_singular", "divide_linear"} <= set(calls)


def test_selftest_runs_without_the_tests(tmp_path):
    # only src is importable: no tests/ module (dict series, oracles) is needed
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-m", "mdzeta.cli", "selftest"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"selftest: {name}: ok" for name in SELFTEST_CHECKS]


def test_selftest_fails_on_a_wrong_geometric_factor(capsys, monkeypatch):
    expand = genfun._expand_geometric

    def flipped(space, rows, factors, degree):
        exponents, stacked = expand(space, rows, factors, degree)
        return exponents, -stacked if factors else stacked

    monkeypatch.setattr(genfun, "_expand_geometric", flipped)
    code, out, _ = _run(capsys, ["selftest"])
    assert code == 1
    assert any(line.endswith(": FAIL") for line in out.splitlines())


def test_selftest_fails_on_a_wrong_singleton_coefficient(capsys, monkeypatch):
    coefficients = mpseries.bernoulli_coefficients

    def off(nmax, offset):
        row = coefficients(nmax, offset)
        return row[:-1] + [row[-1] * 1.001] if offset == 0 else row

    monkeypatch.setattr(mpseries, "bernoulli_coefficients", off)
    code, out, _ = _run(capsys, ["selftest"])
    assert code == 1
    assert "selftest: singleton coefficients: FAIL" in out.splitlines()


def test_spec_without_forms_is_invalid(capsys, tmp_path):
    path = tmp_path / "no_forms.json"
    path.write_text('{"h": [1], "k": [], "y": ["0"], "A": []}')
    code, out, err = _run(capsys, ["validate", "--spec", str(path)])
    assert code == 2 and out == ""
    assert err == "error: need at least one linear form\n"


def test_output_dir_mirrors_stdout_report(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MDZETA_OUTPUT_DIR", str(tmp_path))
    boxes = ["--M", "120", "--M-outer", "120"]
    for command, options in (
        ("validate", []),
        ("eval", ["--M", "120"]),
        ("verify", [*boxes, "--tol", "1e-2"]),
        ("reduce", boxes),
    ):
        code, out, _ = _run(capsys, [command, "--spec", MT_PATH, *options, "--output", "json"])
        assert code == 0
        written = (tmp_path / f"{command}_report.json").read_text(encoding="utf-8")
        assert written == out


def _no_work(*args, **kwargs):
    raise AssertionError("summation started")


@pytest.mark.parametrize("command", ["validate", "eval", "verify", "reduce"])
def test_unusable_output_dir_exits_2_before_any_work(capsys, monkeypatch, tmp_path, command):
    for name in ("zeta_direct", "zeta_refined", "rhs_total", "term_T", "verify_parity"):
        monkeypatch.setattr(evaluator, name, _no_work)
    taken = tmp_path / "taken"
    taken.write_text("a file")
    argv = [command, "--spec", MT_PATH] + {"validate": [], "eval": ["--M", "20"]}.get(
        command, ["--M", "20", "--M-outer", "20"]
    )
    for outdir in (taken, taken / "below"):
        monkeypatch.setenv("MDZETA_OUTPUT_DIR", str(outdir))
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
    assert taken.read_text() == "a file"


@pytest.mark.parametrize("command, options", [
    ("validate", []),
    ("eval", ["--M", "50"]),
    ("verify", ["--M", "50", "--M-outer", "50", "--tol", "1"]),
])
def test_unwritable_report_exits_2_before_printing(capsys, monkeypatch, tmp_path, command, options):
    # a directory holds the report's file name; verify at this size passes
    (tmp_path / f"{command}_report.json").mkdir()
    monkeypatch.setenv("MDZETA_OUTPUT_DIR", str(tmp_path))
    code, out, err = _run(capsys, [command, "--spec", MT_PATH, *options])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{command}_report.json" in err


def test_spec_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b'\xff\xfe{"h": [1]}')
    code, out, err = _run(capsys, ["validate", "--spec", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: 'utf-8' codec can't decode") and err.count("\n") == 1


@pytest.mark.parametrize(
    "data, argv",
    [
        ({"h": [170], "k": [1], "y": ["0"], "A": [[1]]},
         ["verify", "--M", "10", "--M-outer", "10"]),
        ({"h": [90, 90], "k": [1], "y": ["0", "0"], "A": [[1, 1]]},
         ["reduce", "--M", "3", "--M-outer", "2"]),
    ],
)
def test_bernoulli_orders_past_float_range_exit_2(capsys, tmp_path, data, argv):
    path = tmp_path / "high_order.json"
    path.write_text(json.dumps(data))
    code, out, err = _run(capsys, [*argv, "--spec", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: Bernoulli order") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "reduce"])
@pytest.mark.parametrize(
    "data",
    [
        {"h": [170], "k": [1], "y": ["0"], "A": [[1]]},
        {"h": [169, 1], "k": [1], "y": ["0", "0"], "A": [[1, 1]]},
    ],
    ids=["h170", "h169-1"],
)
def test_widened_cap_past_float_range_exits_2_before_the_direct_side(
    capsys, monkeypatch, tmp_path, data, command
):
    # the plan's caps pass the early check, but a singular pattern widens a
    # pivot's cap to order 172; the reduced side is evaluated first, so the
    # refusal comes before any direct shell is summed
    def no_work(*args, **kwargs):
        raise AssertionError("direct side summed")

    monkeypatch.setattr(evaluator, "_direct_shells", no_work)
    path = tmp_path / "widened_cap.json"
    path.write_text(json.dumps(data))
    argv = [command, "--spec", str(path), "--M", "2000", "--M-outer", "10"]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: Bernoulli order 172") and err.count("\n") == 1


def _no_space(*args, **kwargs):
    raise AssertionError("exact layer or series space reached")


@pytest.mark.parametrize(
    "data, command",
    [
        ({"h": [200000], "k": [1], "y": ["0"], "A": [[1]]}, "verify"),
        ({"h": [200000], "k": [1], "y": ["0"], "A": [[1]]}, "reduce"),
        ({"h": [1], "k": [10**8], "y": ["0"], "A": [[1]]}, "reduce"),
    ],
)
def test_caps_past_float_range_exit_2_before_any_series_space(
    capsys, monkeypatch, tmp_path, data, command
):
    # every cap is the Bernoulli order of some basis member, so the plan
    # refuses one past float range before its cosets or its series space,
    # whose key count alone costs O(total cap * cap), are built
    monkeypatch.setattr(exact, "coset_representatives", _no_space)
    monkeypatch.setattr(mpseries, "key_count", _no_space)
    path = tmp_path / "huge_cap.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    code, out, err = _run(capsys, [command, "--spec", str(path), "--M", "2", "--M-outer", "2"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: Bernoulli order") and err.count("\n") == 1


def test_threads_option_is_gone(capsys):
    # --threads was a no-op and has been removed: argparse refuses it
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--spec", MT_PATH, "--M", "150", "--threads", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 1" in capsys.readouterr().err


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


def test_reduce_reports_unit_outer_d_and_shared_corollary(capsys, monkeypatch):
    # reduce computes no verdict: it runs verify's two sums itself, the
    # reduced side first, and its corollary is the one verify's report gives
    calls = []
    for name in ("rhs_total", "zeta_refined"):
        def record(*args, _fn=getattr(evaluator, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(evaluator, name, record)
    monkeypatch.setattr(evaluator, "verify_parity", _no_work)
    code, out, _ = _run(
        capsys,
        ["reduce", "--spec", MT_PATH, "--M", "120", "--M-outer", "120", "--output", "json"],
    )
    assert code == 0 and calls == ["rhs_total", "zeta_refined"]
    monkeypatch.undo()
    payload = json.loads(out)
    spec = model.load_spec(MT_PATH)
    for term in payload["terms"]:
        J = tuple(term["J"])
        plan = genfun.GeneratingFunctionPlan(spec, J)
        raw = plan.evaluate({j: 1 for j in plan.ctx.Jbar})[plan.top]
        want = raw * math.prod(math.factorial(c) for c in plan.caps)
        got = complex(float(term["D_at_unit_outer"]["re"]), float(term["D_at_unit_outer"]["im"]))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    report = evaluator.verify_parity(spec, M=120, M_outer=120, tol=1e-2)
    assert payload["corollary"] == cli._corollary_json(report.corollary())


@pytest.mark.parametrize("name", sorted(p.stem for p in SPECS.glob("*.json")))
def test_verify_and_reduce_show_one_computation(capsys, name):
    # reduce tabulates the reduced side verify compares, term by term, and
    # both read the corollary off the same direct sum
    argv = ["--spec", str(SPECS / f"{name}.json"), "--M", "60", "--M-outer", "20",
            "--output", "json"]
    verify = json.loads(_run(capsys, ["verify", *argv])[1])
    reduce = json.loads(_run(capsys, ["reduce", *argv])[1])
    per_J, terms = verify["rhs"]["per_J"], reduce["terms"]
    assert len(per_J) == len(terms) == 2**len(verify["spec"]["h"]) - 1
    for v, t in zip(per_J, terms):
        assert (v["J"], v["I"], v["sign"], v["rho"], v["value_re"], v["value_im"], v["tail"]) == (
            t["J"], t["I"], t["sign"], t["rho"], t["T"]["re"], t["T"]["im"], t["tail"]
        )
    assert verify["corollary"] == reduce["corollary"]


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
def test_tolerance_must_be_finite_and_nonnegative(capsys, monkeypatch, tol):
    def no_work(*args, **kwargs):
        raise AssertionError("summation started")

    monkeypatch.setattr(evaluator, "_direct_shells", no_work)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--spec", MT_PATH, "--M", "50", "--M-outer", "50", f"--tol={tol}"])
    assert exc.value.code == 2
    assert f"tolerance must be finite and >= 0, got {tol}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "reduce"])
def test_negative_rho_variant_is_rejected_before_any_work(capsys, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("summation started")

    for name in ("_direct_shells", "zeta_direct", "zeta_refined", "rhs_total", "term_T"):
        monkeypatch.setattr(evaluator, name, no_work)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--spec", MT_PATH, "--M", "50", "--M-outer", "50", "--rho-variant", "-1"])
    assert exc.value.code == 2
    assert "rho variant must be >= 0, got -1" in capsys.readouterr().err
    assert cli._parser().parse_args([command, "--spec", MT_PATH, "--rho-variant", "0"]).rho_variant == 0


def test_zero_tolerance_is_accepted():
    args = cli._parser().parse_args(["verify", "--spec", MT_PATH, "--tol", "0"])
    assert args.tol == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        # mt_r2 by faces is admitted up to M 1562499 (see below)
        ["eval", "--spec", MT_PATH, "--M", "1562500"],
        ["verify", "--spec", MT_PATH, "--M", "1562500", "--M-outer", "50"],
        ["verify", "--spec", str(SPECS / "mt_r3.json"), "--M", "50", "--M-outer", "4000"],
        ["reduce", "--spec", MT_PATH, "--M", "1562500", "--M-outer", "50"],
        ["reduce", "--spec", str(SPECS / "mt_r3.json"), "--M", "50", "--M-outer", "4000"],
    ],
)
def test_oversized_boxes_are_rejected_before_any_work(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("summation started")

    if argv[-2:] == ["--M-outer", "4000"]:
        # the coset budget: rhs_total refuses it as it builds its plans,
        # before any coset, term or direct shell
        monkeypatch.setattr(genfun.exact, "coset_representatives", no_work)
        monkeypatch.setattr(evaluator, "term_T", no_work)
        monkeypatch.setattr(evaluator, "_direct_shells", no_work)
    else:
        for name in ("zeta_direct", "zeta_refined", "rhs_total", "term_T", "verify_parity"):
            monkeypatch.setattr(evaluator, name, no_work)
        monkeypatch.setattr(cli, "convergence_check", no_work)
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: --M") and f"work budget of {cli.WORK_BUDGET}" in err


def test_r3_direct_budget_counts_the_face_route(capsys, monkeypatch):
    # the pre-flight admits by the work of the engine direct_cost picks:
    # mt_r3 by faces, 0.3 x 12 pole orders times poles per row over M^2
    # rows plus 2 x two suffix tables of 3 M + 1 entries, up to M 1665
    def no_work(*args, **kwargs):
        raise AssertionError("summation started")

    mt_r3 = model.load_spec(str(SPECS / "mt_r3.json"))
    assert evaluator.direct_cost(mt_r3, 1665) == ("faces", 9999994)
    for name in ("_direct_shells", "zeta_direct", "zeta_refined", "rhs_total", "term_T"):
        monkeypatch.setattr(evaluator, name, no_work)
    argv = ["verify", "--spec", str(SPECS / "mt_r3.json"), "--M", "1666", "--M-outer", "4"]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err == (
        f"error: --M 1666 at r=3 gives 1666^3 = 4624076296 direct terms, a work of 10011997 "
        f"(faces), over the work budget of {cli.WORK_BUDGET}\n"
    )
    # mt_r2 by faces: 0.3 x 8 per row and 2 x one table of 2 M + 1 entries
    assert evaluator.direct_cost(model.load_spec(MT_PATH), 1562499) == ("faces", 9999995)


def test_a_guard_box_over_the_work_budget_exits_2_before_it_is_built(capsys, monkeypatch, tmp_path):
    # A3 at h = k = [4, 4, 4]: the route's pieces pass 2^10 times every
    # shell, so its guard hands all of [1, M]^3 back to the box; the count
    # admits the route at M 216, but not 216^3 box terms, which the box
    # refuses before its windows, the first thing it builds
    data = {"h": [4] * 3, "k": [4] * 3, "y": ["0"] * 3, "A": [[1, 1, 0], [0, 1, 1], [1, 1, 1]]}
    path = tmp_path / "a3_weight4.json"
    path.write_text(json.dumps(data))
    assert evaluator.direct_cost(model.parse_spec(data), 216) == ("faces", 1404872)
    monkeypatch.setattr(evaluator, "sliding_window_view", _no_work)
    route = mock.Mock(wraps=evaluator._face_shells)
    box = mock.Mock(wraps=evaluator._box_shells)
    monkeypatch.setattr(evaluator, "_face_shells", route)
    monkeypatch.setattr(evaluator, "_box_shells", box)
    code, out, err = _run(capsys, ["eval", "--spec", str(path), "--M", "216"])
    assert route.call_count == 1 and [c.args[1] for c in box.call_args_list] == [216]
    assert code == 2 and out == ""
    assert err == (
        f"error: the box [1, 216]^3 needs a work of 10077696, over the work budget of "
        f"{cli.WORK_BUDGET}\n"
    )


def _coset_work(spec, M_outer: int) -> int:
    """The largest coset representatives times outer tuples of a class of spec."""
    plans = [genfun.GeneratingFunctionPlan(spec, J) for J, *_ in model.subset_classes(spec)]
    return max(plan.coset_count * M_outer ** len(plan.ctx.Jbar) for plan in plans)


def test_work_budget_admits_boxes_up_to_the_limit(capsys, monkeypatch):
    # the largest sizes the benchmark, demos and tests use fit the real budget
    mt_r2, mt_r3 = model.load_spec(MT_PATH), model.load_spec(str(SPECS / "mt_r3.json"))
    cli._check_budget(mt_r2, 3000)
    cli._check_budget(mt_r3, 400)  # the defaults, by faces
    cli._check_budget(model.load_spec(str(SPECS / "a3.json")), 400)
    assert _coset_work(mt_r2, 3000) <= evaluator.WORK_BUDGET
    assert _coset_work(mt_r3, 2000) <= evaluator.WORK_BUDGET
    monkeypatch.setattr(cli, "WORK_BUDGET", 400)
    monkeypatch.setattr(evaluator, "WORK_BUDGET", 400)
    argv = ["verify", "--spec", MT_PATH, "--output", "json"]
    # 20^2 terms; J = {1} and J = {2} have 2 coset representatives, 200^1 tuples
    code, out, err = _run(capsys, argv + ["--M", "20", "--M-outer", "200"])
    assert err == "" and code == {"pass": 0, "inconclusive": 3}[json.loads(out)["verdict"]]
    code, _, err = _run(capsys, argv + ["--M", "21", "--M-outer", "200"])
    assert code == 2 and "21^2 = 441 direct terms" in err
    code, _, err = _run(capsys, argv + ["--M", "20", "--M-outer", "201"])
    assert code == 2 and "2 coset representatives times 201^1 outer tuples = 402" in err


@pytest.mark.parametrize("r, classes", [(3, 3), (4, 4)], ids=["mt_r3", "mt_r4"])
def test_verify_enumerates_bases_once_per_subset_class(capsys, monkeypatch, tmp_path, r, classes):
    # one pass over each class's Lambda_J per call: mt_r3 has 3 classes of
    # its 7 subsets, r = 4 MT 4 of its 15
    calls, enumerate_bases = [], genfun.enumerate_bases

    def counted(vecs):
        calls.append(vecs)
        return enumerate_bases(vecs)

    monkeypatch.setattr(genfun, "enumerate_bases", counted)
    path = tmp_path / "mt.json"
    path.write_text(json.dumps({"h": [1] * r, "k": [r - 1], "y": ["0"] * r, "A": [[1] * r]}))
    code, _, err = _run(capsys, ["verify", "--spec", str(path), "--M", "4", "--M-outer", "3"])
    assert code in (0, 1, 3) and err == ""
    assert len(calls) == classes


def _no_cosets(*args, **kwargs):
    raise AssertionError("coset representatives enumerated")


@pytest.mark.parametrize("command", ["verify", "reduce"])
def test_coset_count_is_refused_before_any_coset_is_enumerated(
    capsys, monkeypatch, tmp_path, command
):
    # J = {1, 2}: bases of det 1, 3 and -1, so 5 coset representatives
    path = tmp_path / "steep_form.json"
    path.write_text('{"h": [2, 2], "k": [2], "y": ["0", "0"], "A": [[1, 3]]}')
    plan = genfun.GeneratingFunctionPlan(model.load_spec(str(path)), (1, 2))
    assert plan.coset_count == 5
    monkeypatch.setattr(genfun.exact, "coset_representatives", _no_cosets)
    monkeypatch.setattr(evaluator, "WORK_BUDGET", 4)
    argv = [command, "--spec", str(path), "--M", "1", "--M-outer", "1"]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err == (
        "error: --M-outer 1 at J={1, 2} gives 5 coset representatives times 1^0 "
        "outer tuples = 5, over the work budget of 4\n"
    )
    # one step higher the same box is admitted and the plans start
    monkeypatch.setattr(evaluator, "WORK_BUDGET", 5)
    with pytest.raises(AssertionError, match="coset representatives enumerated"):
        cli.main(argv)


def test_large_entry_bases_are_refused_at_the_real_budget(capsys, monkeypatch, tmp_path):
    # J = {1, 2}: each basis of a unit vector and a form has |det| about 3e6,
    # 12 000 073 coset representatives in all
    path = tmp_path / "large_entries.json"
    path.write_text(
        '{"h": [2, 2], "k": [2, 2], "y": ["0", "0"],'
        ' "A": [[3000017, 3000019], [2999999, 3000001]]}'
    )
    monkeypatch.setattr(genfun.exact, "coset_representatives", _no_cosets)
    for command in ("verify", "reduce"):
        code, out, err = _run(capsys, [command, "--spec", str(path), "--M", "1", "--M-outer", "1"])
        assert code == 2 and out == ""
        assert err.startswith("error: --M-outer 1 at J={1, 2}") and err.count("\n") == 1


def test_large_entry_bases_are_refused_from_python(capsys, monkeypatch, tmp_path):
    # rhs_total owns the coset budget, so a caller from Python is refused
    # as the CLI is, with its message, and no coset is enumerated
    path = tmp_path / "large_entries.json"
    path.write_text(
        '{"h": [2, 2], "k": [2, 2], "y": ["0", "0"],'
        ' "A": [[3000017, 3000019], [2999999, 3000001]]}'
    )
    spec = model.load_spec(str(path))
    calls = []
    monkeypatch.setattr(genfun.exact, "coset_representatives", lambda *a: calls.append(a))
    code, out, err = _run(capsys, ["verify", "--spec", str(path), "--M", "1", "--M-outer", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error: --M-outer 1 at J={1, 2} gives 12000073 coset representatives")
    for call in (lambda: evaluator.rhs_total(spec, 1),
                 lambda: evaluator.verify_parity(spec, M=1, M_outer=1)):
        with pytest.raises(model.SpecError) as exc:
            call()
        assert f"error: {exc.value}\n" == err
    assert calls == []


def _steep_pole_spec(tmp_path, entry):
    # J = {1, 2} divides by t1 + entry * t2 - t3, whose weight of entry is
    # the pivot of the division
    path = tmp_path / "steep_pole.json"
    path.write_text(json.dumps({"h": [2, 2], "k": [2], "y": ["0", "0"], "A": [[1, entry]]}))
    return str(path)


@pytest.mark.parametrize("entry", [40, 200])
def test_steep_pole_specs_evaluate(capsys, tmp_path, entry):
    path = _steep_pole_spec(tmp_path, entry)
    code, out, err = _run(capsys, ["reduce", "--spec", path, "--M", "20", "--M-outer", "20",
                                   "--output", "json"])
    assert code == 0 and err == ""
    assert len(json.loads(out)["terms"]) == 3


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_steep_pole_identity_does_not_read_fail(capsys, tmp_path):
    # a true identity: J = {2}'s tail states about 7.5e-5 while its T at
    # M_outer 20 is 2.0e-3 off its limit, so the residual reads fail
    path = _steep_pole_spec(tmp_path, 40)
    code, out, _ = _run(capsys, ["verify", "--spec", path, "--M", "20", "--M-outer", "20",
                                 "--tol", "1e-6", "--output", "json"])
    assert code in (0, 1, 3)
    assert json.loads(out)["verdict"] != "fail"


@pytest.mark.parametrize("entry", [40, 50])
@pytest.mark.parametrize("command", ["verify", "reduce"])
def test_uncancelled_pole_exits_2_with_one_error_line(capsys, monkeypatch, tmp_path, command, entry):
    # a remainder far over the relative threshold of 1e-8, forced into the
    # division of the singular path
    divide = mpseries.divide_linear

    def leaky(space, numer, form):
        quotient, remainder = divide(space, numer, form)
        return quotient, remainder + 1.0

    monkeypatch.setattr(mpseries, "divide_linear", leaky)
    # both commands fail before any direct sum
    monkeypatch.setattr(evaluator, "zeta_refined", _no_work)
    path = _steep_pole_spec(tmp_path, entry)
    code, out, err = _run(capsys, [command, "--spec", path, "--M", "20", "--M-outer", "20"])
    assert code == 2 and out == ""
    assert err.startswith("error: pole along") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "reduce"])
def test_numerator_past_float_precision_exits_2(capsys, monkeypatch, tmp_path, command):
    # J = {1} sums bases whose d_g are -188 and 1: at m = 1 its terms reach
    # 8.8e13 for coefficients of 2, so no remainder check can be read there
    path = tmp_path / "cancelling.json"
    path.write_text(json.dumps({"h": [3, 3], "k": [1, 3], "y": ["0", "0"],
                                "A": [[188, 1], [2, 0]]}))
    monkeypatch.setattr(evaluator, "zeta_refined", _no_work)
    code, out, err = _run(capsys, [command, "--spec", str(path), "--M", "20", "--M-outer", "20"])
    assert code == 2 and out == ""
    assert err.startswith("error: numerator cancels past float precision")
    assert err.count("\n") == 1


def test_series_space_over_the_work_budget_exits_2(capsys, tmp_path):
    # J = {1, 2, 3, 4} of the 4x4 identity divides in a space of 4.0 M keys
    # over 8 variables; it is counted and refused before it is built
    path = tmp_path / "identity4.json"
    path.write_text(json.dumps({"h": [3] * 4, "k": [3] * 4, "y": ["0"] * 4,
                                "A": [[int(i == j) for j in range(4)] for i in range(4)]}))
    code, out, err = _run(capsys, ["reduce", "--spec", str(path), "--M", "3", "--M-outer", "2"])
    assert code == 2 and out == ""
    assert err.startswith("error: series space of") and err.count("\n") == 1


def test_series_space_of_one_large_cap_is_counted_by_its_size(capsys, tmp_path):
    # every plan's space indexes, J = {1, 2, 3, 4}'s too, with one cap of 110
    # among small caps; a singular pattern's table then widens a pivot's
    # cap, and that space is refused by its size, before it is built
    path = tmp_path / "h110.json"
    path.write_text(json.dumps({"h": [110, 1, 1, 1], "k": [2] * 4, "y": ["0"] * 4,
                                "A": [[int(i == j) for j in range(4)] for i in range(4)]}))
    code, out, err = _run(capsys, ["verify", "--spec", str(path), "--M", "3", "--M-outer", "2"])
    assert code == 2 and out == ""
    assert err == (f"error: series space of 7778700 keys over 6 variables is over "
                   f"the work budget of {cli.WORK_BUDGET}\n")


@pytest.mark.parametrize("command", ["verify", "reduce"])
def test_compiled_table_over_the_work_budget_exits_2(capsys, monkeypatch, tmp_path, command):
    # J = {1} of six forms has six geometric factors to a total cap of 21:
    # C(21, 6) monomials x coset reps x 16 384 keys, refused before the
    # Bernoulli rows are built and before any direct sum
    path = tmp_path / "six_forms.json"
    path.write_text(json.dumps({"h": [3, 3], "k": [3] * 6, "y": ["0", "0"],
                                "A": [[1, 1], [1, 2], [2, 1], [1, 3], [3, 1], [2, 3]]}))
    monkeypatch.setattr(evaluator, "zeta_refined", _no_work)
    monkeypatch.setattr(genfun.GeneratingFunctionPlan, "_bernoulli_products", _no_work)
    code, out, err = _run(capsys, [command, "--spec", str(path), "--M", "3", "--M-outer", "2"])
    assert code == 2 and out == ""
    assert err.startswith("error: compiled table of") and err.count("\n") == 1
    assert "Traceback" not in err


def test_twist_denominator_beyond_int64_evaluates(capsys, tmp_path):
    # q = 10^23 > M: the twist table is e(m y) for m = 0..M, never m mod q
    path = tmp_path / "big_twist.json"
    path.write_text(json.dumps({"h": [2], "k": [1], "y": ["1/100000000000000000000000"], "A": [[1]]}))
    code, out, err = _run(capsys, ["eval", "--spec", str(path), "--M", "10", "--output", "json"])
    assert code == 0 and err == ""
    assert json.loads(out)["value"]


def test_coset_phase_denominator_beyond_int64_exits_2_with_one_error_line(capsys, tmp_path):
    # J = {1} reads its coset phases mod q = 64461016631999, and q times an
    # outer coordinate the work budget admits leaves int64
    path = tmp_path / "big_phase.json"
    path.write_text(json.dumps({
        "h": [2, 2], "k": [2], "y": ["1/2147483647", "1/2147483629"], "A": [[30017, 30019]],
    }))
    code, out, err = _run(capsys, ["reduce", "--spec", str(path), "--M", "10", "--M-outer", "2"])
    assert code == 2 and out == ""
    assert err.startswith("error: coset phase denominator 64461016631999") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["eval", "verify", "reduce"])
def test_large_form_values_are_rejected_before_any_work(capsys, monkeypatch, tmp_path, command):
    # 100 direct terms, but the direct side would tabulate 1/f^k for every
    # form value f up to 20 * 100
    path = tmp_path / "wide_form.json"
    path.write_text('{"h": [2], "k": [2], "y": ["0"], "A": [[20]]}')

    def no_work(*args, **kwargs):
        raise AssertionError("summation started")

    monkeypatch.setattr(evaluator, "_direct_shells", no_work)
    monkeypatch.setattr(cli, "convergence_check", no_work)
    monkeypatch.setattr(cli, "WORK_BUDGET", 1000)
    argv = [command, "--spec", str(path), "--M", "100"]
    argv += [] if command == "eval" else ["--M-outer", "10"]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: --M 100") and "2000 direct form values" in err
    # one step lower the same box is admitted
    monkeypatch.setattr(cli, "WORK_BUDGET", 2000)
    with pytest.raises(AssertionError, match="summation started"):
        cli.main(argv)


# A term is its sign times the outer sum, so sign -1 on an exact zero part
# used to print a negative zero.

def test_vanishing_verify_term_prints_zero(capsys):
    _, out, _ = _run(
        capsys, ["verify", "--spec", MT_PATH, "--M", "40", "--M-outer", "40", "--output", "json"]
    )
    per_J = {tuple(t["J"]): t for t in json.loads(out)["rhs"]["per_J"]}
    assert per_J[(1, 2)]["sign"] == -1
    assert (per_J[(1, 2)]["value_re"], per_J[(1, 2)]["value_im"]) == ("0", "0")


def test_vanishing_reduce_term_prints_zero(capsys):
    argv = ["reduce", "--spec", str(SPECS / "root_a2.json"), "--M", "40", "--M-outer", "40",
            "--output", "json"]
    _, out, _ = _run(capsys, argv)
    terms = {tuple(t["J"]): t for t in json.loads(out)["terms"]}
    assert terms[(1, 2)]["sign"] == -1
    assert terms[(1, 2)]["T"] == {"re": "0", "im": "0"}


def test_real_twisted_terms_print_zero_imaginary_part(capsys):
    argv = ["verify", "--spec", str(SPECS / "mt_r2_twisted.json"), "--M", "40",
            "--M-outer", "40", "--output", "text"]
    _, out, _ = _run(capsys, argv)
    lines = [line for line in out.splitlines() if line.lstrip().startswith(("J={1}", "J={2}"))]
    assert len(lines) == 2
    assert all("sign=-1" in line and " + 0i " in line and "+ -0i" not in line for line in lines)


def test_consecutive_calls_share_the_parser_but_not_their_options(capsys, monkeypatch):
    seen, verify_parity = [], evaluator.verify_parity

    def record(spec, **kwargs):
        seen.append(kwargs)
        return verify_parity(spec, **kwargs)

    monkeypatch.setattr(cli.evaluator, "verify_parity", record)
    small = ["--M", "20", "--M-outer", "20"]
    explicit = ["verify", "--spec", MT_PATH, *small, "--tol", "1e-3", "--rho-variant", "1"]
    assert _run(capsys, explicit)[0] in (0, 3)
    assert _run(capsys, ["eval", "--spec", MT_PATH, "--M", "20", "--output", "csv"])[0] == 0
    assert _run(capsys, ["verify", "--spec", MT_PATH, *small])[0] in (0, 3)
    assert cli._parser() is cli._parser()
    assert [(kw["tol"], kw["rho_variant"]) for kw in seen] == [(1e-3, 1), (1e-6, 0)]
    # the output format of the csv call does not leak into the next call
    code, out, _ = _run(capsys, ["validate", "--spec", MT_PATH])
    assert code == 0 and out.startswith("instance:")
