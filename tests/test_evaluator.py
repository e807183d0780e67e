"""Direct summation, tail fitting, reduced-side terms, and verification."""

import itertools
import json
import math
from fractions import Fraction

import pytest

import helpers
from mdzeta import cli, evaluator, model
from mdzeta.evaluator import (
    ConvergenceNotEstablished,
    _power_estimate,
    fit_tail,
    rhs_total,
    term_T,
    term_sign,
    verify_parity,
    zeta_direct,
    zeta_refined,
)
from mdzeta.phase import unit_phase

MT = model.parse_spec({"h": [1, 1], "k": [1], "y": ["0", "0"], "A": [[1, 1]]})
NULL = model.parse_spec({"h": [1, 1], "k": [2], "y": ["0", "0"], "A": [[1, 1]]})
ZETA2 = model.parse_spec({"h": [1], "k": [1], "y": ["0"], "A": [[1]]})


def _brute_box_sum(spec, M):
    total = 0.0 + 0.0j
    for m in itertools.product(range(1, M + 1), repeat=spec.r):
        term = 1.0 + 0.0j
        for j in range(spec.r):
            term *= unit_phase(m[j] * spec.y[j]) / m[j] ** spec.h[j]
        for i in range(spec.ell):
            s = sum(spec.A[i][j] * m[j] for j in range(spec.r))
            term /= float(s) ** spec.k[i]
        total += term
    return total


def test_zeta_direct_matches_brute_force_box():
    spec = model.parse_spec(
        {"h": [1, 2], "k": [1, 1], "y": ["1/3", "0"], "A": [[1, 2], [1, 1]]}
    )
    got = zeta_direct(spec, 12)
    assert abs(got.value - _brute_box_sum(spec, 12)) <= 1e-13
    assert got.M == 12
    assert got.terms == 144


def test_zeta_direct_rejects_empty_box():
    with pytest.raises(ValueError):
        zeta_direct(MT, 0)


def test_zeta_direct_grows_while_tail_shrinks():
    sums = [zeta_direct(MT, M) for M in (25, 50, 100)]
    values = [s.value.real for s in sums]
    assert values[0] < values[1] < values[2]
    tails = [s.tail_estimate for s in sums]
    assert tails[0] > tails[1] > tails[2]
    assert not any(s.slow for s in sums)


def test_zeta_direct_conjugates_under_negated_twist():
    spec = model.parse_spec(
        {"h": [1, 2], "k": [1, 1], "y": ["1/3", "0"], "A": [[1, 2], [1, 1]]}
    )
    plus = zeta_direct(spec, 30).value
    minus = zeta_direct(spec.negated_twist(), 30).value
    assert minus == plus.conjugate()


def test_zeta_refined_hits_classical_value():
    got = zeta_refined(ZETA2, 2000)
    err = abs(got.value - math.pi**2 / 6)
    assert got.fitted
    assert err <= 1e-8
    assert err <= got.uncertainty


def test_zeta_refined_alternating_twist():
    spec = model.parse_spec({"h": [1], "k": [1], "y": ["1/2"], "A": [[1]]})
    got = zeta_refined(spec, 1000)
    err = abs(got.value - (-math.pi**2 / 12))
    assert not got.fitted  # oscillating shells: no decay fit
    assert err <= 1e-5
    assert err <= got.uncertainty


def test_shell_tuples_cover_box_boundary_lexicographically():
    assert helpers.shell_array(1, 3).tolist() == [[3]]
    assert helpers.shell_array(2, 2).tolist() == [[1, 2], [2, 1], [2, 2]]
    assert len(helpers.shell_array(3, 3)) == 3**3 - 2**3


def test_power_estimate_recovers_decay_exponent():
    est = _power_estimate([n**-2.0 for n in range(1, 101)])
    assert abs(est - 2.0) <= 0.1


def test_fit_tail_power_law():
    shells = [n**-3.0 for n in range(1, 121)]
    true_tail = helpers.apery_zeta3() - sum(shells)
    corr, unc, fitted = fit_tail(shells, w=3.0)
    assert fitted
    assert abs(corr - true_tail) <= 1e-8
    assert abs(corr - true_tail) <= unc
    # the exponent estimate alone is good enough to reproduce the fit
    corr2, unc2, fitted2 = fit_tail(shells, w=_power_estimate(shells))
    assert fitted2
    assert abs(corr2 - true_tail) <= unc2


def test_fit_tail_refuses_untrustworthy_shapes():
    oscillating = [(-1) ** n / n**2 for n in range(1, 61)]
    assert fit_tail(oscillating, w=2.0, band=0.7) == (0j, 0.7, False)
    assert fit_tail([1.0] * 5, w=2.0, band=0.3) == (0j, 0.3, False)
    slow = [1.0 / n for n in range(1, 61)]
    assert fit_tail(slow, w=1.0, band=0.2) == (0j, 0.2, False)
    assert fit_tail([0.0] * 30, w=None) == (0j, 0.0, True)


def test_term_sign_flips_with_subset():
    assert term_sign(MT, model.subset_context(MT, (1,))) == 1
    assert term_sign(MT, model.subset_context(MT, (1, 2))) == -1
    assert term_sign(NULL, model.subset_context(NULL, (2,))) == 1


def test_term_for_full_subset_is_exact():
    t = term_T(MT, (1, 2), M_outer=1)
    assert t.exact
    assert t.J == (1, 2) and t.I == (1,)
    assert t.sign == -1
    assert t.rho == (1, 2)
    assert t.refined.uncertainty == 0.0
    assert t.value == 0


def test_reduced_side_reproduces_frozen_values():
    got = rhs_total(MT, 300)
    assert tuple(t.J for t in got.terms) == ((1,), (2,), (1, 2))
    z3 = helpers.apery_zeta3()
    for t, want in zip(got.terms, (2 * z3, 2 * z3, 0.0)):
        assert abs(t.value - want) <= 1e-9
    assert got.tails_total >= 0.0
    assert abs(got.total - 4 * z3) <= 1e-8


def test_reduced_side_cancels_for_antisymmetric_null():
    got = rhs_total(NULL, 400)
    z4 = math.pi**4 / 90
    for t, want in zip(got.terms, (2 * z4, 2 * z4, -4 * z4)):
        assert abs(t.value - want) <= 1e-6
    assert abs(got.total) <= 1e-6
    assert abs(got.total) <= got.tails_total


def test_verify_parity_symmetric_case_passes():
    report = verify_parity(MT, M=300, M_outer=300, tol=1e-3)
    assert report.verdict == "pass"
    assert report.parity_sign == 1
    assert report.parity_case == "symmetric"
    assert report.lhs_value == report.zeta_plus.value + report.zeta_minus.value
    assert report.residual <= 1e-3
    cor = report.corollary()
    assert cor["case"] == "real-part"
    assert cor["delta"] <= 1e-3


def test_verify_parity_antisymmetric_case():
    report = verify_parity(NULL, M=200, M_outer=200, tol=1e-3)
    assert report.parity_sign == -1
    assert report.parity_case == "antisymmetric"
    # real series: the odd combination vanishes identically
    assert report.lhs_value == 0
    assert report.verdict == "pass"
    assert report.corollary()["case"] == "imag-part"


def test_verify_parity_report_serializes_deterministically(capsys, tmp_path):
    path = tmp_path / "mt.json"
    path.write_text(json.dumps(model.spec_to_dict(MT)))
    argv = ["verify", "--spec", str(path), "--M", "120", "--M-outer", "120", "--tol", "1e-2",
            "--output", "json"]
    outs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    a, b = map(json.loads, outs)
    assert a == b
    text = json.dumps(a, sort_keys=True)
    assert json.loads(text) == a
    assert a["verdict"] == "pass"
    assert a["lhs"]["case"] == "symmetric"


def test_verify_parity_requires_established_convergence():
    spec = model.parse_spec({"h": [1, 1], "k": [1], "y": ["0", "0"], "A": [[1, 2]]})
    with pytest.raises(ConvergenceNotEstablished):
        verify_parity(spec, M=50, M_outer=50)
    report = verify_parity(spec, M=150, M_outer=150, tol=1e-2, assume_convergence=True)
    assert report.convergence.status == "user-asserted"
    assert report.verdict in ("pass", "inconclusive")


def test_verify_parity_residual_improves_with_depth():
    residuals = [
        verify_parity(MT, M=M, M_outer=M, tol=1e-3).residual
        for M in (500, 1000, 2000)
    ]
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[2] <= 1e-6
