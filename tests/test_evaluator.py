"""Direct summation, tail fitting, reduced-side terms, and verification."""

import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from mdzeta import cli, evaluator, model
from mdzeta.evaluator import (
    _power_estimate,
    fit_tail,
    rhs_total,
    term_T,
    term_sign,
    verify_parity,
    zeta_direct,
    zeta_refined,
)
from mdzeta.genfun import GeneratingFunctionPlan
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


def test_term_needs_an_outer_box():
    with pytest.raises(ValueError, match="M_outer must be >= 1"):
        term_T(GeneratingFunctionPlan(MT, (1,)), M_outer=0)


def test_term_for_full_subset_is_exact():
    t = term_T(GeneratingFunctionPlan(MT, (1, 2)), M_outer=1)
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


def test_verify_parity_runs_a_spec_beyond_the_classical_shapes():
    # A = [[1, 2]] converges absolutely, as every valid spec does
    spec = model.parse_spec({"h": [1, 1], "k": [1], "y": ["0", "0"], "A": [[1, 2]]})
    report = verify_parity(spec, M=150, M_outer=150, tol=1e-2)
    assert report.verdict in ("pass", "inconclusive")


def test_verify_parity_residual_improves_with_depth():
    residuals = [
        verify_parity(MT, M=M, M_outer=M, tol=1e-3).residual
        for M in (500, 1000, 2000)
    ]
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[2] <= 1e-6


# --------------------------------------------- one evaluation per subset class


def _spec(h, k, A, y=None):
    return model.parse_spec({"h": h, "k": k, "y": y or ["0"] * len(h), "A": A})


A2 = [[1, 0], [0, 1], [1, 1]]
A3 = [[1, 1, 0], [0, 1, 1], [1, 1, 1]]
# spec and outer box; the last two have no two subsets in one class
SHARING = {
    "mt_r2": (MT, 40),
    "mt_r2_null": (NULL, 40),
    "mt_r3": (_spec([1, 1, 1], [2], [[1, 1, 1]]), 20),
    "mt_r3_twisted": (_spec([1, 1, 1], [2], [[1, 1, 1]], ["1/3"] * 3), 20),
    "mt_r4": (_spec([1, 1, 1, 1], [3], [[1, 1, 1, 1]]), 8),
    "root_a2": (_spec([1, 1], [1, 1, 1], A2), 40),
    "a2_twisted": (_spec([2, 2], [2, 2, 2], A2, ["1/4", "1/4"]), 40),
    "a3": (_spec([1, 1, 1], [1, 1, 1], A3), 20),
    "mt_r2_twisted": (_spec([2, 2], [2], [[1, 1]], ["1/2", "0"]), 40),
    "b2": (_spec([1, 1], [1, 1], [[1, 1], [1, 2]]), 40),
}


def _check_shared_terms(spec, M_outer, rtol=1e-12, own_scale=False):
    """Every term of rhs_total against term_T of its own J: the same J, I,
    sign, rho and exact flag; value, uncertainty and unit_D within rtol of
    the largest |T_J|, or with own_scale unit_D within rtol of the largest
    |unit_D| (a shared term sums the outer box in another order)."""
    rhs = rhs_total(spec, M_outer)
    own = [term_T(GeneratingFunctionPlan(spec, J), M_outer) for J in model.nonempty_subsets(spec.r)]
    assert [t.J for t in rhs.terms] == [t.J for t in own]
    scale = max(abs(t.value) for t in own)
    unit_scale = max(abs(t.unit_D) for t in own) if own_scale else scale
    for shared, alone in zip(rhs.terms, own):
        assert (shared.J, shared.I, shared.sign, shared.rho, shared.exact) == (
            alone.J, alone.I, alone.sign, alone.rho, alone.exact
        )
        assert abs(shared.value - alone.value) <= rtol * scale
        assert abs(shared.refined.uncertainty - alone.refined.uncertainty) <= rtol * scale
        assert abs(shared.unit_D - alone.unit_D) <= rtol * unit_scale


@pytest.mark.parametrize("name", sorted(SHARING))
def test_shared_terms_match_their_own_evaluation(name):
    _check_shared_terms(*SHARING[name])


@st.composite
def symmetric_instances(draw):
    """r <= 3 data fixed by a permutation of the variables: h and y constant
    on its orbits, and A the union of the orbits of a drawn form and, at
    r = 2, of a form fixed by the swap.  Three forms at most, and k = 1 at
    r = 3, keep the plans small."""
    r = draw(st.integers(2, 3))
    perm = (1, 0) if r == 2 else draw(st.sampled_from([(1, 0, 2), (1, 2, 0)]))
    orbit = list(range(r))  # the least variable of each orbit
    for _ in range(r):
        orbit = [min(o, orbit[perm[j]]) for j, o in enumerate(orbit)]
    h = {o: draw(st.integers(1, 2)) for o in sorted(set(orbit))}
    y = {o: draw(st.sampled_from(["0", "1/2", "1/3"])) for o in sorted(set(orbit))}
    base = [[draw(st.integers(0, 2)) for _ in range(r)]]
    if r == 2 and draw(st.booleans()):
        base.append([draw(st.integers(1, 2))] * 2)
    for row in base:
        row[0] = row[0] or int(not any(row))
    for j in range(r):
        if not any(row[jj] for row in base for jj in range(r) if orbit[jj] == orbit[j]):
            base[0][j] = 1
    A, k = [], []
    for row in base:
        kind = draw(st.integers(1, 4 - r))
        for _ in range(r):
            if row not in A:
                A.append(row)
                k.append(kind)
            row = [row[perm.index(j)] for j in range(r)]
    return _spec([h[o] for o in orbit], k, A, [y[o] for o in orbit])


def test_equal_terms_agree_to_their_own_rounding():
    # the three pair terms of this cyclic spec are equal; term_T reads them
    # 2.2e-12 apart (relative), the G assembly's rounding for an r = 3,
    # three-form spec, whichever member is summed
    spec = _spec([2, 2, 2], [2, 2, 2], [[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    values = [term_T(GeneratingFunctionPlan(spec, J), 6).value for J in ((1, 2), (1, 3), (2, 3))]
    assert max(abs(a - b) for a in values for b in values) <= 1e-11 * abs(values[0])


@given(symmetric_instances())
def test_shared_terms_match_on_symmetric_instances(spec):
    if spec.r == 2:  # the swap fixes the data, and J = {1}, {2} differ by it
        assert model.subset_classes(spec)[0] == ((1,), (2,))
    # well above the rounding that independent evaluations of equal terms
    # show, and far below what sharing a term of other data would give
    _check_shared_terms(spec, 6, rtol=1e-9, own_scale=True)


@pytest.mark.parametrize("name", ["mt_r3", "mt_r4", "root_a2", "a3", "mt_r2_twisted"])
def test_verify_parity_evaluates_each_class_once(monkeypatch, name):
    spec, M_outer = SHARING[name]
    calls = []

    def counted(plan, *args, **kwargs):
        calls.append(plan.ctx.J)
        return term_T(plan, *args, **kwargs)

    monkeypatch.setattr(evaluator, "term_T", counted)
    report = verify_parity(spec, M=8, M_outer=M_outer, tol=1.0)
    assert len(report.rhs.terms) == 2**spec.r - 1
    assert calls == [members[0] for members in model.subset_classes(spec)]
