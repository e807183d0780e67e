"""Acceptance gate: end-to-end checks at pinned tolerances.

Each test prints one ACCEPTANCE line (PASS/FAIL with the measured numbers)
before asserting, so a full run always shows the whole scoreboard.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import dictseries as ds
import helpers
from mdzeta import evaluator, exact, genfun, model, mpseries

SPECS = Path(__file__).resolve().parent.parent / "specs"
MT = model.parse_spec({"h": [1, 1], "k": [1], "y": ["0", "0"], "A": [[1, 1]]})
NULL = model.parse_spec({"h": [1, 1], "k": [2], "y": ["0", "0"], "A": [[1, 1]]})


def _announce(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'}  ({detail})")


def test_mt_end_to_end(capsys):
    t0 = time.monotonic()
    refined = evaluator.zeta_refined(MT, 3000)
    err = abs(refined.value - 2 * helpers.apery_zeta3())
    report = evaluator.verify_parity(MT, M=3000, M_outer=3000, tol=1e-5)
    elapsed = time.monotonic() - t0
    ok = (
        err <= 1e-4
        and report.residual < 1e-5
        and report.verdict == "pass"
        and elapsed < 60
    )
    _announce(
        capsys, 1, "mt-end-to-end", ok,
        f"value err {err:.2e}, residual {report.residual:.2e}, {elapsed:.1f}s",
    )
    assert err <= 1e-4
    assert report.residual < 1e-5
    assert report.verdict == "pass"
    assert elapsed < 60


def test_same_parity_null(capsys):
    t0 = time.monotonic()
    report = evaluator.verify_parity(NULL, M=400, M_outer=400)
    elapsed = time.monotonic() - t0
    ok = (
        report.lhs_value == 0
        and abs(report.rhs.total) <= report.rhs.tails_total
        and report.verdict == "pass"
        and elapsed < 60
    )
    _announce(
        capsys, 2, "same-parity-null", ok,
        f"lhs {abs(report.lhs_value):.1e}, |rhs| {abs(report.rhs.total):.2e} "
        f"<= tails {report.rhs.tails_total:.2e}, {elapsed:.1f}s",
    )
    assert report.lhs_value == 0
    assert abs(report.rhs.total) <= report.rhs.tails_total
    assert report.verdict == "pass"
    assert elapsed < 60


def test_closed_form_oracle(capsys):
    cases = (((1, 1), (1,)), ((2, 2), (1,)), ((1, 1, 1), (1,)), ((1, 1, 1), (2,)))
    worst = 0.0
    for h, k in cases:
        r = len(h)
        spec = model.parse_spec(
            {"h": list(h), "k": list(k), "y": ["0"] * r, "A": [[1] * r]}
        )
        J = tuple(range(1, r + 1))
        plan = genfun.GeneratingFunctionPlan(spec, J)
        got = ds.from_dense(plan.space, plan.variables, plan.evaluate())
        want = ds.mt_closed_form_G(spec, J)
        worst = max(worst, helpers.series_max_diff(got, want))
    ok = worst <= 1e-12
    _announce(
        capsys, 3, "closed-form-oracle", ok,
        f"{len(cases)} instances, worst coefficient diff {worst:.2e}",
    )
    assert worst <= 1e-12


def test_telescoping_identity(capsys):
    worst = 0.0
    for size in (2, 3, 4):
        variables = tuple(f"t{i}" for i in range(1, size + 1))
        caps = (6,) * size
        one = ds.constant(1.0, variables, caps, 6)
        lhs = ds.zero(variables, caps, 6)
        prefix = one
        for i in range(1, size + 1):
            ei = ds.exp_2pii_linear({f"t{i}": 1}, variables, caps, 6)
            lhs = ds.series_add(
                lhs, mpseries.series_mul(ds.series_sub(ei, one), prefix)
            )
            prefix = mpseries.series_mul(prefix, ei)
        rhs = ds.series_sub(
            ds.exp_2pii_linear({v: 1 for v in variables}, variables, caps, 6),
            one,
        )
        diff = ds.series_sub(lhs, rhs)
        # coefficients reach (2 pi)^6 * multinomial ~ 1.5e4, so compare each
        # against its own natural magnitude rather than absolutely
        for key, val in diff.coeffs.items():
            scale = (2 * math.pi) ** sum(key) / math.prod(
                math.factorial(a) for a in key
            )
            worst = max(worst, abs(val) / max(scale, 1.0))
    ok = worst <= 1e-12
    _announce(
        capsys, 4, "telescoping-identity", ok,
        f"families of 2..4 exponentials to degree 6, worst relative diff {worst:.2e}",
    )
    assert worst <= 1e-12


def test_bernoulli_zeta_consistency(capsys):
    det, rows = exact.dual_basis([(1,)])
    rho = exact.choose_rho(rows)
    c = helpers.fractional_part(Fraction(0), det * exact.dot(rho, rows[0]))
    expected = {
        2: math.pi**2 / 3,
        3: 0.0,
        4: math.pi**4 / 45,
        6: 2 * math.pi**6 / 945,
    }
    worst = 0.0
    for h, want in expected.items():
        beta = ds.bernoulli_factor(("t1",), (h,), h, "t1", c)
        d_value = ds.coefficient(beta, (h,)) * math.factorial(h)
        worst = max(worst, abs(-d_value / math.factorial(h) - want))
    cross = max(abs(expected[h] - helpers.two_zeta_even(h)) for h in (2, 4, 6))
    ok = worst <= 1e-10 and cross <= 1e-12
    _announce(
        capsys, 5, "bernoulli-zeta-consistency", ok,
        f"worst -D/h! err {worst:.2e}, even-value cross-check {cross:.2e}",
    )
    assert worst <= 1e-10
    assert cross <= 1e-12


def test_exact_algebra_properties(capsys):
    rng = random.Random(61803)
    gram_checks = coset_checks = 0
    all_ok = True
    for case in range(100):
        m = 2 if case % 2 == 0 else 3
        rows = [tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(m)]
        det = helpers.leibniz_det(rows)
        if det == 0:
            continue
        dual_det, dual = exact.dual_basis(rows)
        all_ok = all_ok and dual_det == det and all(
            exact.dot(rows[i], dual[j]) == (det if i == j else 0)
            for i in range(m)
            for j in range(m)
        )
        gram_checks += 1
        d = int(abs(det))
        if d > 12:
            continue
        cs = exact.coset_representatives(rows)
        member = helpers.row_lattice_membership(rows)
        classes = []
        for p in itertools.product(range(d), repeat=m):
            for c in classes:
                if member(tuple(a - b for a, b in zip(p, c))):
                    break
            else:
                classes.append(p)
        coset_checks += 1
        all_ok = all_ok and len(classes) == d == len(cs.representatives) == cs.group_order
        hits = []
        for rep in cs.representatives:
            matched = [
                ci
                for ci, c in enumerate(classes)
                if member(tuple(a - b for a, b in zip(rep, c)))
            ]
            all_ok = all_ok and len(matched) == 1
            hits.extend(matched)
        all_ok = all_ok and sorted(hits) == list(range(len(classes)))
    ok = all_ok and gram_checks >= 80 and coset_checks >= 20
    _announce(
        capsys, 6, "exact-algebra-properties", ok,
        f"{gram_checks} dual-basis Gram checks, {coset_checks} brute-force coset counts",
    )
    assert all_ok
    assert gram_checks >= 80
    assert coset_checks >= 20


def test_rho_invariance(capsys):
    runs = [evaluator.rhs_total(MT, 500, rho_variant=v) for v in range(3)]
    rhos = {run.terms[-1].rho for run in runs}
    totals = [run.total for run in runs]
    scale = max(abs(t) for t in totals)
    spread = max(abs(t - totals[0]) for t in totals)
    ok = len(rhos) == 3 and spread <= 1e-10 * scale
    _announce(
        capsys, 7, "rho-invariance", ok,
        f"directions {sorted(rhos)}, relative spread {spread / scale:.2e}",
    )
    assert len(rhos) == 3
    assert spread <= 1e-10 * scale


def test_symmetric_partial_sum_trend(capsys):
    det, rows = exact.dual_basis([(1,)])
    rho = exact.choose_rho(rows)
    c = helpers.fractional_part(Fraction(0), det * exact.dot(rho, rows[0]))
    beta = ds.bernoulli_factor(("t1",), (2,), 2, "t1", c)
    d_value = ds.coefficient(beta, (2,)) * math.factorial(2)
    limit = -d_value / math.factorial(2)  # (-1)^[one member] * D / cap!
    members = (((1,), 0),)
    gaps = [
        abs(helpers.zm_partial_sum(members, (2,), (Fraction(0),), M) - limit)
        for M in (50, 100, 200)
    ]
    ok = (
        abs(limit - math.pi**2 / 3) <= 1e-10
        and gaps[0] > gaps[1] > gaps[2]
        and gaps[2] < 2e-2
    )
    _announce(
        capsys, 8, "symmetric-partial-sum-trend", ok,
        "gaps " + " > ".join(f"{g:.2e}" for g in gaps),
    )
    assert abs(limit - math.pi**2 / 3) <= 1e-10
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 2e-2


def test_twisted_self_check(capsys):
    spec = model.load_spec(str(SPECS / "mt_r2_twisted.json"))
    report = evaluator.verify_parity(spec, M=2000, M_outer=2000)
    ok = report.residual <= report.tails_total and report.verdict == "pass"
    _announce(
        capsys, 9, "twisted-self-check", ok,
        f"residual {report.residual:.2e} <= tails {report.tails_total:.2e}",
    )
    assert report.residual <= report.tails_total
    assert report.verdict == "pass"
