"""Plan tables: dense construction against the dict reference, no series
algebra on the plan path, and coset phases evaluated only where they are read."""

import itertools
import json
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from mdzeta import cli, genfun, model, mpseries
from mdzeta.phase import unit_phase

SPECS = Path(__file__).resolve().parent.parent / "specs"
TWISTS = ("0", "1/2", "1/3", "1/4")
# The dense tables sum products in another order than the dict reference.
TABLE_RTOL = 1e-14


@st.composite
def instances(draw):
    """r <= 3, 1..2 forms, A entries in 0..2 (index-2 cosets), no zero row or column."""
    r = draw(st.integers(1, 3))
    ell = draw(st.integers(1, 2))
    A = [[draw(st.integers(0, 2)) for _ in range(r)] for _ in range(ell)]
    for i in range(ell):
        A[i][draw(st.integers(0, r - 1))] = draw(st.integers(1, 2))
    for j in range(r):
        if not any(row[j] for row in A):
            A[draw(st.integers(0, ell - 1))][j] = draw(st.integers(1, 2))
    return model.parse_spec({
        "h": [draw(st.integers(1, 2)) for _ in range(r)],
        "k": [draw(st.integers(1, 2)) for _ in range(ell)],
        "y": [draw(st.sampled_from(TWISTS)) for _ in range(r)],
        "A": A,
    })


def _outer_tuples(plan, size):
    rows = list(itertools.product(range(1, size + 1), repeat=len(plan.ctx.Jbar)))
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(plan.ctx.Jbar))


def _patterns(plan, tuples):
    """The regular pattern and every singular pattern the tuples reach."""
    vanishing = np.unique((tuples @ plan._d_rows) == 0, axis=0)
    return {frozenset()} | {frozenset(np.flatnonzero(row).tolist()) for row in vanishing}


def _assert_rows_close(got, want):
    assert got.shape == want.shape
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w), initial=0.0) <= TABLE_RTOL * np.max(np.abs(w), initial=0.0)


def _check_tables(plan, pattern):
    tables = plan._tables(pattern)
    space, bprods, geometric, forms = helpers.reference_tables(plan, pattern)
    assert tables.space is space and tables.forms == forms
    assert np.array_equal(tables.narrow, space.locate(plan.space.keys))
    assert len(tables.bases) == len(bprods) == len(plan.bases)
    T = plan.total_cap
    for b, (pairs, exponents, rows), bprod, factors in zip(
        plan.bases, tables.bases, bprods, geometric
    ):
        # the basis's pair indices, exact
        assert pairs.tolist() == [k for k, _, _ in factors]
        # one monomial per exponent tuple e >= 1 of total at most T
        assert sorted(map(tuple, exponents.tolist())) == [
            e for e in itertools.product(range(1, T + 1), repeat=len(factors)) if sum(e) <= T
        ]
        # the rows: the reference's Bernoulli rows over |det|, L_g weights
        # and t_g keys, expanded
        want_exponents, want_rows = genfun._expand_geometric(
            space, bprod.T / b.den, [(weights, unit) for _, weights, unit in factors], T
        )
        assert np.array_equal(exponents, want_exponents)
        _assert_rows_close(rows, want_rows.T)


@given(instances())
def test_dense_tables_match_the_dict_reference(spec):
    for J in model.nonempty_subsets(spec.r):
        plan = genfun.GeneratingFunctionPlan(spec, J)
        for pattern in _patterns(plan, _outer_tuples(plan, 4)):
            _check_tables(plan, pattern)


def test_dense_tables_cover_singular_patterns_and_index_two_cosets():
    # the draws above can reach both; this pins one instance that does
    spec = model.parse_spec({"h": [1, 2], "k": [1, 2], "y": ["1/2", "0"], "A": [[2, 1], [1, 1]]})
    orders, singular = set(), 0
    for J in model.nonempty_subsets(spec.r):
        plan = genfun.GeneratingFunctionPlan(spec, J)
        orders.update(b.den for b in plan.bases)
        for pattern in _patterns(plan, _outer_tuples(plan, 4)):
            singular += bool(pattern)
            _check_tables(plan, pattern)
    assert 2 in orders and singular


@given(instances())
def test_plan_exact_data_match_the_fraction_reference(spec):
    for J in model.nonempty_subsets(spec.r):
        plan = genfun.GeneratingFunctionPlan(spec, J)
        ref = helpers.reference_plan_data(plan)
        assert tuple(b.members for b in plan.bases) == ref["bases"]
        assert plan.rho == ref["rho"][0]
        for b, (fracs, per_g, phase_forms) in zip(plan.bases, ref["per_basis"]):
            assert [tuple(Fraction(r, b.fden) for r in rs) for rs in b.residues] == fracs
            assert [g for _, g, _ in b.complement] == list(per_g)
            for k, gpos, row in b.complement:
                weights, normal, d_form = per_g[gpos]
                assert tuple(Fraction(c, b.den) for c in row) == weights
                assert genfun._normalize_linear(row, b.den) == normal
                assert tuple(Fraction(int(c), b.den) for c in plan._d_rows[:, k]) == d_form
            # the phase forms' coefficients, kept mod q
            assert [tuple(Fraction(int(c), b.q) for c in col) for col in b.coef.T] == [
                tuple(c % 1 for c in form) for form in phase_forms
            ]


def _check_against_full_simplex(plan, size):
    # the cut space is exact: G at every reached pattern is the full
    # simplex's, row by row, to rounding
    tuples = _outer_tuples(plan, size)
    got = plan.evaluate_batch(tuples)
    want = helpers.full_simplex_batch(plan, tuples)
    assert got.shape == want.shape
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w), initial=0.0) <= 1e-14 * np.max(np.abs(w), initial=0.0)


def _check_against_horner(plan, size):
    # every pattern reached: the compiled numerator against the Horner
    # reference, unzeroed, within 1e-13 of the row's largest sum over bases
    # of |basis term| (the magnitude _ROUNDINGS reads).  Not per key: where
    # every Horner basis term is an exact 0, the compiled monomials can
    # leave rounding of their own (1e-17 against terms of 2.6 on
    # h = [1,1,1], k = [1,1], A = [[2,0,1],[0,1,0]], J = {1,2})
    tuples = _outer_tuples(plan, size)
    dnum = tuples @ plan._d_rows
    patterns, inverse = genfun.group_rows(dnum == 0)
    with mock.patch.object(genfun, "_CANCELLED", 0.0):
        for p, flags in enumerate(patterns):
            rows = np.flatnonzero(inverse == p)
            pattern = frozenset(np.flatnonzero(flags).tolist())
            got = plan._numerator(plan._tables(pattern), tuples[rows], dnum[rows])[0]
            want, magnitude = helpers.horner_numerator(plan, pattern, tuples[rows], dnum[rows])
            assert np.all(np.abs(got - want) <= 1e-13 * magnitude.max(axis=1, keepdims=True))


@pytest.mark.parametrize("path", sorted(SPECS.glob("*.json")), ids=lambda p: p.stem)
def test_compiled_numerator_matches_the_horner_reference_on_bundled_specs(path):
    spec = model.load_spec(str(path))
    for J in model.nonempty_subsets(spec.r):
        _check_against_horner(genfun.GeneratingFunctionPlan(spec, J), 8)


@given(instances())
def test_compiled_numerator_matches_the_horner_reference(spec):
    for J in model.nonempty_subsets(spec.r):
        _check_against_horner(genfun.GeneratingFunctionPlan(spec, J), 8)


@pytest.mark.parametrize("path", sorted(SPECS.glob("*.json")), ids=lambda p: p.stem)
def test_cut_space_matches_the_full_simplex_on_bundled_specs(path):
    spec = model.load_spec(str(path))
    for J in model.nonempty_subsets(spec.r):
        _check_against_full_simplex(genfun.GeneratingFunctionPlan(spec, J), 8)


@given(instances())
def test_cut_space_matches_the_full_simplex(spec):
    for J in model.nonempty_subsets(spec.r):
        _check_against_full_simplex(genfun.GeneratingFunctionPlan(spec, J), 8)


def test_singular_spaces_widen_only_the_pivots():
    # root_a2: J = {1} divides by t1 - t4 (pivot t1), J = {1, 2} by forms
    # pivoting on t1, t2 and t3; t4 and t5 keep their plan caps of 1
    spec = model.load_spec(str(SPECS / "root_a2.json"))
    for J, caps, size in (((1,), (4, 1, 1), 16), ((1, 2), (11, 11, 11, 1, 1), 1156)):
        plan = genfun.GeneratingFunctionPlan(spec, J)
        tuples = _outer_tuples(plan, 8)
        (pattern,) = _patterns(plan, tuples) - {frozenset()}
        space = plan._tables(pattern).space
        assert (space.caps, space.size) == (caps, size)


def test_untwisted_phases_skip_unit_phase_and_unique(monkeypatch):
    spec = model.load_spec(str(SPECS / "mt_r3.json"))
    plan = genfun.GeneratingFunctionPlan(spec, (1,))
    assert all(b.q == 1 for b in plan.bases)
    def no_lookup(*args, **kwargs):
        raise AssertionError("q = 1 phases looked up")

    monkeypatch.setattr(genfun, "unit_phase", no_lookup)
    monkeypatch.setattr(np, "unique", no_lookup)
    tuples = _outer_tuples(plan, 5)
    for b in plan.bases:
        phases = plan._phases(b, tuples)
        assert phases.dtype == complex and phases.shape == (len(tuples), b.coef.shape[1])
        assert phases.tobytes() == np.full(phases.shape, 1 + 0j).tobytes()


def _refuse(*args, **kwargs):
    raise AssertionError("dict series algebra on the plan path")


@pytest.mark.parametrize("path", sorted(SPECS.glob("*.json")), ids=lambda p: p.stem)
def test_plans_make_no_dict_series_calls(monkeypatch, path):
    # series_mul is the one dict series operation left in the library
    spec = model.load_spec(str(path))
    monkeypatch.setattr(mpseries, "series_mul", _refuse)
    for J in model.nonempty_subsets(spec.r):
        plan = genfun.GeneratingFunctionPlan(spec, J)
        tuples = _outer_tuples(plan, 5)
        batch = plan.evaluate_batch(tuples)
        assert batch.shape == (len(tuples), plan.space.size)
        assert np.all(np.isfinite(batch))


def _counting_unit_phase(monkeypatch):
    calls = []

    def counted(theta):
        calls.append(theta)
        return unit_phase(theta)

    monkeypatch.setattr(genfun, "unit_phase", counted)
    return calls


@pytest.mark.parametrize(
    "data",
    [
        {"h": [2, 2], "k": [2], "y": ["1/2", "0"], "A": [[1, 1]]},
        {"h": [1, 2], "k": [1, 2], "y": ["1/3", "1/4"], "A": [[2, 1], [1, 1]]},
        {"h": [1, 1, 1], "k": [2], "y": ["2/5", "0", "1/6"], "A": [[1, 2, 1]]},
    ],
)
def test_coset_phases_are_the_phase_table_read_by_residue(monkeypatch, data):
    spec = model.parse_spec(data)
    calls = _counting_unit_phase(monkeypatch)
    for J in model.nonempty_subsets(spec.r):
        plan = genfun.GeneratingFunctionPlan(spec, J)
        tuples = _outer_tuples(plan, 7)
        for b in plan.bases:
            want = np.array(helpers.phase_table(b.q), dtype=complex)[(tuples @ b.coef) % b.q]
            got = plan._phases(b, tuples)
            assert got.tobytes() == want.tobytes()  # bitwise, zero signs included
            # a second read of the same residues evaluates nothing new
            before = len(calls)
            assert plan._phases(b, tuples[::-1]).tobytes() == want[::-1].tobytes()
            assert len(calls) == before
    assert calls


def test_large_coset_denominator_evaluates_only_the_phases_it_reads(
    monkeypatch, tmp_path, capsys
):
    # q = 10^6 for the coset phases: a full table would hold a million roots
    data = {"h": [2, 2], "k": [2], "y": ["0.123457", "0"], "A": [[1, 1]]}
    path = tmp_path / "big_q.json"
    path.write_text(json.dumps(data))
    spec = model.parse_spec(data)
    M_outer = 10
    bound = 0
    for J in model.nonempty_subsets(spec.r):
        plan = genfun.GeneratingFunctionPlan(spec, J)
        assert max(b.q for b in plan.bases) <= 10**6
        reps = sum(len(b.residues) for b in plan.bases)
        bound += M_outer ** len(plan.ctx.Jbar) * reps
    calls = _counting_unit_phase(monkeypatch)
    code = cli.main([
        "verify", "--spec", str(path), "--M", "10", "--M-outer", str(M_outer),
        "--output", "json",
    ])
    assert code in (0, 1, 3) and json.loads(capsys.readouterr().out)["verdict"]
    assert 0 < len(calls) <= bound
    assert max(Fraction(t).denominator for t in calls) == 10**6
