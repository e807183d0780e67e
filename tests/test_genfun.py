"""Generating-function layer: the family Lambda, bases, G, D, and box sums."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import dictseries as ds
import helpers
from mdzeta import evaluator, exact, genfun, model
from mdzeta.genfun import _normalize_linear
from mdzeta.mpseries import SingularConfiguration

MT = model.parse_spec({"h": [1, 1], "k": [1], "y": ["0", "0"], "A": [[1, 1]]})
SPECS = Path(__file__).resolve().parent.parent / "specs"


def test_build_lambda_full_subset():
    ctx = model.subset_context(MT, (1, 2))
    assert genfun.build_lambda(MT, ctx) == ((1, 0), (0, 1), (1, 1))
    assert helpers.frozen_family(MT, ctx, {}) == (((1, 0), 0), ((0, 1), 0), ((1, 1), 0))


def test_build_lambda_freezes_outer_variables():
    ctx = model.subset_context(MT, (1,))
    # the form coincides with e_1 on J and stays a member of its own
    assert genfun.build_lambda(MT, ctx) == ((1,), (1,))
    assert helpers.frozen_family(MT, ctx, {2: 5}) == (((1,), 0), ((1,), -5))


def test_build_lambda_drops_forms_outside_subset():
    spec = model.parse_spec(
        {"h": [1, 1], "k": [1, 1], "y": ["0", "0"], "A": [[1, 0], [0, 1]]}
    )
    ctx = model.subset_context(spec, (1,))
    assert ctx.I == (1,)
    # row 2 has no support on J = {1}; only m_1 and form 1 survive
    assert genfun.build_lambda(spec, ctx) == ((1,), (1,))
    assert genfun.GeneratingFunctionPlan(spec, (1,)).variables == ("t1", "t3")
    assert helpers.frozen_family(spec, ctx, {2: 3})[1] == ((1,), 0)


def test_evaluate_outer_tuple_must_cover_complement():
    plan = genfun.GeneratingFunctionPlan(MT, (1,))
    with pytest.raises(exact.ExactError):
        plan.evaluate({})
    with pytest.raises(exact.ExactError):
        plan.evaluate({1: 1, 2: 2})


def test_enumerate_bases_lists_independent_tuples_lex():
    assert tuple(genfun.enumerate_bases(((1, 0), (0, 1), (1, 1)))) == (
        (0, 1),
        (0, 2),
        (1, 2),
    )
    # parallel vectors never form a basis together
    bases = genfun.enumerate_bases(((1, 0), (0, 1), (2, 0)))
    assert tuple(bases) == ((0, 1), (1, 2))
    # each basis carries its integer dual over its determinant
    assert bases[1, 2] == exact.dual_basis([(0, 1), (2, 0)]) == (-2, ((0, -2), (-1, 0)))
    assert tuple(genfun.enumerate_bases(((1,), (1,)))) == ((0,), (1,))


def test_enumerate_bases_requires_spanning_family():
    with pytest.raises(exact.RankDeficient):
        genfun.enumerate_bases(((1, 1), (2, 2)))


def test_normalize_linear_examples():
    # (-2/3, 0, 4/3) as integer rows over 3 and over 6
    for row, den in (((-2, 0, 4), 3), ((-4, 0, 8), 6)):
        prim, scale = _normalize_linear(row, den)
        assert prim == (1, 0, -2)
        assert scale == Fraction(-2, 3)
    prim, scale = _normalize_linear((0, 5), 1)
    assert (prim, scale) == ((0, 1), 5)


@given(
    st.lists(st.integers(-12, 12), min_size=1, max_size=3).filter(any),
    st.integers(1, 6),
)
def test_normalize_linear_recombines_exactly(row, den):
    prim, scale = _normalize_linear(tuple(row), den)
    assert math.gcd(*(abs(c) for c in prim)) == 1
    assert next(c for c in prim if c != 0) > 0
    for c, want in zip(prim, row):
        assert c * scale == Fraction(want, den)


def _series(plan, m_outer=None):
    return ds.from_dense(plan.space, plan.variables, plan.evaluate(m_outer))


def test_plan_matches_closed_form_on_regular_path():
    plan = genfun.GeneratingFunctionPlan(MT, (1,))
    for m2 in (1, 2, 5):
        oracle = ds.mt_closed_form_G(MT, (1,), {2: m2})
        assert helpers.series_max_diff(_series(plan, {2: m2}), oracle) <= 1e-12


def test_plan_matches_closed_form_on_singular_path():
    series = _series(genfun.GeneratingFunctionPlan(MT, (1, 2)))
    oracle = ds.mt_closed_form_G(MT, (1, 2))
    assert helpers.series_max_diff(series, oracle) <= 1e-12


def test_assembly_fields_cohere():
    plan = genfun.GeneratingFunctionPlan(MT, (1,))
    assert plan.variables == ("t1", "t3")
    assert plan.caps == (1, 1)
    assert (plan.space.caps, plan.space.total_cap) == (plan.caps, 2)
    assert plan.evaluate({2: 2}).shape == (plan.space.size,)
    assert tuple(plan.space.keys[plan.top]) == plan.caps
    assert tuple(b.members for b in plan.bases) == ((0,), (1,))
    assert plan.rho == (1,)
    ctx = model.subset_context(MT, (1,))
    assert plan.vecs == genfun.build_lambda(MT, ctx)


def test_unit_d_reads_top_coefficient_times_factorials():
    # non-unimodular form: the value is averaged over two cosets
    spec = model.parse_spec({"h": [2], "k": [2], "y": ["0"], "A": [[2]]})
    plan = genfun.GeneratingFunctionPlan(spec, (1,))
    raw = plan.evaluate()[plan.top]
    assert evaluator.term_T(plan, M_outer=1).unit_D == raw * 4
    assert abs(raw - math.pi**4 / 180) <= 1e-12


def test_rho_variants_give_identical_series():
    spec = model.parse_spec(
        {"h": [1, 1], "k": [1, 1, 1], "y": ["0", "0"], "A": [[1, 0], [0, 1], [1, 1]]}
    )
    # the negated first rung moves each boundary point across
    coords, residues, series = [], [], []
    for rung, flip in ((0, False), (1, False), (2, False), (0, True)):
        with helpers.certified_rung(rung, flip):
            plan = genfun.GeneratingFunctionPlan(spec, (1, 2))
        coords.append(plan.rho)
        residues.append([b.residues for b in plan.bases])
        series.append(_series(plan))
    assert len(set(coords)) == 4
    assert residues[0] != residues[3]
    assert ds.max_abs(series[0]) > 1
    for other in series[1:]:
        assert helpers.series_max_diff(series[0], other) <= 1e-10


def test_zm_partial_sum_skips_zeros_of_members():
    members = (((1,), 0),)
    assert helpers.zm_partial_sum(members, (2,), (Fraction(0),), 1) == 2.0
    with pytest.raises(exact.ExactError):
        helpers.zm_partial_sum(members, (2, 2), (Fraction(0),), 1)


def test_zm_partial_sum_applies_the_twist():
    members = (((1,), 0),)
    zm = helpers.zm_partial_sum(members, (2,), (Fraction(1, 2),), 200)
    assert abs(zm - (-math.pi**2 / 6)) < 1e-3


def test_zm_partial_sum_approaches_top_coefficient():
    plan = genfun.GeneratingFunctionPlan(MT, (1,))
    raw = plan.evaluate({2: 5})[plan.top]
    members = helpers.frozen_family(MT, plan.ctx, {2: 5})
    gaps = [
        abs(helpers.zm_partial_sum(members, (1, 1), (Fraction(0),), M) - raw)
        for M in (100, 400)
    ]
    assert gaps[1] < gaps[0]
    assert gaps[1] < 1e-2


@pytest.mark.parametrize("data", [
    {"h": [1, 1], "k": [1, 1, 1], "y": ["0", "0"], "A": [[1, 0], [0, 1], [1, 1]]},
    {"h": [1, 2, 1], "k": [2, 1], "y": ["0", "1/2", "1/3"], "A": [[1, 1, 1], [2, 0, 1]]},
])
def test_plan_makes_one_dual_basis_call_per_subset(monkeypatch, data):
    # enumerate_bases computes every dual; the cosets and rho only reuse them
    spec = model.parse_spec(data)
    calls, inside = [], []
    dual_basis = exact.dual_basis

    def counted(vectors):
        calls.append(vectors)
        return dual_basis(vectors)

    def watched(fn):
        def wrapper(*args, **kwargs):
            before = len(calls)
            out = fn(*args, **kwargs)
            inside.append(len(calls) - before)
            return out

        return wrapper

    monkeypatch.setattr(exact, "dual_basis", counted)
    monkeypatch.setattr(exact, "coset_representatives", watched(exact.coset_representatives))
    monkeypatch.setattr(exact, "choose_rho", watched(exact.choose_rho))
    for J in model.nonempty_subsets(spec.r):
        calls.clear()
        plan = genfun.GeneratingFunctionPlan(spec, J)
        assert len(calls) == math.comb(len(plan.vecs), len(plan.ctx.J))
    assert inside and not any(inside)


def test_large_determinant_plan_enumerates_its_box_of_cosets():
    # 100 000 coset representatives over three bases of determinants 1,
    # 49999 and -50000
    spec = model.parse_spec({"h": [1, 1], "k": [1], "y": ["1/3", "0"], "A": [[50000, 49999]]})
    plan = genfun.GeneratingFunctionPlan(spec, (1, 2))
    assert [b.den for b in plan.bases] == [1, 49999, 50000]
    assert [len(b.residues) for b in plan.bases] == [1, 49999, 50000]
    # its top coefficient takes about 40 s of exact Bernoulli values (and half
    # a gigabyte of their memo) to assemble, so the value is pinned on the
    # same family at a hundredth of the size
    spec = model.parse_spec({"h": [1, 1], "k": [1], "y": ["1/3", "0"], "A": [[500, 499]]})
    plan = genfun.GeneratingFunctionPlan(spec, (1, 2))
    assert [b.den for b in plan.bases] == [1, 499, 500]
    top = plan.evaluate_batch(np.zeros((1, 0), dtype=np.int64))[0, plan.top]
    assert abs(top - 1.5250371987810347j) <= 1e-12 * 1.5250371987810347


@st.composite
def steep_instances(draw):
    """h, k in 1..3, twists in {0, 1/2, 1/3, 1/4}, and A = [[1, e]] (half the
    draws) or a 1x2 or 2x2 A with entries up to 200, zeros favoured."""
    if draw(st.booleans()):
        A = [[1, draw(st.integers(1, 200))]]
    else:
        entries = st.one_of(st.just(0), st.integers(0, 200))
        A = [[draw(entries) for _ in range(2)] for _ in range(draw(st.integers(1, 2)))]
        assume(all(any(row) for row in A) and all(any(col) for col in zip(*A)))
    return model.parse_spec({
        "h": [draw(st.integers(1, 3)) for _ in range(2)],
        "k": [draw(st.integers(1, 3)) for _ in A],
        "y": [draw(st.sampled_from(("0", "1/2", "1/3", "1/4"))) for _ in range(2)],
        "A": A,
    })


@given(steep_instances())
def test_singular_path_on_steep_forms(spec):
    # J = {1, 2} divides by forms with a weight of up to 200 (and J = {1} or
    # {2} too when a form misses the other variable).  On A = [[1, e]] every
    # pole cancels; elsewhere the singular path may still refuse (for
    # h = [3, 3], k = [1, 3], A = [[188, 1], [2, 0]], J = {1} the numerator's
    # terms cancel past float precision; test_cli pins that refusal).
    # Subsets of more than 2000 coset representatives are skipped for time.
    family = len(spec.A) == 1 and spec.A[0][0] == 1
    tuples = np.array([[1], [2], [3]], dtype=np.int64)
    for J in model.nonempty_subsets(spec.r):
        if genfun.GeneratingFunctionPlan(spec, J).coset_count > 2000:
            continue
        tops = []
        for rung in (0, 1):
            with helpers.certified_rung(rung):
                plan = genfun.GeneratingFunctionPlan(spec, J)
            try:
                tops.append(plan.evaluate_batch(tuples[:, :len(plan.ctx.Jbar)])[:, plan.top])
            except SingularConfiguration:
                assert not family
                break
        if len(tops) == 2:
            assert np.all(np.abs(tops[0] - tops[1]) <= 1e-12 * np.abs(tops[0]))


@pytest.mark.parametrize("path", sorted(SPECS.glob("*.json")), ids=lambda p: p.stem)
def test_top_is_the_caps_key_of_every_bundled_plan(path):
    # total_cap is the sum of the caps, so the caps key is the space's last
    spec = model.load_spec(str(path))
    for J in model.nonempty_subsets(spec.r):
        plan = genfun.GeneratingFunctionPlan(spec, J)
        assert tuple(plan.space.keys[plan.top]) == plan.caps
        assert plan.top == int(plan.space.locate([plan.caps])[0])
