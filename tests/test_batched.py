"""The batched reduced side: dense series batches, evaluate_batch, outer blocks."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdzeta import evaluator, exact, genfun, model, mpseries
from mdzeta.mpseries import SingularConfiguration, dense_space, divide_linear, series_mul

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_top_coefficients.json"
SPECS = Path(__file__).resolve().parent.parent / "specs"

@st.composite
def spaces(draw, full_simplex=False):
    """(variables, caps, total_cap) with 1..3 variables."""
    nvars = draw(st.integers(1, 3))
    if full_simplex:
        total = draw(st.integers(1, 4))
        caps = (total,) * nvars
    else:
        caps = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        total = draw(st.integers(0, sum(caps)))
    return tuple("abc"[:nvars]), caps, total


def _batch(draw, space, rows):
    """Random coefficients, about a third of them zero, from a drawn seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rows, space.size)
    values = rng.uniform(-2, 2, shape) + 1j * rng.uniform(-2, 2, shape)
    return values * (rng.random(shape) < 0.7)


@given(st.data())
def test_batched_product_matches_series_mul(data):
    variables, caps, total = data.draw(spaces())
    space = dense_space(caps, total)
    rows = data.draw(st.integers(1, 3))
    a, b = _batch(data.draw, space, rows), _batch(data.draw, space, rows)
    got = space.mul(a, b)
    for r in range(rows):
        want = series_mul(space.series(variables, a[r]), space.series(variables, b[r]))
        assert np.max(np.abs(got[r] - space.dense(want)), initial=0.0) <= 1e-12


@given(st.data())
def test_batched_division_matches_divide_linear(data):
    variables, caps, total = data.draw(spaces(full_simplex=True))
    space = dense_space(caps, total)
    form = data.draw(
        st.tuples(*[st.integers(-3, 3)] * len(variables)).filter(lambda t: any(t))
    )
    # a batch as large as the space goes through the cached division maps,
    # a smaller one row by row
    rows = space.size if data.draw(st.booleans()) else data.draw(st.integers(1, 3))
    numer = _batch(data.draw, space, rows)
    quotient, remainder = space.divide(numer, form)
    assert quotient.shape == numer.shape and remainder.shape == (rows,)
    weights = dict(zip(variables, form))
    for r in range(rows):
        q, rem = divide_linear(space.series(variables, numer[r]), weights)
        scale = 1e-9 * (1 + np.max(np.abs(numer[r])))
        assert np.max(np.abs(quotient[r] - space.dense(q)), initial=0.0) <= scale
        assert abs(remainder[r] - rem) <= scale


def test_dense_space_is_shared_per_space():
    assert dense_space((1, 2), 3) is dense_space((1, 2), 3)
    space = dense_space((1, 2), 2)
    assert space.keys.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1]]
    assert space.locate([(1, 1), (0, 0)]).tolist() == [4, 0]
    with pytest.raises(mpseries.CapExceeded):
        space.locate([(0, 3)])
    with pytest.raises(mpseries.CapExceeded):
        space.locate([(1, 2)])


def _golden_cases():
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for case in doc["cases"]:
        spec = model.parse_spec(case["spec"])
        for term in case["terms"]:
            yield case["name"], spec, tuple(term["J"]), term["values"]


@pytest.mark.parametrize(
    "name,spec,J,values",
    list(_golden_cases()),
    ids=[f"{name}-J{''.join(map(str, J))}" for name, _, J, _ in _golden_cases()],
)
def test_top_coefficients_match_per_tuple_golden(name, spec, J, values):
    plan = genfun.GeneratingFunctionPlan(spec, J)
    tuples = np.array([v["m"] for v in values], dtype=np.int64).reshape(len(values), -1)
    got = plan.evaluate_batch(tuples)[:, plan.top]
    want = np.array([complex(float(v["re"]), float(v["im"])) for v in values])
    scale = np.max(np.abs(want))
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * abs(w)
        # an exact cancellation stays exact: noise here would reach the
        # shells and the decay fit of the outer sum
        assert w != 0 or g == 0
    # evaluate() is a batch of one
    for row, w in zip(tuples[:3], want):
        series = plan.evaluate(dict(zip(plan.ctx.Jbar, row.tolist())))
        assert abs(mpseries.coefficient(series, plan.caps) - w) <= 1e-12 * max(abs(w), scale)


@pytest.mark.parametrize("eps", [1e-9, 1e-11])
def test_small_real_coefficient_is_not_zeroed(eps):
    # mt_r2_twisted, J = {1}, m = 1: the two bases' top coefficients cancel
    # exactly.  Scaling one basis by 1 + eps leaves eps times that basis's
    # coefficient, far below the terms but far above rounding; the
    # cancellation rule must keep it.
    spec = model.load_spec(str(SPECS / "mt_r2_twisted.json"))
    tuples = np.array([[1]], dtype=np.int64)

    def top(scales):
        plan = genfun.GeneratingFunctionPlan(spec, (1,))
        plan._phase_data = [(q, c, t * s) for (q, c, t), s in zip(plan._phase_data, scales)]
        return plan.evaluate_batch(tuples)[0, plan.top]

    assert top([1, 1]) == 0
    second = top([0, 1])
    assert abs(second) > 1
    got = top([1, 1 + eps])
    assert got != 0
    assert abs(got - eps * second) <= 1e-3 * eps * abs(second)


def test_golden_covers_index_two_cosets():
    orders = set()
    for _, spec, J, _ in _golden_cases():
        plan = genfun.GeneratingFunctionPlan(spec, J)
        orders.update(c.group_order for c in plan.cosets)
    assert 2 in orders


def test_singular_batch_with_one_bad_row_raises():
    spec = model.load_spec(str(SPECS / "root_a2.json"))
    plan = genfun.GeneratingFunctionPlan(spec, (1,))
    tuples = np.array([[1], [2], [3]], dtype=np.int64)
    dnum = tuples @ plan._d_num
    pattern = frozenset(np.flatnonzero(dnum[0] == 0).tolist())
    assert pattern and all((dnum[:, sorted(pattern)] == 0).all(axis=0))
    good = plan._assemble_singular(pattern, tuples, dnum)
    assert good.shape == (3, plan.space.size)
    # a d_g off by one in a single row leaves a pole in that row only
    broken = dnum.copy()
    regular = [k for k in range(dnum.shape[1]) if k not in pattern]
    broken[1, regular[0]] += plan._d_den
    with pytest.raises(SingularConfiguration, match=r"outer tuple \{2: 2\}"):
        plan._assemble_singular(pattern, tuples, broken)


def test_pole_check_is_relative_to_each_row(monkeypatch):
    spec = model.load_spec(str(SPECS / "root_a2.json"))
    plan = genfun.GeneratingFunctionPlan(spec, (1,))
    tuples = np.array([[1], [2], [3]], dtype=np.int64)
    dnum = tuples @ plan._d_num
    pattern = frozenset(np.flatnonzero(dnum[0] == 0).tolist())
    numerator = plan._numerator

    def doctored(tables, rows, d):
        numer = numerator(tables, rows, d)
        numer[0] *= 1e6  # a large row, still divisible
        # an indivisible constant term, small only against the large row
        numer[1, 0] += 1e-6 * max(1.0, np.abs(numer[1]).max())
        return numer

    monkeypatch.setattr(plan, "_numerator", doctored)
    with pytest.raises(SingularConfiguration, match=r"outer tuple \{2: 2\}"):
        plan._assemble_singular(pattern, tuples, dnum)


def test_outer_blocks_walk_shells_in_order(monkeypatch):
    monkeypatch.setattr(evaluator, "_OUTER_BLOCK", 5)
    blocks = list(evaluator._outer_blocks(2, 4))
    assert all(len(rows) <= 5 for _, rows in blocks)
    labels = np.concatenate([lab for lab, _ in blocks])
    rows = [tuple(r) for _, block in blocks for r in block.tolist()]
    want = [t for n in range(1, 5) for t in evaluator._shell_tuples(2, n)]
    assert rows == want
    assert labels.tolist() == [max(t) for t in want]
    # the lexicographic shell order of the per-tuple loop
    assert want[:4] == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert len(list(evaluator._shell_tuples(3, 4))) == 4**3 - 3**3


def test_term_does_not_depend_on_block_size(monkeypatch):
    spec = model.load_spec(str(SPECS / "mt_r3.json"))
    default = evaluator.term_T(spec, (1,), M_outer=12)
    monkeypatch.setattr(evaluator, "_OUTER_BLOCK", 7)
    small = evaluator.term_T(spec, (1,), M_outer=12)
    assert abs(small.value - default.value) <= 1e-14 * abs(default.value)
    assert small.refined.fitted == default.refined.fitted
    assert abs(small.refined.uncertainty - default.refined.uncertainty) <= (
        1e-12 * default.refined.uncertainty
    )


def test_term_reports_unit_outer_d():
    spec = model.load_spec(str(SPECS / "root_a2.json"))
    for J in model.nonempty_subsets(spec.r):
        term = evaluator.term_T(spec, J, M_outer=3)
        plan = genfun.GeneratingFunctionPlan(spec, J)
        asm = genfun.compute_G(spec, J, {j: 1 for j in plan.ctx.Jbar})
        assert abs(term.unit_D - genfun.extract_D(asm)) <= 1e-12 * abs(term.unit_D)


def test_evaluate_batch_checks_the_tuple_shape():
    spec = model.load_spec(str(SPECS / "mt_r2.json"))
    full = genfun.GeneratingFunctionPlan(spec, (1, 2))
    batch = full.evaluate_batch(np.zeros((1, 0), dtype=np.int64))
    assert batch.shape == (1, full.space.size)
    assert batch[0, full.top] == 0  # mt_r2's J = [r] term vanishes exactly
    with pytest.raises(exact.ExactError):
        full.evaluate_batch(np.ones((1, 1), dtype=np.int64))
    with pytest.raises(exact.ExactError):
        genfun.GeneratingFunctionPlan(spec, (1,)).evaluate_batch(np.ones(3, dtype=np.int64))
