"""The batched reduced side: dense series batches, evaluate_batch, outer blocks."""

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import dictseries as ds
import helpers
import rowmajor
from mdzeta import evaluator, exact, genfun, model, mpseries
from mdzeta.mpseries import CapExceeded, SingularConfiguration, dense_space, series_mul

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
    """Random coefficients of rows series, key-major (N, rows), about a
    third of them zero, from a drawn seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rows, space.size)
    values = rng.uniform(-2, 2, shape) + 1j * rng.uniform(-2, 2, shape)
    return np.ascontiguousarray((values * (rng.random(shape) < 0.7)).T)


@given(st.data())
def test_geometric_factor_matches_series_mul(data):
    # the compiled expansion of -t_g/(d - L_g), summed over its monomials
    # d^-e at per-row d of either sign with |d| = 1 among them, against the
    # dict expansion of the factor
    variables, caps, total = data.draw(spaces(full_simplex=data.draw(st.booleans())))
    live = [v for v, c in zip(variables, caps) if c and total]
    assume(live)
    space = dense_space(caps, total)
    gname = data.draw(st.sampled_from(live))
    fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    weights = {v: data.draw(fractions) for v in live}
    denoms = data.draw(st.lists(
        st.one_of(st.sampled_from([1, -1]), fractions.filter(bool)), min_size=1, max_size=4
    ))
    batch = _batch(data.draw, space, len(denoms))
    exponents, stacked = genfun._expand_geometric(
        space, batch,
        [([float(weights.get(v, 0)) for v in variables], [1 if v == gname else 0 for v in variables])],
        total,
    )
    assert exponents.tolist() == [[e] for e in range(1, total + 1)]
    blocks = stacked.reshape(space.size, len(exponents), len(denoms))
    for r, (row, d) in enumerate(zip(batch.T, denoms)):
        got = sum(float(d) ** -int(e) * blocks[:, a, r] for a, (e,) in enumerate(exponents))
        factor = helpers.rational_factor(variables, caps, total, gname, d, weights)
        want = ds.to_dense(space, series_mul(ds.from_dense(space, variables, row), factor))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want), initial=0.0)


def test_geometric_blocks_come_by_total_then_last_exponent():
    # the block order fixes the summation order of coef @ rows, and so the
    # report bytes: for G = 2 at degree 4, by total exponent, then by the
    # last exponent, then in the parent's order; each block is, to the
    # last bit, the rows times prod_g (-t_g L_g^(e_g - 1)), built one
    # monomial at a time with the products in the same order
    space = dense_space((3, 3, 2), 5)
    rng = np.random.default_rng(7)
    rows = rng.uniform(-2, 2, (space.size, 2)) + 1j * rng.uniform(-2, 2, (space.size, 2))
    factors = [((0.5, -1.25, 2.0), (0, 0, 1)), ((1.5, 0.75, -0.5), (0, 1, 0))]
    exponents, stacked = genfun._expand_geometric(space, rows, factors, 4)
    assert exponents.tolist() == [[1, 1], [2, 1], [1, 2], [3, 1], [2, 2], [1, 3]]
    blocks = stacked.reshape(space.size, len(exponents), 2)
    for a, exps in enumerate(exponents.tolist()):
        block = blocks[:, a]
        want = rows
        for _, unit in factors:
            want = space.mul_linear(want, [-u for u in unit])
        for (weights, _), e in zip(factors, exps):
            for _ in range(e - 1):
                want = space.mul_linear(want, weights)
        assert np.array_equal(block, want)


@given(st.data())
def test_batched_division_matches_divide_linear(data):
    # mpseries.divide_linear on a batch against the dict division of each row
    # every batch takes the same path, with fewer rows than the space has
    # keys or more; half the draws widen the pivot's cap to the total cap,
    # so the other variables may keep smaller caps and moves leave the space
    variables, caps, total = data.draw(spaces(full_simplex=data.draw(st.booleans())))
    form = data.draw(
        st.tuples(*[st.integers(-3, 3)] * len(variables)).filter(lambda t: any(t))
    )
    if data.draw(st.booleans()):
        pivot = mpseries.pivot(form)
        caps = tuple(total if i == pivot else c for i, c in enumerate(caps))
    space = dense_space(caps, total)
    weights = dict(zip(variables, form))
    for rows in (data.draw(st.integers(1, 3)), space.size + data.draw(st.integers(1, 3))):
        numer = _batch(data.draw, space, rows)
        try:
            want = [
                ds.divide_linear(ds.from_dense(space, variables, row), weights) for row in numer.T
            ]
        except CapExceeded:
            with pytest.raises(CapExceeded):
                mpseries.divide_linear(space, numer, form)
            continue
        quotient, remainder = mpseries.divide_linear(space, numer, form)
        assert quotient.shape == numer.shape and remainder.shape == (rows,)
        # the same operations in the same order: equal to the last bit
        for r, (q, rem) in enumerate(want):
            assert np.array_equal(quotient[:, r], ds.to_dense(space, q))
            assert remainder[r] == rem


def test_batched_division_refuses_where_divide_linear_does():
    # in caps (1, 2), total 2 the pivot of a + b (a, the first of largest
    # |weight|) has a cap below the total cap: both divisions refuse it, even
    # for a multiple of the form; a + 2b pivots on b, whose cap is the total
    # cap, and is accepted with a's cap left at 1
    variables, space = ("a", "b"), dense_space((1, 2), 2)
    divisible = ds.to_dense(space, ds.linear_form({"a": 1, "b": 1}, variables, (1, 2), 2))
    with pytest.raises(CapExceeded):
        ds.divide_linear(ds.from_dense(space, variables, divisible), {"a": 1, "b": 1})
    with pytest.raises(CapExceeded):
        mpseries.divide_linear(space, divisible[:, None], (1, 1))
    divisible = ds.to_dense(space, ds.linear_form({"a": 1, "b": 2}, variables, (1, 2), 2))
    quotient, remainder = mpseries.divide_linear(space, divisible[:, None], (1, 2))
    assert quotient[:, 0].tolist() == [1] + [0] * (space.size - 1) and remainder.tolist() == [0.0]


def test_batched_division_rejects_the_zero_form():
    space = dense_space((2, 2), 2)
    with pytest.raises(mpseries.SeriesError, match="zero form"):
        mpseries.divide_linear(space, np.ones((space.size, 2), dtype=complex), (0, 0))


def _bits(values) -> np.ndarray:
    """The float64 bit patterns of an array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(values, dtype=np.result_type(values, float)).view(np.uint64)


def _assert_bitwise(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(_bits(got), _bits(want))


def _unit_products(mul, batch, monomial, sign):
    """batch times sign * t^monomial by mul(batch, weights), one unit key at
    a time, the first unit carrying the sign."""
    for unit in np.repeat(np.eye(len(monomial), dtype=np.int64), monomial, axis=0):
        batch, sign = mul(batch, sign * unit), 1
    return batch


@given(st.data())
def test_one_series_is_a_batch_of_one_and_a_shift_is_its_unit_products(data):
    # one series as an (N,) array and as an (N, 1) batch: bitwise the same
    # products, shifts, quotients and remainders; and the signed monomial
    # shift is the product by its unit keys in turn, to the last bit, with
    # exponents that carry keys out of the space and signed zeros in the
    # series (a product leaves +0.0 wherever the value is zero)
    variables, caps, total = data.draw(spaces(full_simplex=data.draw(st.booleans())))
    space = dense_space(caps, total)
    series = _batch(data.draw, space, 1)[:, 0]
    zeros = data.draw(st.lists(st.integers(0, space.size - 1), max_size=3))
    series[zeros] = complex(-0.0, -0.0)
    one = series[:, None]
    weights = data.draw(st.tuples(*[st.sampled_from([0, 1, -2, 0.5, -1.25])] * len(caps)))
    _assert_bitwise(space.mul_linear(series, weights), space.mul_linear(one, weights)[:, 0])
    monomial = list(data.draw(st.tuples(*[st.integers(0, c + 1) for c in caps])))
    if not any(monomial):
        monomial[0] = 1
    for sign in (1, -1):
        shifted = space.shift(series, monomial, sign)
        _assert_bitwise(shifted, space.shift(one, monomial, sign)[:, 0])
        _assert_bitwise(shifted, _unit_products(space.mul_linear, series, monomial, sign))
        assert not np.signbit(shifted.view(float)[shifted.view(float) == 0]).any()
    form = data.draw(st.tuples(*[st.integers(-3, 3)] * len(caps)).filter(any))
    if caps[mpseries.pivot(form)] < total:
        with pytest.raises(CapExceeded):
            mpseries.divide_linear(space, series, form)
        return
    quotient, remainder = mpseries.divide_linear(space, series, form)
    batch_quotient, batch_remainder = mpseries.divide_linear(space, one, form)
    assert np.shape(remainder) == () and batch_remainder.shape == (1,)
    _assert_bitwise(quotient, batch_quotient[:, 0])
    _assert_bitwise(remainder, batch_remainder[0])


def _pattern_spaces(spec):
    """(J, pattern space, its forms) per pattern the outer tuples in
    [1, 4]^|Jbar| reach, the regular one included, for every J of spec."""
    for J in model.nonempty_subsets(spec.r):
        plan = genfun.GeneratingFunctionPlan(spec, J)
        rows = list(itertools.product(range(1, 5), repeat=len(plan.ctx.Jbar)))
        tuples = np.array(rows, dtype=np.int64).reshape(len(rows), len(plan.ctx.Jbar))
        flags, _ = genfun.group_rows((tuples @ plan._d_rows) == 0)
        for pattern in {frozenset()} | {frozenset(np.flatnonzero(f).tolist()) for f in flags}:
            tables = plan._tables(pattern)
            yield J, tables.space, tables.forms


@pytest.mark.parametrize("path", sorted(SPECS.glob("*.json")), ids=lambda p: p.stem)
def test_key_major_kernels_match_the_row_major_reference(path):
    # every pattern space the bundled specs build (root_a2's J = [r] space
    # of 1156 keys among them), on random batches of 1, 2 and 12 series
    # with signed zeros: mul_linear, shift (against row-major unit
    # products) and divide_linear by each of the pattern's forms agree with
    # the row-major kernels kept in tests/rowmajor.py to the last bit
    spec = model.load_spec(str(path))
    rng = np.random.default_rng(len(path.stem))
    sizes = set()
    for J, space, forms in _pattern_spaces(spec):
        sizes.add((J, space.size))
        nvars = len(space.caps)
        for count in (1, 2, 12):
            shape = (count, space.size)
            rows = (rng.uniform(-2, 2, shape) + 1j * rng.uniform(-2, 2, shape)) * (
                rng.random(shape) < 0.7
            )
            batch = np.ascontiguousarray(rows.T)
            def row_major_mul(rows, weights):
                return rowmajor.mul_linear(space, rows, weights)

            weights = tuple(rng.choice([0, 1, -3, 0.5, -1.25], nvars))
            _assert_bitwise(space.mul_linear(batch, weights), row_major_mul(rows, weights).T)
            monomial = rng.integers(0, 3, nvars)
            monomial[rng.integers(nvars)] += 1
            for sign in (1, -1):
                want = _unit_products(row_major_mul, rows, monomial, sign)
                _assert_bitwise(space.shift(batch, monomial, sign), want.T)
            for form, _ in forms:
                quotient, remainder = mpseries.divide_linear(space, batch, form)
                want_quotient, want_remainder = rowmajor.divide_linear(space, rows, form)
                _assert_bitwise(quotient, want_quotient.T)
                _assert_bitwise(remainder, want_remainder)
    if path.stem == "root_a2":
        assert ((1, 2), 1156) in sizes


@given(st.data())
def test_code_found_index_arrays_match_the_explicit_key_reference(data):
    # on random small spaces (1-4 variables, caps 0-4, the pivot's cap
    # raised to the total cap), the index arrays DenseSpace finds by code
    # for monomial shifts (unit ones, and ones that carry every key out of
    # the space) and for every level of a division equal those that
    # tests/rowmajor.py finds with locate on explicit key arrays; and a
    # move is dropped exactly where key - e_p + e_i would hold t_i past
    # its cap
    nvars = data.draw(st.integers(1, 4))
    caps = [data.draw(st.integers(0, 4)) for _ in range(nvars)]
    total = data.draw(st.integers(0, sum(caps)))
    form = data.draw(st.tuples(*[st.integers(-3, 3)] * nvars).filter(any))
    p = mpseries.pivot(form)
    caps[p] = max(caps[p], total)
    space = mpseries.DenseSpace(tuple(caps), total)
    monomial = st.tuples(*[st.integers(0, c + 1) for c in caps]).filter(any)
    for shift in data.draw(st.lists(monomial, max_size=4)) + space._units:
        got, want = space._pairs(shift), rowmajor.pairs(space, shift)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    pivot_weight, free, levels = space._division_steps(form)
    want_weight, want_free, want_levels = rowmajor.division_steps(space, form)
    assert pivot_weight == want_weight and np.array_equal(free, want_free)
    assert len(levels) == len(want_levels) == total
    for (src, qcols, moves), (want_src, want_qcols, want_moves) in zip(levels, want_levels):
        assert np.array_equal(src, want_src) and np.array_equal(qcols, want_qcols)
        assert [m[0] for m in moves] == [m[0] for m in want_moves]
        others = [i for i in reversed(range(nvars)) if form[i] and i != p]
        for i, (_, rows, targets), (_, want_rows, want_targets) in zip(others, moves, want_moves):
            kept = np.arange(len(src))[rows]
            assert np.array_equal(kept, np.arange(len(src))[want_rows])
            assert np.array_equal(targets, want_targets)
            assert np.array_equal(kept, np.flatnonzero(space.keys[src, i] + 1 <= caps[i]))


@pytest.mark.parametrize("pairs", [6, 70])
def test_pattern_grouping_matches_unique_rows(pairs):
    # group_rows packs each row into bits; its groups, their order and the
    # inverse are np.unique(axis=0)'s, with rows that differ only in their
    # last flag and the all-false (regular) row among them
    rng = np.random.default_rng(pairs)
    pool = rng.random((5, pairs)) < 0.3
    pool[0, 0] = True
    pool[1] = pool[0]
    pool[1, -1] = not pool[0, -1]
    pool[2] = False
    flags = pool[rng.integers(0, len(pool), 256)]
    want_rows, want_inverse = np.unique(flags, axis=0, return_inverse=True)
    rows, inverse = genfun.group_rows(flags)
    assert np.array_equal(rows, want_rows) and len(rows) >= 3
    assert np.array_equal(inverse, want_inverse.ravel())


@pytest.mark.parametrize(
    "caps, total", [((), 0), ((0,), 3), ((2, 1), 2), ((3, 3, 1), 4), ((5, 1, 5, 2), 6)]
)
def test_key_count_is_the_space_size(caps, total):
    assert mpseries.key_count(caps, total) == dense_space(caps, total).size


def test_space_over_the_work_budget_is_refused_before_it_is_built():
    # C(38, 8) = 48 903 492 keys over 8 variables: counted, never enumerated
    assert mpseries.key_count((30,) * 8, 30) == math.comb(38, 8)
    with pytest.raises(mpseries.SeriesError, match="over the work budget"):
        mpseries.DenseSpace((30,) * 8, 30)


def test_dense_space_is_shared_per_space():
    assert dense_space((1, 2), 3) is dense_space((1, 2), 3)
    space = dense_space((1, 2), 2)
    assert space.keys.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1]]
    assert space.locate([(1, 1), (0, 0)]).tolist() == [4, 0]
    with pytest.raises(mpseries.CapExceeded):
        space.locate([(0, 3)])
    with pytest.raises(mpseries.CapExceeded):
        space.locate([(1, 2)])


def test_space_is_indexed_by_its_caps_not_by_the_largest_cap():
    # caps (110, 1, 1, 1, 2, 2, 2, 2): one radix 2 * 110 + 1 for all eight
    # variables would code past 2^62, the radices 2 * cap_i + 1 do not
    spec = model.parse_spec({"h": [110, 1, 1, 1], "k": [2] * 4, "y": ["0"] * 4,
                             "A": [[int(i == j) for j in range(4)] for i in range(4)]})
    space = genfun.GeneratingFunctionPlan(spec, (1, 2, 3, 4)).space
    assert space.size == 71928
    keys = space.keys.tolist()
    assert keys == sorted(keys)
    assert space.locate(keys).tolist() == list(range(space.size))


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
        assert abs(series[plan.top] - w) <= 1e-12 * max(abs(w), scale)


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
        phases = plan._phases
        plan._phases = lambda b, rows: phases(b, rows) * scales[plan.bases.index(b)]
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
        orders.update(b.den for b in plan.bases)
    assert 2 in orders


def test_singular_batch_with_one_bad_row_raises():
    spec = model.load_spec(str(SPECS / "root_a2.json"))
    plan = genfun.GeneratingFunctionPlan(spec, (1,))
    tuples = np.array([[1], [2], [3]], dtype=np.int64)
    dnum = tuples @ plan._d_rows
    pattern = frozenset(np.flatnonzero(dnum[0] == 0).tolist())
    assert pattern and all((dnum[:, sorted(pattern)] == 0).all(axis=0))
    good = plan._assemble_singular(pattern, tuples, dnum)
    assert good.shape == (3, plan.space.size)
    # a d_g off by one in a single row leaves a pole in that row only
    broken = dnum.copy()
    regular = [k for k in range(dnum.shape[1]) if k not in pattern]
    (den,) = (b.den for b in plan.bases for k, _, _ in b.complement if k == regular[0])
    broken[1, regular[0]] += den  # dnum is d_g times its basis's |det|
    with pytest.raises(SingularConfiguration, match=r"outer tuple \{2: 2\}"):
        plan._assemble_singular(pattern, tuples, broken)


def test_pole_check_is_relative_to_each_row(monkeypatch):
    spec = model.load_spec(str(SPECS / "root_a2.json"))
    plan = genfun.GeneratingFunctionPlan(spec, (1,))
    tuples = np.array([[1], [2], [3]], dtype=np.int64)
    dnum = tuples @ plan._d_rows
    pattern = frozenset(np.flatnonzero(dnum[0] == 0).tolist())
    numerator = plan._numerator

    def doctored(tables, rows, d):
        numer, magnitude = numerator(tables, rows, d)
        numer[0] *= 1e6  # a large row, still divisible
        magnitude[0] *= 1e6
        # an indivisible constant term, small only against the large row
        numer[1, 0] += 1e-6 * max(1.0, np.abs(numer[1]).max())
        return numer, magnitude

    monkeypatch.setattr(plan, "_numerator", doctored)
    with pytest.raises(SingularConfiguration, match=r"outer tuple \{2: 2\}"):
        plan._assemble_singular(pattern, tuples, dnum)


@pytest.mark.parametrize("cap", [genfun._BATCH_ENTRIES, 2**15])
@pytest.mark.parametrize(
    "data, J",
    [
        # the G2 forms, J = {2}: regular, 105 monomial-phase columns per row
        ({"h": [1, 1], "k": [1, 1, 2, 2], "y": ["0", "0"],
          "A": [[1, 1], [1, 2], [1, 3], [2, 3]]}, (2,)),
        # A2 at s = 3, J = {1}: every row singular, 128 keys in the widened space
        ({"h": [3, 3], "k": [3, 3, 3], "y": ["0", "0"], "A": [[1, 0], [0, 1], [1, 1]]}, (1,)),
    ],
    ids=["regular", "singular"],
)
def test_assembly_chunks_keep_rows_times_width_under_the_cap(monkeypatch, cap, data, J):
    # a 4096-row call, at its top and over the whole space: no _numerator
    # call holds more rows x width than the cap, the width being that of its
    # widest per-row array: the columns it sums (the widened keys on the
    # singular path), or of a basis A * K, A * G or the powers of its 1/d_g;
    # and the chunked rows equal one unchunked pass
    plan = genfun.GeneratingFunctionPlan(model.parse_spec(data), J)
    tuples = np.arange(1, 4097, dtype=np.int64).reshape(-1, 1)
    monkeypatch.setattr(genfun, "_BATCH_ENTRIES", 2**40)
    whole, top = plan.evaluate_batch(tuples), plan.top_coefficients(tuples)
    monkeypatch.setattr(genfun, "_BATCH_ENTRIES", cap)
    seen, numerator = [], plan._numerator

    def spy(tables, rows, dnum, columns=slice(None)):
        widths = [len(range(tables.space.size)[columns])]
        for pairs, exponents, compiled in tables.bases:
            widths += [(plan.total_cap + 1) * len(pairs), len(compiled), exponents.size]
        seen.append((len(rows), max(widths)))
        return numerator(tables, rows, dnum, columns)

    monkeypatch.setattr(plan, "_numerator", spy)
    for read, want in ((plan.evaluate_batch, whole), (plan.top_coefficients, top)):
        got = read(tuples)
        assert len(seen) > 1 and sum(rows for rows, _ in seen) == len(tuples)
        assert all(rows * width <= cap for rows, width in seen)
        assert np.array_equal(got, want)
        seen.clear()


def test_box_rows_walk_the_box_lexicographically():
    # every tuple of [1, M]^f exactly once, in order, however the blocks are cut
    for f, M, block in itertools.product(range(4), (1, 2, 5, 9), (1, 7, 256)):
        starts = range(0, M**f, block)
        blocks = [evaluator._box_rows(s, min(s + block, M**f), M, f) for s in starts]
        assert [len(rows) for rows in blocks] == [min(block, M**f - s) for s in starts]
        assert all(rows.shape[1] == f for rows in blocks)
        got = [tuple(row) for rows in blocks for row in rows.tolist()]
        assert got == list(itertools.product(range(1, M + 1), repeat=f))


def test_term_does_not_depend_on_block_size(monkeypatch):
    spec = model.load_spec(str(SPECS / "mt_r3.json"))
    default = evaluator.term_T(genfun.GeneratingFunctionPlan(spec, (1,)), M_outer=12)
    monkeypatch.setattr(evaluator, "_OUTER_BLOCK", 7)
    small = evaluator.term_T(genfun.GeneratingFunctionPlan(spec, (1,)), M_outer=12)
    assert abs(small.value - default.value) <= 1e-14 * abs(default.value)
    assert small.refined.fitted == default.refined.fitted
    assert abs(small.refined.uncertainty - default.refined.uncertainty) <= (
        1e-12 * default.refined.uncertainty
    )


@pytest.mark.parametrize(
    "data",
    [
        {"h": [1, 1, 1], "k": [2], "y": ["0", "0", "0"], "A": [[1, 1, 1]]},  # mt_r3
        {"h": [1, 1], "k": [1, 1, 1], "y": ["0", "0"], "A": [[1, 0], [0, 1], [1, 1]]},  # root_a2
        {"h": [1, 2], "k": [1, 2], "y": ["1/3", "1/4"], "A": [[2, 1], [1, 1]]},
        # mt_r2_twisted: its odd shells of J = {1} cancel exactly
        {"h": [2, 2], "k": [2], "y": ["1/2", "0"], "A": [[1, 1]]},
    ],
    ids=["mt_r3", "root_a2", "random_mixed-style", "mt_r2_twisted"],
)
def test_term_shells_match_the_per_tuple_reference(monkeypatch, data):
    spec = model.parse_spec(data)
    seen, summed = [], evaluator._summed

    def record(shells, abs_shells, *args):
        seen.append((shells, abs_shells))
        return summed(shells, abs_shells, *args)

    monkeypatch.setattr(evaluator, "_summed", record)
    for J in model.nonempty_subsets(spec.r)[:-1]:  # every J with an outer sum
        seen.clear()
        evaluator.term_T(genfun.GeneratingFunctionPlan(spec, J), M_outer=12)
        [(shells, abs_shells)] = seen
        want, want_abs = helpers.reference_shells(spec, J, 12)
        assert len(shells) == len(abs_shells) == len(want) == 12
        for got, got_abs, w, w_abs in zip(shells, abs_shells, want, want_abs):
            assert abs(got - w) <= 1e-14 * w_abs
            assert abs(got_abs - w_abs) <= 1e-14 * w_abs
            # an exact zero part stays exact
            assert (w.real != 0 or got.real == 0) and (w.imag != 0 or got.imag == 0)


def test_term_reports_unit_outer_d():
    spec = model.load_spec(str(SPECS / "root_a2.json"))
    for J in model.nonempty_subsets(spec.r):
        term = evaluator.term_T(genfun.GeneratingFunctionPlan(spec, J), M_outer=3)
        plan = genfun.GeneratingFunctionPlan(spec, J)
        raw = plan.evaluate({j: 1 for j in plan.ctx.Jbar})[plan.top]
        want = raw * math.prod(math.factorial(c) for c in plan.caps)
        assert abs(term.unit_D - want) <= 1e-12 * abs(term.unit_D)


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
