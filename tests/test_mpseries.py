"""Bernoulli numbers and polynomials, and the dict series algebra of the tests.

The dict algebra (tests/dictseries.py, products by mpseries.series_mul) is
the reference the dense library code is compared against, so its ring laws,
inverses, factors and division are checked here.
"""

import cmath
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import helpers
from dictseries import (
    NonUnitSeries,
    bernoulli_factor,
    coefficient,
    constant,
    divide_linear,
    exp_2pii_linear,
    invert_unit,
    linear_form,
    max_abs,
    monomial,
    series_add,
    series_scale,
    series_sub,
    zero,
)
from mdzeta import mpseries
from mdzeta.mpseries import (
    BERNOULLI,
    CapExceeded,
    CapMismatch,
    SeriesError,
    SingularConfiguration,
    series_mul,
    two_pi_i_power,
)

SPACE = dict(variables=("a", "b"), caps=(2, 2), total_cap=3)
KEYS = [
    key
    for key in itertools.product(range(3), repeat=2)
    if sum(key) <= 3
]

complex_coeffs = st.builds(
    complex,
    st.floats(-2, 2, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
)


@st.composite
def small_series(draw):
    base = zero(**SPACE)
    for key in KEYS:
        c = draw(complex_coeffs)
        if c != 0:
            base.coeffs[key] = c
    return base


# ------------------------------------------------------------- Bernoulli layer


def test_bernoulli_numbers_match_explicit_double_sum():
    for n in range(13):
        assert BERNOULLI.number(n) == helpers.bernoulli_explicit(n)
    assert BERNOULLI.number(1) == Fraction(-1, 2)
    assert all(BERNOULLI.number(n) == 0 for n in (3, 5, 7, 9, 11))
    with pytest.raises(ValueError):
        BERNOULLI.number(-1)


@given(
    st.integers(0, 8),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)
def test_bernoulli_polynomial_difference_rule(n, x):
    # B_n(x+1) - B_n(x) = n x^(n-1)
    lhs = BERNOULLI.poly_eval(n, x + 1) - BERNOULLI.poly_eval(n, x)
    rhs = n * x ** (n - 1) if n else Fraction(0)
    assert lhs == rhs
    assert BERNOULLI.poly_eval(n, Fraction(0)) == BERNOULLI.number(n)


def test_memoised_bernoulli_values_equal_the_sum():
    table = mpseries.BernoulliTable()
    for x in (Fraction(0), Fraction(1, 3), Fraction(3, 4), Fraction(-5, 2), 2):
        coefficients = mpseries.bernoulli_coefficients(8, x)
        for n in range(9):
            want = sum(
                (Fraction(math.comb(n, k)) * helpers.bernoulli_explicit(k)
                 * Fraction(x) ** (n - k) for k in range(n + 1)),
                Fraction(0),
            )
            first = table.poly_eval(n, x)
            assert type(first) is Fraction and first == want
            # bitwise: the float of the exact B_n(x) first, then / n!, exactly 0 where B_n(x) is
            expected = two_pi_i_power(n) * (float(want) / math.factorial(n)) if want else 0j
            got = coefficients[n]
            assert (got.real.hex(), got.imag.hex()) == (expected.real.hex(), expected.imag.hex())
    # the same bitwise on a wider grid, against the Fraction sum of poly_eval
    for x in {Fraction(p, q) for q in range(1, 13) for p in range(-2 * q, 2 * q + 1)}:
        for n, got in enumerate(mpseries.bernoulli_coefficients(13, x)):
            b = table.poly_eval(n, x)
            expected = two_pi_i_power(n) * (float(b) / math.factorial(n)) if b else 0j
            assert (got.real.hex(), got.imag.hex()) == (expected.real.hex(), expected.imag.hex())


def test_bernoulli_orders_past_float_range_are_refused():
    # 170! is the largest factorial a float holds
    top = mpseries.bernoulli_coefficients(170, Fraction(1, 3))[-1]
    assert math.isfinite(top.real) and math.isfinite(top.imag) and top != 0
    with pytest.raises(mpseries.OrderPastFloatRange, match="Bernoulli order 171"):
        mpseries.bernoulli_coefficients(171, 0)


def test_two_pi_i_power_keeps_axis_exact():
    assert two_pi_i_power(0) == 1
    assert two_pi_i_power(2).imag == 0.0
    assert two_pi_i_power(3).real == 0.0
    assert abs(two_pi_i_power(1) - 2j * math.pi) == 0.0


# ------------------------------------------------------------------ arithmetic


def test_space_construction_guards():
    with pytest.raises(CapMismatch):
        zero(("a", "b"), (1,))
    with pytest.raises(SeriesError):
        zero(("a", "a"), (1, 1))
    with pytest.raises(SeriesError):
        zero(("a",), (-1,))
    with pytest.raises(CapExceeded):
        monomial(("a",), (2,), (3,))
    with pytest.raises(SeriesError):
        linear_form({"c": 1.0}, ("a", "b"), (1, 1))


def test_dense_space_refuses_a_negative_cap():
    for caps, total_cap in (((1, -1), 2), ((1, 1), -1)):
        with pytest.raises(SeriesError, match="negative cap"):
            mpseries.DenseSpace(caps, total_cap)


def test_product_truncates_to_caps():
    one_plus = series_add(constant(1.0, ("t",), (2,)), monomial(("t",), (2,), (1,)))
    one_minus = series_sub(constant(1.0, ("t",), (2,)), monomial(("t",), (2,), (1,)))
    prod = series_mul(one_plus, one_minus)
    assert coefficient(prod, (0,)) == 1
    assert coefficient(prod, (1,)) == 0
    assert coefficient(prod, (2,)) == -1

    # cross terms survive, squares above caps are dropped
    ta = monomial(("a", "b"), (1, 1), (1, 0))
    tb = monomial(("a", "b"), (1, 1), (0, 1))
    cross = series_mul(series_add(ta, tb), series_add(ta, tb))
    assert cross.coeffs == {(1, 1): 2 + 0j}


def test_mixed_spaces_rejected():
    a = constant(1.0, ("a",), (2,))
    b = constant(1.0, ("a",), (3,))
    with pytest.raises(CapMismatch):
        series_add(a, b)
    with pytest.raises(CapMismatch):
        series_mul(a, constant(1.0, ("b",), (2,)))


@given(small_series(), small_series(), small_series())
def test_ring_laws_up_to_truncation(a, b, c):
    assert helpers.series_max_diff(series_mul(a, b), series_mul(b, a)) < 1e-12
    assoc = helpers.series_max_diff(
        series_mul(series_mul(a, b), c), series_mul(a, series_mul(b, c))
    )
    assert assoc < 1e-10
    distrib = helpers.series_max_diff(
        series_mul(a, series_add(b, c)),
        series_add(series_mul(a, b), series_mul(a, c)),
    )
    assert distrib < 1e-10


def test_coefficient_reads_and_cap_errors():
    s = monomial(("a", "b"), (2, 2), (1, 1), value=3.0, total_cap=3)
    assert coefficient(s, (1, 1)) == 3.0
    assert coefficient(s, (0, 0)) == 0j
    with pytest.raises(CapExceeded):
        coefficient(s, (2, 2))  # violates the total cap
    with pytest.raises(SeriesError):
        coefficient(s, (1,))


def test_truncation_only_narrows():
    s = series_add(
        constant(1.0, ("a", "b"), (2, 2)),
        monomial(("a", "b"), (2, 2), (2, 1)),
    )
    narrowed = helpers.truncated(s, caps=(1, 1), total_cap=2)
    assert narrowed.coeffs == {(0, 0): 1 + 0j}
    with pytest.raises(CapExceeded):
        helpers.truncated(s, caps=(3, 3))


def test_max_abs():
    assert max_abs(zero(("a",), (2,))) == 0.0
    assert max_abs(series_scale(constant(2.0, ("a",), (2,)), 1j)) == 2.0


# -------------------------------------------------------------------- inverses


def test_invert_unit_examples():
    geo = invert_unit(
        series_sub(constant(1.0, ("t",), (4,)), monomial(("t",), (4,), (1,)))
    )
    for n in range(5):
        assert abs(coefficient(geo, (n,)) - 1.0) < 1e-12

    assert coefficient(invert_unit(constant(2.0, ("t",), (3,))), (0,)) == 0.5

    s = series_add(
        constant(1.0, ("a", "b"), (1, 1)),
        series_add(
            monomial(("a", "b"), (1, 1), (1, 0)), monomial(("a", "b"), (1, 1), (0, 1))
        ),
    )
    inv = invert_unit(s)
    assert abs(coefficient(inv, (1, 0)) + 1) < 1e-12
    assert abs(coefficient(inv, (0, 1)) + 1) < 1e-12
    assert abs(coefficient(inv, (1, 1)) - 2) < 1e-12


def test_invert_unit_requires_a_unit():
    with pytest.raises(NonUnitSeries):
        invert_unit(monomial(("t",), (3,), (1,)))


@given(small_series(), st.sampled_from([1.0, 2.0, -1.5, 1 + 1j]))
def test_invert_unit_round_trip(s, const):
    s.coeffs[(0, 0)] = const
    prod = series_mul(s, invert_unit(s))
    one = constant(1.0, **SPACE)
    assert helpers.series_max_diff(prod, one) < 1e-8


def test_invert_unit_matches_cauchy_integral():
    s = series_add(
        constant(1.0, ("t",), (6,)),
        series_add(
            monomial(("t",), (6,), (1,), value=0.5),
            monomial(("t",), (6,), (2,), value=1.0 / 3.0),
        ),
    )
    inv = invert_unit(s)
    co = helpers.fft_taylor_coeffs(lambda p: 1.0 / (1 + p[0] / 2 + p[0] ** 2 / 3), 1, 6)
    for n in range(7):
        assert abs(coefficient(inv, (n,)) - co[(n,)]) < 1e-12


def test_invert_unit_matches_cauchy_integral_bivariate():
    s = series_add(
        constant(1.0, ("a", "b"), (3, 3), 3),
        series_scale(
            series_add(
                monomial(("a", "b"), (3, 3), (1, 0), total_cap=3),
                monomial(("a", "b"), (3, 3), (0, 1), total_cap=3),
            ),
            0.5,
        ),
    )
    inv = invert_unit(s)
    co = helpers.fft_taylor_coeffs(lambda p: 1.0 / (1 + (p[0] + p[1]) / 2), 2, 3)
    for key in itertools.product(range(4), repeat=2):
        if sum(key) <= 3:
            assert abs(coefficient(inv, key) - co[key]) < 1e-12


# ------------------------------------------------------------- special factors


def test_exponential_factor_coefficients_and_product_law():
    e = exp_2pii_linear({"t": 1}, ("t",), (6,))
    for n in range(7):
        want = two_pi_i_power(n) / math.factorial(n)
        assert abs(coefficient(e, (n,)) - want) < 1e-12

    space = dict(variables=("a", "b"), caps=(3, 3), total_cap=3)
    lhs = series_mul(
        exp_2pii_linear({"a": 1}, **space), exp_2pii_linear({"b": 1}, **space)
    )
    rhs = exp_2pii_linear({"a": 1, "b": 1}, **space)
    assert helpers.series_max_diff(lhs, rhs) < 1e-12


def test_bernoulli_factor_classical_expansion():
    f = bernoulli_factor(("t",), (6,), 6, "t", Fraction(0))
    assert coefficient(f, (0,)) == 1
    assert abs(coefficient(f, (1,)) + 1j * math.pi) < 1e-15
    assert abs(coefficient(f, (2,)) + math.pi**2 / 3) < 1e-12
    assert coefficient(f, (3,)) == 0 and coefficient(f, (5,)) == 0

    # offset 1 flips only the linear coefficient; offset 1/2 kills it
    g = bernoulli_factor(("t",), (6,), 6, "t", Fraction(1))
    assert abs(coefficient(g, (1,)) - 1j * math.pi) < 1e-15
    diff = series_sub(f, g)
    diff.coeffs.pop((1,), None)
    assert max_abs(diff) < 1e-12
    assert coefficient(bernoulli_factor(("t",), (6,), 6, "t", Fraction(1, 2)), (1,)) == 0


@given(st.fractions(min_value=0, max_value=1, max_denominator=8))
def test_bernoulli_factor_matches_cauchy_integral(c):
    f = bernoulli_factor(("t",), (6,), 6, "t", c)

    def fn(p):
        z = 2j * math.pi * p[0]
        return z * cmath.exp(z * float(c)) / (cmath.exp(z) - 1)

    co = helpers.fft_taylor_coeffs(fn, 1, 6)
    for n in range(7):
        assert abs(coefficient(f, (n,)) - co[(n,)]) < 1e-10


def test_bernoulli_factor_phase_scaling():
    base = bernoulli_factor(("t",), (4,), 4, "t", Fraction(1, 3))
    spun = bernoulli_factor(("t",), (4,), 4, "t", Fraction(1, 3), phase=1j)
    assert helpers.series_max_diff(series_scale(base, 1j), spun) == 0


def test_rational_factor_geometric_example():
    f = helpers.rational_factor(("g",), (2,), 2, "g", 1, {"g": 1})
    assert abs(coefficient(f, (1,)) + 1) < 1e-15
    assert abs(coefficient(f, (2,)) + 1) < 1e-15

    with pytest.raises(SingularConfiguration):
        helpers.rational_factor(("g",), (2,), 2, "g", 0, {"g": 1})


@given(
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.sampled_from([1, -1, 2, Fraction(3, 2)]),
)
def test_rational_factor_clears_its_denominator(wg, wf, d):
    # (d - L) * (-t_g / (d - L)) == -t_g up to the total cap
    space = dict(variables=("g", "f"), caps=(3, 3), total_cap=3)
    weights = {"g": wg, "f": wf}
    factor = helpers.rational_factor(
        space["variables"], space["caps"], space["total_cap"], "g", d, weights
    )
    denom = series_sub(
        constant(complex(d), **space),
        linear_form({k: float(v) for k, v in weights.items()}, **space),
    )
    want = series_scale(monomial(space["variables"], space["caps"], (1, 0), total_cap=3), -1)
    assert helpers.series_max_diff(series_mul(denom, factor), want) < 1e-12


# ------------------------------------------------------------- exact division


@given(st.data())
def test_divide_linear_round_trip(data):
    variables = ("a", "b", "c")
    total = 4
    caps = (total,) * 3
    q = zero(variables, caps, total)
    for key in itertools.product(range(total), repeat=3):
        if sum(key) <= total - 1:
            c = data.draw(complex_coeffs)
            if c != 0:
                q.coeffs[key] = c
    w = data.draw(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)).filter(
            lambda t: any(t)
        )
    )
    weights = dict(zip(variables, w))
    numer = series_mul(q, linear_form(weights, variables, caps, total))
    quot, rem = divide_linear(numer, weights)
    assert rem <= 1e-9 * (1 + max_abs(numer))
    assert helpers.series_max_diff(quot, q) < 1e-9 * (1 + max_abs(q))


def test_divide_linear_reports_remainder():
    numer = series_add(
        constant(1.0, ("a", "b"), (2, 2), 2),
        monomial(("a", "b"), (2, 2), (1, 0), total_cap=2),
    )
    quot, rem = divide_linear(numer, {"a": 1})
    assert rem == 1.0  # the constant term is not divisible by a
    assert quot.coeffs == {(0, 0): 1 + 0j}


def test_divide_linear_needs_full_simplex():
    # only the pivot, the variable of largest |weight|, needs the total cap:
    # a - 2b pivots on b, so (a - 2b) b divides in caps (1, 2), total 2
    numer = monomial(("a", "b"), (1, 2), (1, 0), total_cap=2)
    with pytest.raises(CapExceeded):
        divide_linear(numer, {"a": 2, "b": -1})
    numer = series_add(
        monomial(("a", "b"), (1, 2), (1, 1), total_cap=2),
        monomial(("a", "b"), (1, 2), (0, 2), value=-2.0, total_cap=2),
    )
    quot, rem = divide_linear(numer, {"a": 1, "b": -2})
    assert rem == 0.0 and quot.coeffs == {(0, 1): 1 + 0j}


def test_divide_linear_rejects_zero_form():
    with pytest.raises(SeriesError):
        divide_linear(constant(1.0, ("a",), (2,)), {"a": 0})
