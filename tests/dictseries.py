"""The dict series algebra: the reference the dense library code is checked against.

A MultiSeries lives in a fixed space: named variables, a per-variable degree
cap, and a total-degree cap.  Every operation stays inside the space
(products drop overflowing monomials; coefficient reads outside the space
raise).  Products are mdzeta.mpseries.series_mul.  Besides the ring
operations this holds the Bernoulli and exponential factors, series
inversion, exact division by an integer linear form one series at a time
(the row-by-row reference of mpseries.divide_linear), conversion to and
from the rows of a DenseSpace, and an independent closed form of G for the
single all-ones form with zero twist.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict

import numpy as np

from mdzeta.model import SeriesSpec, subset_context
from mdzeta.mpseries import (
    CapExceeded,
    CapMismatch,
    DenseSpace,
    MultiSeries,
    SeriesError,
    _admissible,
    bernoulli_coefficients,
    series_mul,
    two_pi_i_power,
)


class NonUnitSeries(SeriesError):
    pass


def _check_space(variables, caps, total_cap):
    if len(variables) != len(caps):
        raise CapMismatch("one cap per variable required")
    if len(set(variables)) != len(variables):
        raise SeriesError("duplicate variable names")
    if any(c < 0 for c in caps) or total_cap < 0:
        raise SeriesError("negative cap")


def _same_space(a: MultiSeries, b: MultiSeries) -> None:
    if a.variables != b.variables or a.caps != b.caps or a.total_cap != b.total_cap:
        raise CapMismatch("series live in different spaces")


def zero(variables, caps, total_cap=None) -> MultiSeries:
    variables = tuple(variables)
    caps = tuple(caps)
    if total_cap is None:
        total_cap = sum(caps)
    _check_space(variables, caps, total_cap)
    return MultiSeries(variables, caps, total_cap, {})


def constant(value, variables, caps, total_cap=None) -> MultiSeries:
    base = zero(variables, caps, total_cap)
    value = complex(value)
    if value != 0:
        base.coeffs[(0,) * len(base.variables)] = value
    return base


def monomial(variables, caps, key, value=1.0, total_cap=None) -> MultiSeries:
    base = zero(variables, caps, total_cap)
    key = tuple(key)
    if len(key) != len(base.variables) or any(e < 0 for e in key):
        raise SeriesError(f"bad monomial key {key}")
    if not _admissible(key, base.caps, base.total_cap):
        raise CapExceeded(f"monomial {key} outside the space")
    value = complex(value)
    if value != 0:
        base.coeffs[key] = value
    return base


def linear_form(weights, variables, caps, total_cap=None) -> MultiSeries:
    """sum_v weights[v] * t_v; weights maps variable name -> coefficient."""
    base = zero(variables, caps, total_cap)
    unknown = set(weights) - set(base.variables)
    if unknown:
        raise SeriesError(f"unknown variables {sorted(unknown)}")
    for pos, name in enumerate(base.variables):
        w = complex(weights.get(name, 0))
        if w == 0:
            continue
        key = tuple(1 if i == pos else 0 for i in range(len(base.variables)))
        if not _admissible(key, base.caps, base.total_cap):
            raise CapExceeded(f"variable {name} capped at degree 0")
        base.coeffs[key] = w
    return base


def series_add(a: MultiSeries, b: MultiSeries) -> MultiSeries:
    _same_space(a, b)
    out = dict(a.coeffs)
    for key, c in b.coeffs.items():
        s = out.get(key, 0j) + c
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s
    return MultiSeries(a.variables, a.caps, a.total_cap, out)


def series_sub(a: MultiSeries, b: MultiSeries) -> MultiSeries:
    return series_add(a, series_scale(b, -1.0))


def series_scale(a: MultiSeries, factor) -> MultiSeries:
    factor = complex(factor)
    if factor == 0:
        return MultiSeries(a.variables, a.caps, a.total_cap, {})
    return MultiSeries(
        a.variables,
        a.caps,
        a.total_cap,
        {key: factor * c for key, c in a.coeffs.items()},
    )


def coefficient(a: MultiSeries, key) -> complex:
    key = tuple(key)
    if len(key) != len(a.variables) or any(e < 0 for e in key):
        raise SeriesError(f"bad key {key}")
    if not _admissible(key, a.caps, a.total_cap):
        raise CapExceeded(f"key {key} outside caps {a.caps} / total {a.total_cap}")
    return a.coeffs.get(key, 0j)


def max_abs(a: MultiSeries) -> float:
    return max((abs(c) for c in a.coeffs.values()), default=0.0)


def invert_unit(a: MultiSeries) -> MultiSeries:
    """1/a for a with invertible constant term (Neumann/Horner iteration)."""
    c0 = a.coeffs.get((0,) * len(a.variables), 0j)
    if abs(c0) <= 1e-12 * max(1.0, max_abs(a)):
        raise NonUnitSeries("constant term is (numerically) zero")
    u = series_scale(a, 1.0 / c0)
    u.coeffs.pop((0,) * len(a.variables), None)  # u = a/c0 - 1, no constant
    u = series_scale(u, -1.0)
    one = constant(1.0, a.variables, a.caps, a.total_cap)
    acc = one
    for _ in range(a.total_cap):
        acc = series_add(one, series_mul(u, acc))
    return series_scale(acc, 1.0 / c0)


def exp_2pii_linear(weights, variables, caps, total_cap=None) -> MultiSeries:
    """e(sum_v weights[v] t_v) = exp(2 pi i * linear form), truncated."""
    lf = linear_form(weights, variables, caps, total_cap)
    one = constant(1.0, lf.variables, lf.caps, lf.total_cap)
    # Horner on exp: acc_n = 1 + (2 pi i L / n) * acc_{n+1}
    acc = one
    for n in range(lf.total_cap, 0, -1):
        acc = series_add(one, series_mul(series_scale(lf, 2j * math.pi / n), acc))
    return acc


def bernoulli_factor(variables, caps, total_cap, var, offset, phase=1.0) -> MultiSeries:
    """phase * sum_n B_n(offset) (2 pi i t_var)^n / n! up to the var's cap."""
    base = zero(variables, caps, total_cap)
    pos = base.variables.index(var)
    phase = complex(phase)
    coefficients = bernoulli_coefficients(min(base.caps[pos], base.total_cap), offset)
    for n, c in enumerate(coefficients):
        if c:
            key = tuple(n if i == pos else 0 for i in range(len(base.variables)))
            base.coeffs[key] = phase * c
    return base


def divide_linear(numer: MultiSeries, weights) -> tuple[MultiSeries, float]:
    """Exact truncated division of numer by an integer linear form.

    Returns (quotient, remainder_bound): the largest coefficient magnitude
    that could not be divided out (0.0 for an exact multiple).  The pivot is
    the variable of largest |weight| (the first such), as in
    mpseries.divide_linear, and its cap must be the total cap.  A reduction
    step that would raise another variable past its cap is dropped, as
    mpseries.divide_linear drops the move.  Works slice by slice in total
    degree; within a slice, monomials are consumed in decreasing (pivot
    exponent, key) order, which strictly decreases at each reduction step,
    so the loop terminates.
    """
    vec = tuple(int(weights.get(name, 0)) for name in numer.variables)
    if all(w == 0 for w in vec):
        raise SeriesError("division by the zero form")
    pivot = max(range(len(vec)), key=lambda i: abs(vec[i]))
    if numer.caps[pivot] < numer.total_cap:
        raise CapExceeded("division needs the pivot's cap at the total cap; widen the space")

    def order(key):  # smallest heap entry = largest (pivot exponent, key)
        return (-key[pivot],) + tuple(-e for e in key)

    slices: dict[int, dict] = defaultdict(dict)
    for key, c in numer.coeffs.items():
        if c != 0:
            slices[sum(key)][key] = c
    quotient: dict[tuple[int, ...], complex] = {}
    remainder = 0.0
    for degree in sorted(slices):
        active = slices[degree]
        heap = [(order(key), key) for key in active]
        heapq.heapify(heap)
        while heap:
            _, key = heapq.heappop(heap)
            if key not in active:
                continue
            c = active.pop(key)
            if c == 0:
                continue
            if key[pivot] == 0:
                remainder = max(remainder, abs(c))
                continue
            q = c / vec[pivot]
            qkey = tuple(e - 1 if i == pivot else e for i, e in enumerate(key))
            quotient[qkey] = quotient.get(qkey, 0j) + q
            for i, w in enumerate(vec):
                if w == 0 or i == pivot or qkey[i] == numer.caps[i]:
                    continue
                nk = tuple(e + 1 if j == i else e for j, e in enumerate(qkey))
                if nk in active:
                    active[nk] -= q * w
                else:
                    active[nk] = -q * w
                    heapq.heappush(heap, (order(nk), nk))
    return MultiSeries(numer.variables, numer.caps, numer.total_cap, quotient), remainder


def to_dense(space: DenseSpace, a: MultiSeries) -> np.ndarray:
    """The series as a row over the space's keys."""
    if a.caps != space.caps or a.total_cap != space.total_cap:
        raise CapMismatch("series lives in a different space")
    row = np.zeros(space.size, dtype=complex)
    if a.coeffs:
        row[space.locate(list(a.coeffs))] = list(a.coeffs.values())
    return row


def from_dense(space: DenseSpace, variables, row) -> MultiSeries:
    """The row over the space's keys as a series in the named variables."""
    out = zero(variables, space.caps, space.total_cap)
    nonzero = np.flatnonzero(row)
    out.coeffs.update(zip(map(tuple, space.keys[nonzero].tolist()), row[nonzero].tolist()))
    return out


# ------------------------------------------------- closed form of G, all-ones form


def _unit_factor(variables, caps, total_cap, var) -> MultiSeries:
    # 2 pi i t/(e(t) - 1) as 1/(sum_m (2 pi i t)^m/(m+1)!)
    base = zero(variables, caps, total_cap)
    pos = base.variables.index(var)
    for m in range(min(base.caps[pos], base.total_cap) + 1):
        key = tuple(m if i == pos else 0 for i in range(len(base.variables)))
        base.coeffs[key] = two_pi_i_power(m) / math.factorial(m + 1)
    return invert_unit(base)


def mt_closed_form_G(spec: SeriesSpec, J, m_outer=None) -> MultiSeries:
    """Reference G for (spec, J); spec must be all-ones with zero twist.

    For the single all-ones form, G telescopes to

        (-e(t_last)/2 pi i) * (e(u) - 1)/(S - u) * prod_v 2 pi i t_v/(e(t_v) - 1)

    with u = sum_{j in J} t_j - t_last and S the sum of the frozen outer
    variables.  This route shares no code with the basis/coset assembly:
    the exponentials come from the series exponential, the cotangent-type
    factors from series inversion rather than Bernoulli polynomials.  It
    exists to cross-check the assembly, so keep it independent.
    """
    if not spec.is_mordell_tornheim():
        raise ValueError("closed form only covers the single all-ones form")
    if any(v != 0 for v in spec.y):
        raise ValueError("closed form implemented for zero twist only")
    ctx = subset_context(spec, tuple(J))
    m_outer = dict(m_outer or {})
    if set(m_outer) != set(ctx.Jbar):
        raise ValueError(f"outer tuple must cover Jbar = {ctx.Jbar}")
    last = f"t{spec.r + 1}"
    variables = tuple(f"t{j}" for j in ctx.J) + (last,)
    caps = tuple(spec.h[j - 1] for j in ctx.J) + (spec.k[0],)
    total_cap = sum(caps)
    S = sum(m_outer[j] for j in ctx.Jbar)

    u = linear_form(
        {f"t{j}": 1.0 for j in ctx.J} | {last: -1.0}, variables, caps, total_cap
    )
    one = constant(1.0, variables, caps, total_cap)
    if S == 0:
        # (e(u) - 1)/(0 - u) = -sum_n (2 pi i)^(n+1) u^n / (n+1)!
        middle = zero(variables, caps, total_cap)
        upow = one
        for n in range(total_cap + 1):
            middle = series_add(
                middle, series_scale(upow, -two_pi_i_power(n + 1) / math.factorial(n + 1))
            )
            upow = series_mul(upow, u)
    else:
        eu = series_sub(
            exp_2pii_linear(
                {f"t{j}": 1 for j in ctx.J} | {last: -1}, variables, caps, total_cap
            ),
            one,
        )
        geom = one
        scaled = series_scale(u, 1.0 / S)
        for _ in range(total_cap):
            geom = series_add(one, series_mul(scaled, geom))
        middle = series_scale(series_mul(eu, geom), 1.0 / S)

    prefactor = series_scale(
        exp_2pii_linear({last: 1}, variables, caps, total_cap),
        -1.0 / (2j * math.pi),
    )
    out = series_mul(prefactor, middle)
    for var in variables:
        out = series_mul(out, _unit_factor(variables, caps, total_cap, var))
    return out
