"""Truncated multivariate power series over complex coefficients.

A series lives in a fixed space: named variables, a per-variable degree cap,
and a total-degree cap.  Every operation stays inside the space (products
drop overflowing monomials; coefficient reads outside the space raise).  The
module also carries the Bernoulli-polynomial factors of basis members and
exact truncated division by an integer linear form, which is what makes
removable singularities computable.

The dense layout (DenseSpace) holds a batch of series in one space as a
(B, N) complex array over the space's admissible keys; it carries products
with a linear form and exact division by an integer form.  With per-row
scalars and matrix products these are all the series algebra the
generating-function layer needs to build its tables and to evaluate many
outer tuples at once.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class SeriesError(ValueError):
    pass


class CapMismatch(SeriesError):
    pass


class CapExceeded(SeriesError):
    pass


class NonUnitSeries(SeriesError):
    pass


class SingularConfiguration(SeriesError):
    """A pole that does not cancel; carries context from the caller."""


_I_POWERS = (1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j)


def two_pi_i_power(n: int) -> complex:
    """(2 pi i)^n with the i^n part exact."""
    return (2.0 * math.pi) ** n * _I_POWERS[n % 4]


class BernoulliTable:
    """Bernoulli numbers (B_1 = -1/2) and polynomials, exact Fractions."""

    def __init__(self) -> None:
        self._numbers = [Fraction(1)]
        self._values: dict[tuple[int, int, int], Fraction] = {}

    def number(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("negative Bernoulli index")
        while len(self._numbers) <= n:
            m = len(self._numbers)
            # sum_{k<=m} C(m+1, k) B_k = 0
            acc = sum(
                Fraction(math.comb(m + 1, k)) * self._numbers[k]
                for k in range(m)
            )
            self._numbers.append(-acc / (m + 1))
        return self._numbers[n]

    def poly_eval(self, n: int, x: Fraction) -> Fraction:
        """B_n(x) = sum_k C(n,k) B_k x^(n-k), memoised per (n, x)."""
        x = Fraction(x)
        key = (n, x.numerator, x.denominator)  # ints hash far faster than a Fraction
        if key not in self._values:
            self._values[key] = sum(
                (Fraction(math.comb(n, k)) * self.number(k) * x ** (n - k)
                 for k in range(n + 1)),
                Fraction(0),
            )
        return self._values[key]


BERNOULLI = BernoulliTable()


@dataclass(frozen=True, eq=False)
class MultiSeries:
    variables: tuple[str, ...]
    caps: tuple[int, ...]
    total_cap: int
    coeffs: dict[tuple[int, ...], complex]


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


def _admissible(key, caps, total_cap) -> bool:
    return sum(key) <= total_cap and all(e <= c for e, c in zip(key, caps))


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


def series_mul(a: MultiSeries, b: MultiSeries) -> MultiSeries:
    _same_space(a, b)
    small, large = (a, b) if len(a.coeffs) <= len(b.coeffs) else (b, a)
    out: dict[tuple[int, ...], complex] = {}
    caps, total_cap = a.caps, a.total_cap
    for k1, c1 in small.coeffs.items():
        if c1 == 0:
            continue
        for k2, c2 in large.coeffs.items():
            key = tuple(x + y for x, y in zip(k1, k2))
            if not _admissible(key, caps, total_cap):
                continue
            out[key] = out.get(key, 0j) + c1 * c2
    return MultiSeries(a.variables, a.caps, a.total_cap, out)


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


def bernoulli_coefficients(nmax: int, offset) -> list[complex]:
    """B_n(offset) (2 pi i)^n / n! for n = 0..nmax, exactly 0 where B_n(offset) is."""
    offset = Fraction(offset)
    out = []
    for n in range(nmax + 1):
        b = BERNOULLI.poly_eval(n, offset)
        out.append(two_pi_i_power(n) * (float(b) / math.factorial(n)) if b else 0j)
    return out


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
    that could not be divided out (0.0 for an exact multiple).  Works slice
    by slice in total degree; within a slice, monomials are consumed in
    decreasing (pivot exponent, key) order, which strictly decreases at each
    reduction step, so the loop terminates.
    """
    vec = tuple(int(weights.get(name, 0)) for name in numer.variables)
    if all(w == 0 for w in vec):
        raise SeriesError("division by the zero form")
    pivot = next(i for i, w in enumerate(vec) if w != 0)

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
                if w == 0 or i == pivot:
                    continue
                nk = tuple(e + 1 if j == i else e for j, e in enumerate(qkey))
                if not _admissible(nk, numer.caps, numer.total_cap):
                    raise CapExceeded(
                        "division needs the full homogeneous simplex; widen the space"
                    )
                if nk in active:
                    active[nk] -= q * w
                else:
                    active[nk] = -q * w
                    heapq.heappush(heap, (order(nk), nk))
    return MultiSeries(numer.variables, numer.caps, numer.total_cap, quotient), remainder


# ------------------------------------------------------------ dense batches


class DenseSpace:
    """The admissible keys of a (caps, total_cap) space, lexicographically.

    A batch of B series in the space is a (B, N) complex array with one
    column per key, so per-row linear combinations of K fixed series are
    the matrix product of (B, K) scalars with their (K, N) rows.  Keys are
    the rows of an (N, nvars) array, located by their codes in base
    2 * max cap + 1, which increase with the lexicographic order and stay
    distinct for sums of two keys.  The O(N) shift and division index
    arrays depend only on the space, so dense_space() shares one instance
    per space.
    """

    def __init__(self, caps: tuple[int, ...], total_cap: int):
        _check_space(tuple(f"x{i}" for i in range(len(caps))), caps, total_cap)
        self.caps = caps
        self.total_cap = total_cap
        radix = 2 * max(caps, default=0) + 1
        if radix ** len(caps) >= 2**62:
            raise SeriesError("space too large to index")
        self._weights = radix ** np.arange(len(caps), dtype=np.int64)[::-1]
        keys = np.zeros((1, 0), dtype=np.int64)
        for c in caps:
            keys = np.concatenate([np.column_stack([keys, np.full(len(keys), e)]) for e in range(c + 1)])
            keys = keys[keys.sum(axis=1) <= total_cap]
        codes = keys @ self._weights
        order = np.argsort(codes)
        self.keys = keys[order]
        self._codes = codes[order]
        self.size = len(self.keys)
        self._shift_cache: dict[int, tuple] = {}
        self._division_cache: dict[tuple[int, ...], tuple] = {}

    def locate(self, keys) -> np.ndarray:
        """Column index of each key (rows of an array or a list of tuples)."""
        keys = np.asarray(keys, dtype=np.int64).reshape(-1, len(self.caps))
        codes = keys @ self._weights
        index = np.searchsorted(self._codes, codes)
        if not np.array_equal(self._codes[np.minimum(index, self.size - 1)], codes):
            raise CapExceeded("key outside the space")
        return index

    def dense(self, series: MultiSeries) -> np.ndarray:
        if series.caps != self.caps or series.total_cap != self.total_cap:
            raise CapMismatch("series lives in a different space")
        row = np.zeros(self.size, dtype=complex)
        if series.coeffs:
            row[self.locate(list(series.coeffs))] = list(series.coeffs.values())
        return row

    def series(self, variables, row) -> MultiSeries:
        out = zero(variables, self.caps, self.total_cap)
        nonzero = np.flatnonzero(row)
        out.coeffs.update(zip(map(tuple, self.keys[nonzero].tolist()), row[nonzero].tolist()))
        return out

    def _shift(self, i: int):
        """(columns of the keys holding t_i, columns of those keys minus e_i), cached."""
        if i not in self._shift_cache:
            targets = np.flatnonzero(self.keys[:, i] > 0)
            lower = self.keys[targets]
            lower[:, i] -= 1
            self._shift_cache[i] = (targets, self.locate(lower))
        return self._shift_cache[i]

    def mul_linear(self, batch: np.ndarray, weights) -> np.ndarray:
        """Row-wise truncated product of a (..., N) batch with sum_i weights[i] t_i.

        One gather-add per nonzero weight, in increasing i, through the O(N)
        shift index arrays of the space.  The space is closed downward, so
        every key of the product that stays inside it comes from a key of
        the batch, and the keys that leave it are simply never written.
        """
        out = np.zeros(np.shape(batch), dtype=complex)
        for i, w in enumerate(weights):
            if w:
                targets, sources = self._shift(i)
                out[..., targets] += w * batch[..., sources]
        return out

    def _division_steps(self, form: tuple[int, ...]):
        """Index arrays of division by the integer form, cached per form.

        Returns (pivot weight, free columns, levels).  The pivot p is the
        first variable of nonzero weight; free columns are the keys without
        t_p.  Levels run from the highest pivot exponent e down to 1; each
        holds the columns of its keys, the columns of those keys minus e_p
        (where the quotient goes), the columns whose quotient would need a
        key outside the space, and per other variable i of nonzero weight,
        in decreasing i: (w_i, the columns of key - e_p + e_i, and the
        quotient columns they come from).
        """
        if form not in self._division_cache:
            if not any(form):
                raise SeriesError("division by the zero form")
            pivot = next(i for i, w in enumerate(form) if w != 0)
            others = [i for i in range(len(form) - 1, pivot, -1) if form[i]]
            levels = []
            for e in range(int(self.keys[:, pivot].max(initial=0)), 0, -1):
                src = np.flatnonzero(self.keys[:, pivot] == e)
                qkeys = self.keys[src]
                qkeys[:, pivot] -= 1
                qcols = self.locate(qkeys)
                blocked = np.zeros(len(src), dtype=bool)
                moves = []
                for i in others:
                    inside = qkeys[:, i] < self.caps[i]
                    blocked |= ~inside
                    shifted = qkeys[inside]
                    shifted[:, i] += 1
                    moves.append((form[i], self.locate(shifted), qcols[inside]))
                levels.append((src, qcols, src[blocked], moves))
            free = np.flatnonzero(self.keys[:, pivot] == 0)
            self._division_cache[form] = (form[pivot], free, levels)
        return self._division_cache[form]

    def divide(self, numer: np.ndarray, form) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise exact division by an integer linear form.

        Returns (quotient batch, per-row remainder bound), as divide_linear
        gives on every row, and raises CapExceeded where it would.  The
        whole batch is divided level by level in the pivot exponent, highest
        first: a key's quotient is its coefficient over the pivot weight,
        and w_i times that quotient is taken off the key one t_p lower and
        one t_i higher, one level down, for every other variable t_i.  Keys
        at one level never feed each other, and each subtraction is one
        gather over the batch, so memory is O(B * N) for any batch size.
        What is left on the keys free of t_p is the remainder.
        """
        pivot_weight, free, levels = self._division_steps(tuple(int(w) for w in form))
        work = np.array(numer, dtype=complex)
        quotient = np.zeros_like(work)
        for src, qcols, blocked, moves in levels:
            if blocked.size and np.any(work[:, blocked]):
                raise CapExceeded(
                    "division needs the full homogeneous simplex; widen the space"
                )
            level = work[:, src]
            level.real /= pivot_weight  # each part on its own, as complex / int does
            level.imag /= pivot_weight
            quotient[:, qcols] = level
            for weight, targets, sources in moves:
                work[:, targets] -= weight * quotient[:, sources]
        left = work[:, free]
        # hypot, as abs() of a Python complex; np.abs differs in the last bit
        return quotient, np.hypot(left.real, left.imag).max(axis=1, initial=0.0)


@functools.lru_cache(maxsize=256)
def dense_space(caps: tuple[int, ...], total_cap: int) -> DenseSpace:
    """The shared DenseSpace for (caps, total_cap)."""
    return DenseSpace(tuple(caps), total_cap)
