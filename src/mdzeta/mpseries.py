"""Truncated multivariate power series over complex coefficients.

A series lives in a fixed space: named variables, a per-variable degree cap,
and a total-degree cap.  Every operation stays inside the space (products
drop overflowing monomials; coefficient reads outside the space raise).  The
module also carries the two special factor families the generating-function
assembly needs -- Bernoulli-polynomial factors for basis members and
geometric factors for the complementary members -- plus exact truncated
division by an integer linear form, which is what makes removable
singularities computable.

The dense layout (DenseSpace) holds a batch of series in one space as a
(B, N) complex array over the space's admissible keys; it carries the
batched product, per-row linear combinations, and exact division by an
integer form, which the generating-function layer uses to evaluate many
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
        """B_n(x) = sum_k C(n,k) B_k x^(n-k)."""
        x = Fraction(x)
        return sum(
            (Fraction(math.comb(n, k)) * self.number(k) * x ** (n - k)
             for k in range(n + 1)),
            Fraction(0),
        )


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


def truncated(a: MultiSeries, caps=None, total_cap=None) -> MultiSeries:
    caps = a.caps if caps is None else tuple(caps)
    total_cap = a.total_cap if total_cap is None else total_cap
    if len(caps) != len(a.variables):
        raise CapMismatch("one cap per variable required")
    if any(new > old for new, old in zip(caps, a.caps)) or total_cap > a.total_cap:
        raise CapExceeded("truncation cannot enlarge the space")
    out = {
        key: c
        for key, c in a.coeffs.items()
        if _admissible(key, caps, total_cap) and c != 0
    }
    return MultiSeries(a.variables, caps, total_cap, out)


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
    nmax = min(base.caps[pos], base.total_cap)
    phase = complex(phase)
    offset = Fraction(offset)
    for n in range(nmax + 1):
        b = BERNOULLI.poly_eval(n, offset)
        if b == 0:
            continue
        key = tuple(n if i == pos else 0 for i in range(len(base.variables)))
        base.coeffs[key] = phase * two_pi_i_power(n) * (float(b) / math.factorial(n))
    return base


def rational_factor(variables, caps, total_cap, numer_var, denom, weights) -> MultiSeries:
    """-t_g / (denom - L(t)) with L the given linear form; denom != 0.

    Expanded as (-t_g/denom) * sum_n (L/denom)^n.  A zero denominator is a
    genuine pole at this stage and is the caller's job to cancel by other
    means, hence the dedicated error.
    """
    if denom == 0:
        raise SingularConfiguration(f"zero denominator at factor {numer_var}")
    base = zero(variables, caps, total_cap)
    scaled = {name: Fraction(w) / Fraction(denom) for name, w in weights.items()}
    lf = linear_form(
        {name: float(w) for name, w in scaled.items()},
        base.variables,
        base.caps,
        base.total_cap,
    )
    one = constant(1.0, base.variables, base.caps, base.total_cap)
    acc = one
    for _ in range(base.total_cap):
        acc = series_add(one, series_mul(lf, acc))
    pos = base.variables.index(numer_var)
    key = tuple(1 if i == pos else 0 for i in range(len(base.variables)))
    tg = monomial(
        base.variables, base.caps, key, value=float(Fraction(-1) / Fraction(denom)),
        total_cap=base.total_cap,
    )
    return series_mul(tg, acc)


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
    distinct for sums of two keys.  Index,
    product and division tables depend only on the space, so dense_space()
    shares one instance per space.
    """

    def __init__(self, caps: tuple[int, ...], total_cap: int):
        self._names = tuple(f"x{i}" for i in range(len(caps)))
        _check_space(self._names, caps, total_cap)
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
        self._product_table = None
        self._division_maps: dict[tuple[int, ...], tuple] = {}

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

    def _products(self):
        """Per key i: (keys j with i + j admissible, index of i + j)."""
        if self._product_table is None:
            caps = np.array(self.caps, dtype=np.int64)
            table = []
            for i in range(self.size):
                sums = self.keys[i] + self.keys
                src = np.flatnonzero(
                    np.all(sums <= caps, axis=1) & (sums.sum(axis=1) <= self.total_cap)
                )
                table.append((src, np.searchsorted(self._codes, sums[src] @ self._weights)))
            self._product_table = table
        return self._product_table

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise truncated product of two (B, N) batches."""
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
        table = self._products()
        for i in np.flatnonzero(np.any(a != 0, axis=tuple(range(a.ndim - 1)))):
            src, tgt = table[i]
            out[..., tgt] += a[..., i, None] * b[..., src]
        return out

    def _divide_maps(self, form: tuple[int, ...]):
        """Quotient map and remainder map of division by the integer form.

        Column k of the quotient map is divide_linear applied to the k-th
        key; the remainder map is identity minus form times quotient, kept
        on the keys free of the pivot variable, which is where divide_linear
        leaves what it cannot divide.
        """
        if form not in self._division_maps:
            weights = dict(zip(self._names, form))
            quotient = np.zeros((self.size, self.size), dtype=complex)
            for k, key in enumerate(self.keys.tolist()):
                q, _ = divide_linear(
                    monomial(self._names, self.caps, key, total_cap=self.total_cap), weights
                )
                quotient[:, k] = self.dense(q)
            linear = self.dense(linear_form(weights, self._names, self.caps, self.total_cap))
            remainder = np.eye(self.size, dtype=complex) - self.mul(linear, quotient.T).T
            pivot = next(i for i, w in enumerate(form) if w != 0)
            free = self.keys[:, pivot] == 0
            self._division_maps[form] = (quotient.T.copy(), remainder[free].T.copy())
        return self._division_maps[form]

    def divide(self, numer: np.ndarray, form) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise exact division by an integer linear form.

        Returns (quotient batch, per-row remainder bound), matching
        divide_linear on every row.  A batch with fewer rows than the space
        has keys is divided row by row, so the N x N division maps are only
        built, and only ever applied, where they are no larger than the batch
        and memory stays O(B * N).  Building maps for every space instead
        costs N divide_linear calls and an N x N product per (space, form):
        verify plus reduce of root_a2 at M=300, M_outer=400 (N up to about
        1300) then takes 19 s and 3.4 GB on a 2-core machine, against 0.3 s
        and 35 MB with this split.
        """
        form = tuple(int(w) for w in form)
        if len(numer) < self.size:
            weights = dict(zip(self._names, form))
            rows = [divide_linear(self.series(self._names, row), weights) for row in numer]
            quotient = np.array([self.dense(q) for q, _ in rows]).reshape(numer.shape)
            return quotient, np.array([rem for _, rem in rows])
        quotient, remainder = self._divide_maps(form)
        return numer @ quotient, np.abs(numer @ remainder).max(axis=1, initial=0.0)


@functools.lru_cache(maxsize=256)
def dense_space(caps: tuple[int, ...], total_cap: int) -> DenseSpace:
    """The shared DenseSpace for (caps, total_cap)."""
    return DenseSpace(tuple(caps), total_cap)
