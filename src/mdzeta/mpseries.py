"""Truncated multivariate power series over complex coefficients, held dense.

A space is a per-variable degree cap and a total-degree cap.  DenseSpace
holds series in one space key-major: one series is an (N,) complex array
over the space's admissible keys and a batch of B series is an (N, B)
array, one column per series.  It multiplies a batch by a linear form or
shifts it by a signed monomial; divide_linear divides a batch exactly by
an integer linear form, in any space whose pivot variable has the total
cap, which is what makes removable singularities computable.  With
per-series scalars and matrix products these are all the series algebra
the generating-function layer needs to build its tables and to evaluate
many outer tuples at once.  The module also carries the exact Bernoulli
numbers and polynomials behind the Bernoulli factors of basis members.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import WORK_BUDGET


class SeriesError(ValueError):
    pass


class CapMismatch(SeriesError):
    pass


class CapExceeded(SeriesError):
    pass


class SingularConfiguration(SeriesError):
    """A pole that does not cancel; carries context from the caller."""


class OrderPastFloatRange(SeriesError):
    """A Bernoulli order n whose n! no float holds: n above MAX_BERNOULLI_ORDER."""


_I_POWERS = (1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j)
MAX_BERNOULLI_ORDER = 170  # the largest n whose n! a float holds


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
            (Fraction(math.comb(n, k)) * self.number(k) * x ** (n - k) for k in range(n + 1)),
            Fraction(0),
        )


BERNOULLI = BernoulliTable()


@dataclass(frozen=True, eq=False)
class MultiSeries:
    """A series as a dict from exponent tuples to coefficients."""

    variables: tuple[str, ...]
    caps: tuple[int, ...]
    total_cap: int
    coeffs: dict[tuple[int, ...], complex]


def _admissible(key, caps, total_cap) -> bool:
    return sum(key) <= total_cap and all(e <= c for e, c in zip(key, caps))


# Not called by the library; perfbench/tracer.py counts its calls by name.
def series_mul(a: MultiSeries, b: MultiSeries) -> MultiSeries:
    if a.variables != b.variables or a.caps != b.caps or a.total_cap != b.total_cap:
        raise CapMismatch("series live in different spaces")
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


def bernoulli_coefficients(nmax: int, offset) -> list[complex]:
    """B_n(offset) (2 pi i)^n / n! for n = 0..nmax, exactly 0 where B_n(offset) is.

    With offset = p/q and D the common denominator of B_0..B_nmax, the
    integer D q^n B_n(p/q) = sum_k C(n,k) (D B_k) p^(n-k) q^k is divided by
    D q^n in one correctly rounded step: the float of the exact B_n(p/q).
    """
    if nmax > MAX_BERNOULLI_ORDER:
        raise OrderPastFloatRange(
            f"Bernoulli order {nmax} is past float range (at most {MAX_BERNOULLI_ORDER})"
        )
    offset = Fraction(offset)
    p, q = offset.numerator, offset.denominator
    numbers = [BERNOULLI.number(k) for k in range(nmax + 1)]
    D = math.lcm(*(b.denominator for b in numbers))
    scaled = [b.numerator * (D // b.denominator) for b in numbers]
    out = []
    for n in range(nmax + 1):
        b = sum(math.comb(n, k) * scaled[k] * p ** (n - k) * q**k for k in range(n + 1))
        out.append(two_pi_i_power(n) * (b / (D * q**n) / math.factorial(n)) if b else 0j)
    return out


# ------------------------------------------------------------ dense batches


def pivot(form) -> int:
    """The pivot of division by a linear form: its variable of largest
    |weight|, the first such."""
    return max(range(len(form)), key=lambda i: abs(form[i]))


def key_count(caps, total_cap) -> int:
    """The number of keys of the (caps, total_cap) space, by a DP over the caps."""
    ways = [1] + [0] * total_cap  # ways[s]: keys over the caps so far of total s
    for c in caps:
        ways = [sum(ways[max(0, s - c):s + 1]) for s in range(total_cap + 1)]
    return sum(ways)


class DenseSpace:
    """The admissible keys of a (caps, total_cap) space, lexicographically.

    Series are key-major: one series is an (N,) complex array, and a batch
    of B series is an (N, B) array with one row per key and one column per
    series, so every product and division indexes keys on axis 0 and reads
    a single series and a batch through the same code.  Keys are the rows
    of an (N, nvars) array, coded in the mixed radix 2 * cap_i + 1 per
    variable; codes increase with the lexicographic order, and k +- e_i has
    the code of k +- weight_i, so every shifted key is found by one code
    subtraction and one searchsorted.  The O(N) index arrays of each shift
    and each divisor are memoized per space, and dense_space() shares one
    instance per space.  A space of more than WORK_BUDGET entries in its
    key array is refused before any key is built.
    """

    def __init__(self, caps: tuple[int, ...], total_cap: int):
        if any(c < 0 for c in caps) or total_cap < 0:
            raise SeriesError("negative cap")
        count = key_count(caps, total_cap)
        if count * len(caps) > WORK_BUDGET:
            raise SeriesError(
                f"series space of {count} keys over {len(caps)} variables is over "
                f"the work budget of {WORK_BUDGET}"
            )
        self.caps = caps
        self.total_cap = total_cap
        radices = [2 * c + 1 for c in caps]
        if math.prod(radices) >= 2**62:
            raise SeriesError("space too large to index")
        weights = [math.prod(radices[i + 1:]) for i in range(len(caps))]
        self._weights = np.array(weights, dtype=np.int64)
        keys = np.zeros((1, 0), dtype=np.int64)
        for c in caps:
            grown = [np.column_stack([keys, np.full(len(keys), e)]) for e in range(c + 1)]
            keys = np.concatenate(grown)
            keys = keys[keys.sum(axis=1) <= total_cap]
        codes = keys @ self._weights
        order = np.argsort(codes)
        self.keys = keys[order]
        self._codes = codes[order]
        self.size = len(self.keys)
        self._units = [tuple(row) for row in np.eye(len(caps), dtype=int).tolist()]
        self._pairs_cache: dict[tuple[int, ...], tuple] = {}
        self._division_cache: dict[tuple[int, ...], tuple] = {}

    def locate(self, keys) -> np.ndarray:
        """Column index of each key (rows of an array or a list of tuples)."""
        keys = np.asarray(keys, dtype=np.int64).reshape(-1, len(self.caps))
        codes = keys @ self._weights
        index = np.searchsorted(self._codes, codes)
        if not np.array_equal(self._codes[np.minimum(index, self.size - 1)], codes):
            raise CapExceeded("key outside the space")
        return index

    def _pairs(self, monomial: tuple[int, ...]):
        """(columns of the keys k >= monomial, columns of the keys k - monomial),
        cached; the space is closed downward, so each k - monomial is a key."""
        if monomial not in self._pairs_cache:
            targets = np.flatnonzero((self.keys >= monomial).all(axis=1))
            code = self._weights @ monomial
            sources = np.searchsorted(self._codes, self._codes[targets] - code)
            self._pairs_cache[monomial] = (targets, sources)
        return self._pairs_cache[monomial]

    def mul_linear(self, batch: np.ndarray, weights) -> np.ndarray:
        """Truncated product of each series of an (N,) or (N, B) batch with
        sum_i weights[i] t_i.

        One gather-add per nonzero weight, in increasing i, through the
        space's index arrays of the unit shift by t_i.  The space is closed
        downward, so every key of the product that stays inside it comes
        from a key of the batch, and the keys that leave it are simply never
        written.  Gathers and scatters are take() and one assignment on axis
        0, which numpy does faster than an in-place fancy-indexed add.
        """
        out = np.zeros(np.shape(batch), dtype=complex)
        for unit, w in zip(self._units, weights):
            if w:
                targets, sources = self._pairs(unit)
                added = out.take(targets, axis=0)
                added += w * batch.take(sources, axis=0)
                out[targets] = added
        return out

    def shift(self, batch: np.ndarray, monomial, sign: int = 1) -> np.ndarray:
        """Truncated product of each series of an (N,) or (N, B) batch with
        sign * t^monomial, for a nonzero monomial and sign +1 or -1.

        One gather: the key k of the product reads the batch at k -
        monomial, through the space's index arrays of that monomial, and
        keys that leave the space are never written.  Each value is 0.0 +
        sign * x, so a zero comes out +0.0 as from mul_linear's zero-filled
        sums, and the result is bitwise that of mul_linear by the monomial's
        unit keys in turn, with signs whose product is sign.
        """
        targets, sources = self._pairs(tuple(map(int, monomial)))
        out = np.zeros(np.shape(batch), dtype=complex)
        out[targets] = 0.0 + sign * batch.take(sources, axis=0)
        return out

    def _division_steps(self, form: tuple[int, ...]):
        """Index arrays of division by the integer form, cached per form.

        Returns (pivot weight, free columns, levels).  The pivot p is
        pivot(form), so every other weight is at most the one divided by
        and the rounding of one level is not amplified into the next.  Free
        columns are the keys without t_p.  Levels run from the highest
        pivot exponent e down to 1; each holds the columns of its keys, the
        columns of those keys minus e_p (where the quotient goes), and per
        other variable i of nonzero weight, in decreasing i: (w_i, the
        level's entries whose key - e_p + e_i is in the space, the columns
        of those keys), all found by code.  The pivot's cap must be the
        total cap, so every pivot exponent a key's total degree allows is
        there.  A move is dropped where the level's key already holds t_i
        at its cap: its target raises t_i past the cap, and the quotient at
        a key reads only keys with no more t_i than it has.
        """
        if form not in self._division_cache:
            if not any(form):
                raise SeriesError("division by the zero form")
            p = pivot(form)
            if self.caps[p] < self.total_cap:
                raise CapExceeded(
                    "division needs the pivot's cap at the total cap; widen the space"
                )
            others = [i for i in range(len(form) - 1, -1, -1) if form[i] and i != p]
            levels = []
            for e in range(int(self.keys[:, p].max(initial=0)), 0, -1):
                src = np.flatnonzero(self.keys[:, p] == e)
                lower = self._codes[src] - self._weights[p]
                moves = []
                for i in others:
                    inside = self.keys[src, i] < self.caps[i]
                    rows = slice(None) if inside.all() else np.flatnonzero(inside)
                    targets = np.searchsorted(self._codes, lower[rows] + self._weights[i])
                    moves.append((form[i], rows, targets))
                levels.append((src, np.searchsorted(self._codes, lower), moves))
            free = np.flatnonzero(self.keys[:, p] == 0)
            self._division_cache[form] = (form[p], free, levels)
        return self._division_cache[form]


@functools.lru_cache(maxsize=256)
def dense_space(caps: tuple[int, ...], total_cap: int) -> DenseSpace:
    """The shared DenseSpace for (caps, total_cap)."""
    return DenseSpace(tuple(caps), total_cap)


def divide_linear(space: DenseSpace, numer: np.ndarray, form) -> tuple[np.ndarray, np.ndarray]:
    """Exact division of each series of an (N,) or (N, B) batch by an
    integer linear form.

    Returns (quotient batch, per-series remainder bound: the largest
    coefficient magnitude that could not be divided out, 0.0 for an exact
    multiple; a scalar for one (N,) series, else (B,)).
    The pivot's cap must be the space's total cap; the other variables may
    keep smaller caps (see DenseSpace._division_steps).  The whole batch is
    divided level by level in the exponent of the pivot t_p, highest first:
    a key's quotient is its coefficient over w_p, and w_i times that
    quotient is taken off the key one t_p lower and one t_i higher, one
    level down, for every other variable t_i whose cap that key keeps.
    Keys at one level never feed each other, and each subtraction is one
    gather over the batch, so memory is O(B * N) for any batch size.  What
    is left on the keys of the space free of t_p is the remainder.
    """
    pivot_weight, free, levels = space._division_steps(tuple(int(w) for w in form))
    work = np.array(numer, dtype=complex, order="C")
    quotient = np.zeros_like(work)
    for src, qcols, moves in levels:
        level = work.take(src, axis=0)
        parts = level.view(float)  # each part on its own, as complex / int does
        parts /= pivot_weight
        quotient[qcols] = level
        for weight, rows, targets in moves:
            updated = work.take(targets, axis=0)
            updated -= weight * level[rows]
            work[targets] = updated
    left = work.take(free, axis=0)
    # hypot, as abs() of a Python complex; np.abs differs in the last bit
    return quotient, np.hypot(left.real, left.imag).max(axis=0, initial=0.0)
