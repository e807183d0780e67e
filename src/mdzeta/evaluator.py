"""Numerical evaluation: direct shell sums, tail control, and verification.

Both sides walk an integer box in lexicographic order, bucket the terms
into max-norm shells and total the shells with math.fsum, keeping
per-shell magnitudes for tail work.  The direct side is the series over
[1, M]^r, summed tile by tile (_box_shells): the weights 1/form^k that
couple a run of leading tuples to a run of m_r are read from one strided
window per form over its 1/f^k table, one mask per tile sends each term
to its row's or its column's shell, and the factors of each run alone
come from _weights.  For r >= 2, _face_shells instead sums one
coordinate of each shell face in closed form: along a row the summand is
a rational function of that coordinate, so partial fractions, vectorised
over the rows, turn its sum into differences of tabulated suffix sums,
in O(M^(r-1)) work per pole order.  Shells where the pieces cancel too
much come from the box.  _direct_shells runs the engine direct_cost
counts cheaper.  The reduced side is, per nonempty subset J, the outer
sum over [1, M_outer]^|Jbar| of G's top coefficient, each block of outer
tuples weighed by _weights.  Partial sums are then
refined by fitting the shell decay (a + b log n)/n^w on a trailing
window and integrating the fit past the box; the fit is attempted only
when a component is decaying with a fixed sign, and every correction
carries its own uncertainty.
verify_parity ties the two sides together; as h, k and A are
real, it takes zeta(-y) as the conjugate of zeta(y).  The module returns
numbers (sums, terms, a VerificationReport); cli renders every report.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .genfun import GeneratingFunctionPlan
from .model import (
    WORK_BUDGET,
    SeriesSpec,
    SpecError,
    nonempty_subsets,
    subset_classes,
    subset_context,
    wt,
)
from .phase import unit_phase


@dataclass(frozen=True)
class PartialSum:
    """A compensated box sum with a crude one-shell tail heuristic."""

    value: complex
    M: int
    terms: int
    tail_estimate: float
    # the sum over each shell max(m) = n, n = 1..M, kept for the tail fit
    shells: np.ndarray = field(
        default_factory=lambda: np.zeros(0, complex), repr=False, compare=False
    )

    def conjugate(self) -> PartialSum:
        return replace(self, value=_conj(self.value), shells=self.shells.conjugate())


@dataclass(frozen=True)
class RefinedSum:
    """Partial sum plus fitted tail correction and its uncertainty."""

    partial: PartialSum
    correction: complex
    uncertainty: float
    fitted: bool

    @property
    def value(self) -> complex:
        return self.partial.value + self.correction

    def conjugate(self) -> RefinedSum:
        """The same sum over the conjugate terms: value, shells and correction conjugated."""
        return RefinedSum(
            self.partial.conjugate(), _conj(self.correction), self.uncertainty, self.fitted
        )


@dataclass(frozen=True)
class TermSummary:
    """One subset J of the reduction: sign * (outer sum of coefficients)."""

    J: tuple[int, ...]
    I: tuple[int, ...]
    sign: int
    refined: RefinedSum
    rho: tuple[int, ...]
    exact: bool  # True when J is everything: no outer sum, no tail
    unit_D: complex  # D = top coefficient times factorials at m = (1, ..., 1)

    @property
    def value(self) -> complex:
        """sign times the refined sum, with an exact zero part read as +0."""
        v = self.sign * self.refined.value
        return complex(v.real + 0.0, v.imag + 0.0)


@dataclass(frozen=True)
class RhsBreakdown:
    total: complex
    tails_total: float
    terms: tuple[TermSummary, ...]


def _conj(z: complex) -> complex:
    """The complex conjugate, with a zero imaginary part kept as +0."""
    return complex(z.real, -z.imag + 0.0)


def _fsum(values) -> complex:
    """Correctly rounded sum of complex values, each part by math.fsum."""
    values = np.asarray(values, dtype=complex)
    return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))


def _summed(shells, abs_shells, terms: int, w) -> RefinedSum:
    """Correctly rounded total of the shells, with fit_tail's correction; its fallback band
    is the last shell's magnitude, times n / (w - 1) for n shells of decay power w > 1."""
    last = float(abs_shells[-1]) if len(abs_shells) else 0.0
    est = last * len(abs_shells) / (w - 1) if w is not None and w > 1 else last
    partial = PartialSum(_fsum(shells), len(shells), terms, est, np.asarray(shells))
    return RefinedSum(partial, *fit_tail(partial.shells, w=w, band=est))


# ------------------------------------------------------- box rows and weights


def _box_rows(start: int, stop: int, M: int, f: int) -> np.ndarray:
    """Rows start..stop-1 of [1, M]^f in lexicographic order, as an (n, f) array."""
    index = np.arange(start, stop, dtype=np.int64)
    rows = np.empty((len(index), f), dtype=np.int64)
    for j in range(f - 1, -1, -1):
        index, digit = np.divmod(index, M)
        rows[:, j] = digit + 1
    return rows


def _twist_table(y: Fraction, M: int) -> np.ndarray:
    """e(m y) for m = 0..M, from the conjugation-stable unit_phase.

    e(m y) has period q = denominator of y in m, and m = 0..q-1 give
    distinct residues, so unit_phase runs at min(q, M + 1) points only.
    For q > M those points are the whole table, and m is never reduced
    mod q (which may not fit in int64).
    """
    q = y.denominator
    period = np.array(
        [unit_phase(Fraction(k * y.numerator, q)) for k in range(min(q, M + 1))], dtype=complex
    )
    return period if q > M else period[np.arange(M + 1) % q]


def _weights(rows: np.ndarray, h, twists, forms) -> tuple[np.ndarray, np.ndarray]:
    """Magnitude and phase of the term weight at each row m of box rows.

    The f columns of rows are variables with exponents h and twist tables
    twists (from _twist_table); forms are (coefficients over the f
    variables, exponent k) for the forms that meet only those variables.
    The magnitude is prod_j 1/m_j^h_j * prod 1/form(m)^k, the phase e(<m, y>).
    """
    magnitude = np.ones(len(rows))
    phase = np.ones(len(rows), dtype=complex)
    for column, e, table in zip(rows.T, h, twists):
        magnitude = magnitude * column.astype(float) ** -e
        phase = phase * table[column]
    for coefficients, k in forms:
        magnitude = magnitude * (rows @ np.array(coefficients, dtype=np.int64)).astype(float) ** -k
    return magnitude, phase


# ---------------------------------------------------------------- direct side


# The direct side walks the box [1, M]^r in blocks of at most this many terms.
_DIRECT_BLOCK = 2**14


def _parts(spec: SeriesSpec) -> int:
    """How many of [abs, re, im] a term needs: 1 untwisted, 2 if every e(m y_j) is real."""
    # an untwisted term equals its magnitude, and e(m/2) is real
    return 1 if not any(spec.y) else 2 if all(v.denominator <= 2 for v in spec.y) else 3


def _times(a, b) -> list:
    """Parts [abs, re, im] of a * b from those of a and b; [abs] or [abs, re] if real."""
    out = [a[0] * b[0]]
    if len(a) == 2:
        out.append(a[1] * b[1])
    elif len(a) == 3:
        out += [a[1] * b[1] - a[2] * b[2], a[1] * b[2] + a[2] * b[1]]
    return out


def _box_shells(spec: SeriesSpec, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum and abs-sum of the terms over each shell max(m) = n of [1, M]^r, term by term.

    Returns two arrays indexed by n - 1.  The box is walked in lexicographic
    order in tiles of at most _DIRECT_BLOCK terms: a run of leading tuples
    (m_1, ..., m_{r-1}) from _box_rows times a run of m_r.  A tile holds
    only the weights 1/form_i^k_i that couple the two, read from one strided
    window per form over its 1/f^k table; the leading and last-coordinate
    factors are _weights of their own variables, kept as per-row and
    per-column part vectors [abs, re, im].  A term belongs to shell
    max(L, m_r), L its leading tuple's max: one mask m_r > L per tile sends
    each term either to a contraction over the columns, whose per-row sums
    are bucketed by L, or to a contraction over the rows, which gives the
    columns' shells.  A box whose _box_work passes WORK_BUDGET, which the
    face route may hand back, is refused (SpecError) before it is built.
    """
    if (work := _box_work(spec, M)) > WORK_BUDGET:
        raise SpecError(f"the box [1, {M}]^{spec.r} needs a work of {work}, over the work budget "
                        f"of {WORK_BUDGET}")
    r = spec.r
    cols = min(M, max(math.isqrt(_DIRECT_BLOCK), _DIRECT_BLOCK // M ** (r - 1)))
    rows = max(1, _DIRECT_BLOCK // cols)
    # the padding lets a short last run of m_r read a full window's row
    pad = max(row[-1] for row in spec.A) * cols
    values = np.arange(spec.max_row_sum * M + 1 + pad, dtype=float)
    values[0] = 1.0  # never read
    inv_k = [values ** -k for k in spec.k]
    twist = [_twist_table(v, M) for v in spec.y]
    parts = _parts(spec)

    def split(magnitude, phase):
        return np.stack([magnitude, magnitude * phase.real, magnitude * phase.imag][:parts])

    sums = np.zeros((parts, M + 1))
    # windows[i][s, c] = 1/(s + a c)^k_i, a the last entry of row i of A
    windows = {
        i: sliding_window_view(table, row[-1] * (cols - 1) + 1)[:, ::row[-1]]
        for i, (row, table) in enumerate(zip(spec.A, inv_k)) if row[-1]
    }
    lead_A = np.array([row[:-1] for row in spec.A], dtype=np.int64)
    # forms free of m_r weigh the leading tuple alone: constant along its row
    lead_only = [(row[:-1], k) for row, k in zip(spec.A, spec.k) if not row[-1]]
    last_all = split(*_weights(_box_rows(0, M, M, 1), spec.h[-1:], twist[-1:], []))
    leading = M ** (r - 1)
    for start in range(0, leading, rows):
        lead_rows = _box_rows(start, min(start + rows, leading), M, r - 1)
        lead_max = lead_rows.max(axis=1, initial=0)
        lead_forms = lead_A @ lead_rows.T
        lead = split(*_weights(lead_rows, spec.h[:-1], twist[:-1], lead_only))
        lo, hi = int(lead_max.min()), int(lead_max.max())
        for first in range(1, M + 1, cols):
            width = min(cols, M + 1 - first)
            # A has no zero column, so some form varies along m_r
            tile = functools.reduce(np.multiply, (
                window[lead_forms[i] + spec.A[i][-1] * first, :width]
                for i, window in windows.items()
            ))
            last = last_all[:, first - 1:first - 1 + width]
            # a term with m_r > L is in its column's shell, any other in its row's
            above = np.arange(first, first + width) > lead_max[:, None]
            per_row = _times(lead, ((tile * ~above) @ last.T).T)
            for total, part in zip(sums, per_row):
                total[lo:hi + 1] += np.bincount(lead_max - lo, weights=part)
            per_col = _times(lead @ (tile * above), last)
            for total, part in zip(sums, per_col):
                total[first:first + width] += part
    shells = np.zeros(M, dtype=complex)
    shells.real = sums[min(parts, 2) - 1][1:]  # an untwisted term is its magnitude
    if parts == 3:
        shells.imag = sums[2][1:]
    return shells, sums[0][1:]


def _suffix_sums(x: np.ndarray, b: int) -> np.ndarray:
    """S[i] = x[i] + x[i + b] + x[i + 2b] + ..., summed from the large end; b divides len(x)."""
    runs = x.reshape(-1, b)
    out = np.empty_like(runs)
    np.cumsum(runs[::-1], axis=0, out=out[::-1])
    return out.reshape(-1)


def _series(scale, c, mu, factors):
    """[d_1, ..., d_mu] of one pole from the other poles' factors (s, x, nu).

    d_j is the coefficient of v^(mu - j) in scale * prod (c x)^nu sum_i
    C(nu + i - 1, i) (s x)^i v^i; None stands for an exact zero.
    """
    series = [scale]  # coefficients of v^0, v^1, ...
    for s, x, nu in factors:
        # by products: numpy's power is several times slower on negative values
        term = functools.reduce(np.multiply, [x if c == 1 else c * x] * nu)
        factor = [term]
        for i in range(1, mu):
            term = term * x * (s * (nu + i - 1) / i)
            factor.append(term)
        series = [
            functools.reduce(np.add, [a * b for a, b in zip(series[:e + 1], factor[e::-1])])
            for e in range(mu)
        ]
    return [None] * (mu - len(series)) + series[::-1]


def _pole_coefficients(poles, scale) -> list[list]:
    """Partial fractions, per row, of scale * prod (c u + L)^-mu over poles (c, L, mu).

    L is an integer array over rows, or 0 for the pole at u = 0, and the
    poles -L/c are distinct on every row.  Returns per pole the pairs (d_j,
    m_j), j = 1..mu, with sum d_j (c u + L)^-j over poles and j equal to
    the product; m_j sums the magnitudes of the terms d_j is made of, so
    it bounds d_j's rounding.  Near the pole, in v = c u + L, another
    pole's factor (c' u + L')^-nu is c^nu (delta + c' v)^-nu with the
    integer delta = c L' - c' L, whose series is c^nu delta^-nu sum_i C(nu
    + i - 1, i) (-c' / delta)^i v^i (_series).
    """
    inverse = {}
    for p, (c, L, _) in enumerate(poles):
        for q, (c2, L2, _) in enumerate(poles[:p]):
            # the pole at 0 comes first, with c = 1 and L = 0
            delta = L if q == 0 else (L2 if c == 1 else c * L2) - (L if c2 == 1 else c2 * L)
            inverse[q, p] = (1.0 if q == 0 else -1.0) / delta
            inverse[p, q] = -inverse[q, p]
    out = []
    for p, (c, _, mu) in enumerate(poles):
        factors = [(c2, inverse[p, q], nu) for q, (c2, _, nu) in enumerate(poles) if q != p]
        signed = _series(scale, c, mu, [(-c2, x, nu) for c2, x, nu in factors])
        if mu > 1 and len(factors) > 1:  # a d_j sums several terms
            bound = _series(scale, c, mu, [(c2, np.abs(x), nu) for c2, x, nu in factors])
        else:
            bound = [d if d is None else np.abs(d) for d in signed]
        out.append(list(zip(signed, bound)))
    return out


# The face route walks its rows in blocks of at most this many.  Timed on
# a3 and mt_r3 at M 200, 2^12 rows ran 1.2-1.4 times faster than 2^14.
_FACE_BLOCK = 2**12
# A unit_phase call (~2.2 us) in terms of _box_shells (~4.4 ns at M 2400), for direct_cost.
_PHASE_COST = 500


def _face(spec: SeriesSpec, u: int):
    """What summing coordinate u + 1 in closed form needs of spec, for any row.

    Returns (others, c, rest, moving, meet, mu, scale): the other
    coordinates; c_i, form i's coefficient of u; rest[i], its (coefficient,
    position in others) pairs; the forms with both, whose poles are at
    -L_i / c_i, L_i the form at u = 0; the pairs (a, b), b < a, of moving
    forms whose poles may coincide; and the order and constant that u^-h
    and the forms in u alone, (c u)^-k, give the pole at 0.  Poles i and j
    coincide where c_j L_i - c_i L_j = 0, never if its coefficients are
    nonzero and of one sign, as every m_j >= 1.
    """
    # in Python ints: A is small, and numpy's per-call cost would dominate
    others = [j for j in range(spec.r) if j != u]
    c = [row[u] for row in spec.A]
    rest = [[(row[j], p) for p, j in enumerate(others) if row[j]] for row in spec.A]
    moving = [i for i in range(spec.ell) if c[i] and rest[i]]
    meet = [
        (a, b) for a, i in enumerate(moving) for b, j in enumerate(moving[:a])
        if not any(w := [c[j] * spec.A[i][o] - c[i] * spec.A[j][o] for o in others])
        or min(w) < 0 < max(w)
    ]
    alone = [i for i in range(spec.ell) if not rest[i]]
    mu = spec.h[u] + sum(spec.k[i] for i in alone)
    return others, c, rest, moving, meet, mu, math.prod(float(c[i]) ** -spec.k[i] for i in alone)


def _face_shells(spec: SeriesSpec, M: int) -> tuple[np.ndarray, np.ndarray]:
    """_box_shells of an r >= 2 spec, with one coordinate of every term in closed form.

    Shell n is split into r faces, face j holding the terms whose first
    coordinate equal to n is m_j.  Faces 1..r-1 together are the leading
    tuples (m_1, ..., m_(r-1)) of max n, with u = m_r summed over [1, n];
    face r is the tuples (m_1, ..., m_(r-2), n) below n, with u = m_(r-1)
    summed over [1, n - 1] at m_r = n.  At r = 2 these are the row m_1 =
    n and the column m_2 = n.  Both walk [1, M]^(r-1) in blocks of about
    _FACE_BLOCK rows, face r keeping the rows whose last entry is above
    the rest.  On a row the summand is e(u y) u^-h prod (c_i u + L_i)^-k_i
    with integer L_i (_face): forms free of u are constant on the row,
    forms in u alone join the pole at 0, and the rows where some other
    poles coincide are grouped by which.  Per group, partial fractions
    (_pole_coefficients) make each row's sum a combination of differences
    of suffix sums (table) at s = L + c and s = L + c (top + 1), each
    times e(-floor(L / c) y), since floor(s / c) - floor(L / c) = u on s =
    c u + L.  Rounding in the pieces of a shell costs up to about 7 * 2^-53
    times their magnitude (measured against exact sums on 760 instances, r
    = 2, 3 and 4, h and k up to 6).  So shells 1..n0 whose pieces pass 2^10
    times the abs shell, where the error could pass 2^-40 ~ 9.1e-13 of it,
    come from _box_shells over [1, n0]^r, and a coefficient past the float
    range sends the whole box there.
    """
    r, parts = spec.r, _parts(spec)
    faces = {u: _face(spec, u) for u in (r - 1, r - 2)}
    size = spec.max_row_sum * M + 1  # every form value on the box is below size
    values = np.arange(size, dtype=float)
    values[0] = 1.0  # never read
    power = {e: values**-e for e in {*spec.h, *spec.k}}
    # e(t y) for t <= M, and up to size on a summed coordinate, real when
    # every twist is; e(-t y) is its conjugate
    twist = {v: _twist_table(v, size if v in spec.y[-2:] else M) for v in spec.y if parts > 1}
    if parts == 2:
        twist = {v: phase.real for v, phase in twist.items()}
    downs = {u: twist[spec.y[u]].conj() for u in faces if parts > 1 and spec.y[u]}
    memo = {}

    def table(c, j, y):
        """Suffix sums in steps of c of s^-j e(floor(s / c) y), at position s - c."""
        if (c, j, y) not in memo:
            runs = -(-size // c)  # values of floor(s / c) from 1 on
            x = np.arange(c, c * (runs + 1), dtype=float) ** -j
            if y:
                x = (x.reshape(-1, c) * twist[y][1:runs + 1, None]).reshape(-1)
            memo[c, j, y] = _suffix_sums(x, c)
        return memo[c, j, y]

    sums = np.zeros((parts + 1, M + 1))  # abs, [re, [im]], pieces per shell

    def lines(u, rows, shell, top):
        """Add to sums the rows (columns of the other coordinates) summed over u in [1, top]."""
        others, c, rest, moving, meet, mu0, scale0 = faces[u]
        L = [
            functools.reduce(np.add, [rows[p] if a == 1 else a * rows[p] for a, p in pairs])
            if pairs else None for pairs in rest
        ]
        magnitude = functools.reduce(np.multiply, [
            *(power[spec.h[j]][col] for col, j in zip(rows, others)),
            *(power[k][L[i]] for i, k in enumerate(spec.k) if not c[i]),
        ])
        if scale0 != 1:
            magnitude *= scale0
        same = [
            (a, b, L[moving[a]] * c[moving[b]] == L[moving[b]] * c[moving[a]]) for a, b in meet
        ]
        groups = [(range(len(moving)), slice(None))]  # (pattern, rows) with distinct poles
        if same and (special := functools.reduce(np.logical_or, [eq for *_, eq in same])).any():
            # per row, firsts[a] is the first moving form whose pole is moving[a]'s
            (sub,) = np.nonzero(special)
            firsts = np.tile(np.arange(len(moving)), (len(sub), 1))
            for a, b, eq in reversed(same):
                firsts[eq[sub], a] = b
            patterns, which = np.unique(firsts, axis=0, return_inverse=True)
            groups = [(range(len(moving)), np.nonzero(~special)[0])] + [
                (pattern, sub[which.reshape(-1) == g])
                for g, pattern in enumerate(patterns.tolist())
            ]
        y, down = (spec.y[u], downs[u]) if u in downs else (0, None)
        for pattern, g in groups:
            scale, order = magnitude[g], {}
            for i, b in zip(moving, pattern):
                f = moving[b]
                order[f] = order.get(f, 0) + spec.k[i]
                if i != f:  # c_i u + L_i = (c_i / c_f) (c_f u + L_f)
                    scale = scale * (c[i] / c[f]) ** -spec.k[i]
            poles = [(1, 0, mu0)] + [(c[f], L[f][g], mu) for f, mu in order.items()]
            U = top[g]
            inner, abs_inner, pieces = 0.0, 0.0, 0.0
            for (cp, Lp, _), ds in zip(poles, _pole_coefficients(poles, scale)):
                hi = Lp + (U if cp == 1 else cp * U)
                twisted = 0.0
                for j, (d, bound) in enumerate(ds, start=1):
                    if d is None:
                        continue
                    T = table(cp, j, 0)
                    at_lo, at_hi = T[Lp], T[hi]
                    abs_inner = abs_inner + d * (at_lo - at_hi)
                    pieces = pieces + bound * (at_lo + at_hi)
                    if y:
                        T = table(cp, j, y)
                        twisted = twisted + d * (T[Lp] - T[hi])
                if y:
                    inner = inner + twisted * down[Lp // cp]
            parts_g = [abs_inner]
            if parts > 1:
                value = functools.reduce(np.multiply, [
                    twist[spec.y[j]][col[g]] for col, j in zip(rows, others) if spec.y[j]
                ], inner if y else abs_inner)
                parts_g += [value] if parts == 2 else [value.real, value.imag]
            for total, part in zip(sums, parts_g + [pieces]):
                total += np.bincount(shell[g], weights=part, minlength=M + 1)

    count = max(1, _FACE_BLOCK // M)  # prefixes (m_1, ..., m_(r-2)) per block
    try:
        with np.errstate(over="raise"):
            for start in range(0, M ** (r - 2), count):
                prefix = _box_rows(start, min(start + count, M ** (r - 2)), M, r - 2)
                rows = [np.repeat(col, M) for col in prefix.T]
                last = np.tile(np.arange(1, M + 1), len(prefix))
                below = np.repeat(prefix.max(axis=1, initial=0), M)
                shell = np.maximum(below, last)
                lines(r - 1, rows + [last], shell, shell)
                (above,) = np.nonzero(last > below)
                rows = [col[above] for col in rows + [last]]
                lines(r - 2, rows, rows[-1], rows[-1] - 1)
    except (FloatingPointError, OverflowError):  # a coefficient beyond the float range
        return _box_shells(spec, M)
    abs_shells, pieces = sums[0][1:], sums[-1][1:]
    shells = np.zeros(M, dtype=complex)
    shells.real = sums[min(parts, 2) - 1][1:]  # an untwisted term is its magnitude
    if parts == 3:
        shells.imag = sums[2][1:]
    (ill,) = np.nonzero(~(pieces <= 2**10 * abs_shells))  # NaN counts as ill
    if ill.size:
        n0 = int(ill[-1]) + 1
        shells[:n0], abs_shells[:n0] = _box_shells(spec, n0)
    return shells, abs_shells


def _box_work(spec: SeriesSpec, M: int) -> int:
    """_box_shells' work: M^r terms, and _PHASE_COST per point its twist tables compute."""
    return M**spec.r + _PHASE_COST * sum(min(v.denominator, M + 1) for v in spec.y if v)


def direct_cost(spec: SeriesSpec, M: int) -> tuple[str, int]:
    """("box" or "faces", work): the cheaper engine for [1, M]^r, and its work.

    Work counts terms of the box (_box_work).  The route by faces (r >= 2)
    costs 0.3 per row (blocks of _FACE_BLOCK rows, however few) times the
    pole orders times the poles a row of each face expands into, 2 per
    suffix-table entry, and _PHASE_COST per twist-table point.  Fitted to
    min-of-9 timings of both engines on a 2-core Xeon (480 boxes, r = 2 to
    5): the engine picked ran 1.0 % longer than the faster on average, and
    at most 1.6 times as long.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    box, size = _box_work(spec, M), spec.max_row_sum * M + 1  # form values are below size
    if spec.r == 1:
        return "box", box
    expanded, tables = 0, set()
    for u in (spec.r - 1, spec.r - 2):
        _, c, _, moving, _, mu, _ = _face(spec, u)
        poles = [(1, mu)] + [(c[i], spec.k[i]) for i in moving]
        expanded += sum(order for _, order in poles) * len(poles)
        tables |= {(a, j, y) for a, order in poles for j in range(order) for y in {0, spec.y[u]}}
    points = sum(min(v.denominator, (size if v in spec.y[-2:] else M) + 1) for v in {*spec.y} - {0})
    route = 3 * expanded * max(M ** (spec.r - 1), _FACE_BLOCK) // 10 + 2 * len(tables) * size
    route += _PHASE_COST * points
    return ("faces", route) if route < box else ("box", box)


def _direct_shells(spec: SeriesSpec, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum and abs-sum of each shell max(m) = n of [1, M]^r by the engine direct_cost picks."""
    return (_face_shells if direct_cost(spec, M)[0] == "faces" else _box_shells)(spec, M)


def _direct_power(spec: SeriesSpec) -> int:
    """Decay power w of the direct shells, which fall off as n^-w.

    w is the minimum over variable sets S of (sum of h_j over S) + (sum of
    k_i over the forms meeting S) - |S| + 1.  Adding a variable to S adds
    h_j - 1 >= 0 or more, so the minimum is at a single variable.
    """
    return min(h + sum(k for k, row in zip(spec.k, spec.A) if row[j]) for j, h in enumerate(spec.h))


def zeta_direct(spec: SeriesSpec, M: int) -> PartialSum:
    """Compensated sum of the series over the box [1, M]^r: zeta_refined's partial sum."""
    return zeta_refined(spec, M).partial


def zeta_refined(spec: SeriesSpec, M: int) -> RefinedSum:
    """Direct sum plus fitted tail; the honest estimate of the series value."""
    return _summed(*_direct_shells(spec, M), M**spec.r, _direct_power(spec))


# ------------------------------------------------------------------ tail fits


def _fit_window(count: int) -> np.ndarray:
    """Shell indices n of the trailing window a tail fit uses, for count shells."""
    window = min(max(16, count // 4), count - 1)
    return np.arange(count - window + 1, count + 1, dtype=float)


def _power_estimate(abs_shells) -> float | None:
    count = len(abs_shells)
    if count < 8:
        return None
    ns = _fit_window(count)
    vals = np.array(abs_shells[-len(ns):], dtype=float)
    mask = vals > 0
    if mask.sum() < 6:
        return None
    design = np.column_stack([np.ones(mask.sum()), np.log(ns[mask])])
    coef, *_ = np.linalg.lstsq(design, np.log(vals[mask]), rcond=None)
    return -float(coef[1])


def _fit_component(ns, comp, w, X, peak):
    """(correction, uncertainty, regular?) for one real component."""
    cpeak = float(np.max(np.abs(comp))) if comp.size else 0.0
    if cpeak <= 1e-12 * peak:
        return 0.0, 0.0, True  # negligible against the other component
    significant = comp[np.abs(comp) > 1e-3 * cpeak]
    if significant.size == 0 or not (
        np.all(significant > 0) or np.all(significant < 0)
    ):
        return 0.0, 0.0, False  # oscillating; a decay fit would be fiction
    z = comp * ns**w
    design = np.column_stack([np.ones_like(ns), np.log(ns)])
    coef, *_ = np.linalg.lstsq(design, z, rcond=None)
    a, b = (float(coef[0]), float(coef[1]))
    rms = float(np.sqrt(np.mean((z - design @ coef) ** 2)))
    scale = X ** (1.0 - w)
    correction = scale * ((a + b * math.log(X)) / (w - 1) + b / (w - 1) ** 2)
    uncertainty = 3.0 * rms * scale / (w - 1) + 0.05 * abs(correction)
    return correction, uncertainty, True


def fit_tail(shells, w, band: float = 0.0):
    """Fitted tail correction for a shell sequence.

    Returns (correction, uncertainty, fitted).  w is the decay power of the
    shells, None where it is unknown.  band is the fallback uncertainty when
    no trustworthy fit exists.
    """
    count = len(shells)
    if count < 8:
        return 0.0 + 0.0j, band, False
    ns = _fit_window(count)
    vals = np.array(shells[-len(ns):], dtype=complex)
    peak = float(np.max(np.abs(vals)))
    if peak == 0.0:
        return 0.0 + 0.0j, 0.0, True
    if w is None or w <= 1.2:
        return 0.0 + 0.0j, band, False
    X = count + 0.5
    corr_re, unc_re, ok_re = _fit_component(ns, vals.real, w, X, peak)
    corr_im, unc_im, ok_im = _fit_component(ns, vals.imag, w, X, peak)
    fitted = ok_re and ok_im
    uncertainty = unc_re + unc_im + (0.0 if fitted else band)
    return complex(corr_re, corr_im), uncertainty, fitted


# --------------------------------------------------------------- reduced side


# Outer tuples are evaluated in blocks of at most this many rows; the plan
# chunks a block further where its tables are wide (genfun._BATCH_ENTRIES).
_OUTER_BLOCK = 4096


def term_sign(spec: SeriesSpec, ctx) -> int:
    outer_h = wt(spec.h[j - 1] for j in ctx.Jbar)
    outer_k = wt(spec.k[i - 1] for i in ctx.Ibar)
    return -1 if (outer_h + outer_k + spec.r + len(ctx.I)) % 2 else 1


def term_T(plan: GeneratingFunctionPlan, M_outer: int) -> TermSummary:
    """The contribution of the plan's subset J to the reduced side: its
    outer sum over [1, M_outer]^|Jbar|, or G's top coefficient at J = [r]."""
    spec, ctx = plan.spec, plan.ctx
    sign = term_sign(spec, ctx)
    factorials = math.prod(math.factorial(c) for c in plan.caps)
    if not ctx.Jbar:
        value = complex(plan.top_coefficients(np.zeros((1, 0), dtype=np.int64))[0])
        refined = RefinedSum(PartialSum(value, M=0, terms=1, tail_estimate=0.0), 0j, 0.0, True)
        return TermSummary(ctx.J, ctx.I, sign, refined, plan.rho, True, value * factorials)
    if M_outer < 1:
        raise ValueError("M_outer must be >= 1")
    f = len(ctx.Jbar)
    h = [spec.h[j - 1] for j in ctx.Jbar]
    twists = [_twist_table(-spec.y[j - 1], M_outer) for j in ctx.Jbar]
    forms = [([spec.a(i, j) for j in ctx.Jbar], spec.k[i - 1]) for i in ctx.Ibar]
    sums = np.zeros((3, M_outer + 1))  # abs, re, im per shell max(m) = n
    unit_raw = None
    for start in range(0, M_outer**f, _OUTER_BLOCK):
        rows = _box_rows(start, min(start + _OUTER_BLOCK, M_outer**f), M_outer, f)
        raw = plan.top_coefficients(rows)
        if unit_raw is None:
            unit_raw = complex(raw[0])  # the first row is (1, ..., 1)
        magnitude, phase = _weights(rows, h, twists, forms)
        values = magnitude * phase * raw
        labels = rows.max(axis=1)
        lo, hi = int(labels.min()), int(labels.max())
        for total, part in zip(sums, (np.abs(values), values.real, values.imag)):
            total[lo:hi + 1] += np.bincount(labels - lo, weights=part)
    shells = np.empty(M_outer, dtype=complex)
    shells.real, shells.imag = sums[1, 1:], sums[2, 1:]
    abs_shells = sums[0, 1:]
    w = _power_estimate(abs_shells)
    refined = _summed(shells, abs_shells, M_outer**f, w)
    return TermSummary(ctx.J, ctx.I, sign, refined, plan.rho, False, unit_raw * factorials)


def rhs_total(spec: SeriesSpec, M_outer: int, rho_variant: int = 0) -> RhsBreakdown:
    """Sum of the reduced-side contributions over all nonempty subsets J.

    Terms come in nonempty_subsets order.  Subsets whose data agree up to
    relabelling (model.subset_classes) share one evaluation: the first
    member of each class gets a plan, and the first plan whose coset
    representatives times outer tuples pass WORK_BUDGET is refused before
    any coset is enumerated.  term_T then sums each plan, dropped once its
    term is in, and every other member takes that term (sign, rho, refined
    sum, exact flag, unit_D) under its own J and I.
    """
    classes = subset_classes(spec)
    plans = {}
    for first, *_ in classes:
        plan = GeneratingFunctionPlan(spec, first, rho_variant=rho_variant)
        count, outer = plan.coset_count, len(plan.ctx.Jbar)
        if (work := count * M_outer**outer) > WORK_BUDGET:
            raise SpecError(
                f"--M-outer {M_outer} at J={set(first)} gives {count} coset representatives "
                f"times {M_outer}^{outer} outer tuples = {work}, over the work budget of "
                f"{WORK_BUDGET}"
            )
        plans[first] = plan
    by_J: dict[tuple[int, ...], TermSummary] = {}
    for first, *others in classes:
        by_J[first] = term_T(plans.pop(first), M_outer)
        for J in others:
            by_J[J] = replace(by_J[first], J=J, I=subset_context(spec, J).I)
    terms = [by_J[J] for J in nonempty_subsets(spec.r)]
    total = _fsum([t.value for t in terms])
    tails = sum(t.refined.uncertainty for t in terms)
    return RhsBreakdown(total=total, tails_total=tails, terms=tuple(terms))


# --------------------------------------------------------------- verification


def parity_sign(spec: SeriesSpec) -> int:
    """The sign (-1)^(wt + r + 1) pairing zeta(y) with zeta(-y)."""
    return -1 if (spec.weight + spec.r + 1) % 2 else 1


@dataclass(frozen=True)
class VerificationReport:
    """What verify_parity computes: both sides, the residual and the verdict."""

    zeta_plus: RefinedSum
    zeta_minus: RefinedSum
    parity_sign: int
    rhs: RhsBreakdown
    residual: float
    tails_total: float
    verdict: str

    @property
    def lhs_value(self) -> complex:
        return self.zeta_plus.value + self.parity_sign * self.zeta_minus.value

    @property
    def parity_case(self) -> str:
        return "symmetric" if self.parity_sign == 1 else "antisymmetric"

    def corollary(self) -> dict:
        return corollary(self.parity_sign, self.zeta_plus.value, self.rhs.total)


def corollary(sign: int, series: complex, total: complex) -> dict:
    """The one-sided consequence of the identity of parity sign: Re (or Im)
    of the series value from the reduced side's total."""
    if sign == 1:
        case, series_side, reduced_side = "real-part", series.real, total / 2
    else:
        case, series_side, reduced_side = "imag-part", series.imag, total / 2j
    return {
        "case": case,
        "series_side": series_side,
        "reduced_side": reduced_side,
        "delta": abs(complex(series_side, 0.0) - reduced_side),
    }


def verify_parity(
    spec: SeriesSpec,
    M: int,
    M_outer: int,
    tol: float = 1e-6,
    rho_variant: int = 0,
) -> VerificationReport:
    """Evaluate both sides of the parity identity and compare.

    Verdicts: 'pass' when the residual is within tol; 'inconclusive' when it
    exceeds tol but is explicable by the combined tail uncertainties; 'fail'
    otherwise.
    """
    # the reduced side first: when it cannot be assembled, no direct sum has run
    rhs = rhs_total(spec, M_outer, rho_variant=rho_variant)
    zp = zeta_refined(spec, M)
    zm = zp.conjugate()  # h, k and A are real: zeta(-y) is termwise conj(zeta(y))
    sign = parity_sign(spec)
    lhs = zp.value + sign * zm.value
    residual = abs(lhs - rhs.total)
    tails_total = zp.uncertainty + zm.uncertainty + rhs.tails_total
    if residual <= tol:
        verdict = "pass"
    elif residual <= tol + tails_total:
        verdict = "inconclusive"
    else:
        verdict = "fail"
    return VerificationReport(
        zeta_plus=zp,
        zeta_minus=zm,
        parity_sign=sign,
        rhs=rhs,
        residual=residual,
        tails_total=tails_total,
        verdict=verdict,
    )
