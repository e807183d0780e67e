"""Numerical evaluation: direct shell sums, tail control, and verification.

Both sides walk an integer box in lexicographic order, bucket the terms
into max-norm shells and total the shells with math.fsum, keeping
per-shell magnitudes for tail work.  The direct side is the series over
[1, M]^r, summed tile by tile (_box_shells): the weights 1/form^k that
couple a run of leading tuples to a run of m_r are read from one strided
window per form over its 1/f^k table, one mask per tile sends each term
to its row's or its column's shell, and the factors of each run alone
come from _weights.  For r = 2 and M large enough, _direct_shells
instead sums each shell's row and column in O(M) work per pole order
(_r2_shells): the inner summand is a rational function whose poles scale
with the outer coordinate, so exact partial fractions turn each line sum
into differences of tabulated suffix sums; shells where the pieces
cancel too much come from the box.  The reduced side is, per nonempty
subset J, the outer sum over [1, M_outer]^|Jbar| of G's top coefficient,
each block of outer tuples weighed by _weights.  Partial sums are then
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
    slow: bool
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


def _partial(shells, abs_shells, M: int, terms: int, w) -> PartialSum:
    """Correctly rounded total of the shells, with the one-shell tail heuristic.

    The heuristic scales the last shell's magnitude by M / (w - 1) when the
    decay power w is above 1, and flags the sum as slow otherwise.
    """
    last = float(abs_shells[-1]) if len(abs_shells) else 0.0
    if w is not None and w > 1:
        est, slow = last * len(abs_shells) / (w - 1), False
    else:
        est, slow = last, True
    return PartialSum(_fsum(shells), M, terms, est, slow, np.asarray(shells))


def _refine(partial: PartialSum, w) -> RefinedSum:
    correction, uncertainty, fitted = fit_tail(partial.shells, w=w, band=partial.tail_estimate)
    return RefinedSum(partial, correction, uncertainty, fitted)


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
# An r = 2 box of side M below this is summed term by term: under it the
# partial-fraction route's fixed cost (exact coefficients, per-order numpy
# calls) outweighs the M^2 terms it saves.
_ROUTE_MIN_M = 256


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
    columns' shells.
    """
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


def _partial_fractions(h: int, forms) -> dict[tuple[int, int], list[Fraction]]:
    """u^-h prod (a + b u)^-k over forms (a, b, k), as sum of d_j (a' + b' u)^-j.

    Returns {(a', b'): [d_1, ..., d_mu]}, one entry per pole u = -a'/b', with
    a' >= 0 and b' > 0 coprime, and mu the pole's order.  Proportional forms
    share a pole, a form with a = 0 joins the pole (0, 1) at u = 0, and a
    form with b = 0 is a constant a^-k.  Near its pole, in v = a' + b' u,
    every other factor (c + d u)^-nu is b'^nu (delta + d v)^-nu with delta
    = c b' - d a' != 0, and delta^(nu + mu - 1) (delta + d v)^-nu is, to
    order mu - 1, the integer series sum_i C(nu + i - 1, i) (-d)^i
    delta^(mu - 1 - i) v^i.  d_j is the coefficient of v^(mu - j) in the
    product of these series, over the product of the scalings.
    """
    scale = Fraction(1)
    order = {(0, 1): h}
    for a, b, k in forms:
        g = math.gcd(a, b)
        scale /= g**k
        if b:
            pole = (a // g, b // g)
            order[pole] = order.get(pole, 0) + k
    poles = {}
    for (a, b), mu in order.items():
        series, numerator, denominator = [1] + [0] * (mu - 1), scale.numerator, scale.denominator
        for (c, d), nu in order.items():
            if (c, d) == (a, b):
                continue
            delta = c * b - d * a
            numerator *= b**nu
            denominator *= delta ** (nu + mu - 1)
            factor = [
                math.comb(nu + i - 1, i) * (-d) ** i * delta ** (mu - 1 - i) for i in range(mu)
            ]
            series = [sum(series[i] * factor[e - i] for i in range(e + 1)) for e in range(mu)]
        poles[a, b] = [Fraction(numerator * c, denominator) for c in reversed(series)]
    return poles


def _suffix_sums(x: np.ndarray, b: int) -> np.ndarray:
    """S[i] = x[i] + x[i + b] + x[i + 2b] + ..., summed from the large end; b divides len(x)."""
    runs = x.reshape(-1, b)
    out = np.empty_like(runs)
    np.cumsum(runs[::-1], axis=0, out=out[::-1])
    return out.reshape(-1)


def _line_sums(h_t, h_n, y_t, y_n, forms, M: int, last: int, parts: int):
    """Sums over t = 1..n - last of e(t y_t + n y_n) t^-h_t n^-h_n prod (a n + b t)^-k.

    forms are (a, b, k); n runs over 1..M.  Returns, per n, the sum (None
    when parts is 1: the terms are their magnitudes), the same sum at
    y = 0, and the magnitude of the pieces it is made of: the sum of
    |d_j| n^(j - W) times the two suffix sums at y = 0 it subtracts.  The
    inner factor is n^-W f(t/n), W the weight h_t + sum k, and f(u) =
    sum_p sum_j d_j (a_p + b_p u)^-j by _partial_fractions, so each piece
    is d_j n^(j - W) times a line sum of e(t y_t) (a_p n + b_p t)^-j.  With
    s = a_p n + b_p t that is e(-floor(a_p n / b_p) y_t) times the
    difference of two suffix sums of s^-j e(floor(s / b_p) y_t) in steps
    of b_p, at s = a_p n + b_p and s = a_p n + b_p (n - last + 1): every
    phase is a twist table entry, and the tables hold one pole order at a
    time.
    """
    n = np.arange(1, M + 1)
    n_float = n.astype(float)
    weight = h_t + sum(k for _, _, k in forms)
    sums = np.zeros(M, dtype=complex if parts == 3 else float) if parts > 1 else None
    abs_sums, pieces = np.zeros(M), np.zeros(M)
    for (a, b), coefficients in _partial_fractions(h_t, forms).items():
        runs = a * M // b + M + 1  # values of floor(s / b) from 1 on
        inverse = 1.0 / np.arange(b, b * (runs + 1), dtype=float)
        lo, hi = a * n, a * n + b * (n - last)  # positions of s - b
        twisted, shift = sums is not None and y_t != 0, 1.0
        if twisted:
            phase = _twist_table(y_t, runs)[1:, None]
            shift = _twist_table(-y_t, a * M // b)[a * n // b]
            if parts == 2:
                phase, shift = phase.real, shift.real
        x = inverse
        for j, d in enumerate(coefficients, start=1):
            scale = float(d) * n_float ** (j - weight)
            total = _suffix_sums(x, b)
            at_lo, at_hi = total[lo], total[hi]
            abs_sums += scale * (at_lo - at_hi)
            pieces += abs(scale) * (at_lo + at_hi)
            if twisted:
                total = _suffix_sums((x.reshape(-1, b) * phase).reshape(-1), b)
            if sums is not None:
                sums += scale * shift * (total[lo] - total[hi])
            x = x * inverse
    outer = n_float**-h_n
    if sums is not None:
        twist = _twist_table(y_n, M)[1:]
        sums = sums * outer * (twist.real if parts == 2 else twist)
    return sums, abs_sums * outer, pieces * outer


def _r2_shells(spec: SeriesSpec, M: int) -> tuple[np.ndarray, np.ndarray]:
    """_box_shells of an r = 2 spec, by partial fractions over suffix sums.

    Shell n is the row m_1 = n (m_2 = 1..n) plus the column m_2 = n
    (m_1 = 1..n-1), and each is a _line_sums over its inner coordinate.
    Rounding in the pieces of a shell's sums costs up to about 2 * 2^-53
    times their magnitude (measured on 65 instances, up to G2 and h = k =
    (12, 12)).  Where that magnitude is over 2^10 times the abs shell, the
    error could pass 2^-42 ~ 2.3e-13 of it, so shells 1..n0, n0 the last
    such shell, come from _box_shells over [1, n0]^2 instead.
    """
    (h1, h2), (y1, y2) = spec.h, spec.y
    parts = _parts(spec)
    forms = [(a1, a2, k) for (a1, a2), k in zip(spec.A, spec.k)]
    try:
        row = _line_sums(h2, h1, y2, y1, forms, M, 0, parts)
        col = _line_sums(h1, h2, y1, y2, [(a2, a1, k) for a1, a2, k in forms], M, 1, parts)
    except OverflowError:  # a partial-fraction coefficient beyond the float range
        return _box_shells(spec, M)
    abs_shells = row[1] + col[1]
    shells = np.array(abs_shells if parts == 1 else row[0] + col[0], dtype=complex)
    (ill,) = np.nonzero(~(row[2] + col[2] <= 2**10 * abs_shells))  # NaN counts as ill
    if ill.size:
        n0 = int(ill[-1]) + 1
        shells[:n0], abs_shells[:n0] = _box_shells(spec, n0)
    return shells, abs_shells


def _direct_shells(spec: SeriesSpec, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum and abs-sum of the terms over each shell max(m) = n of [1, M]^r.

    Returns two arrays indexed by n - 1.  An r = 2 box is summed by
    _r2_shells when M is at least _ROUTE_MIN_M and at least four times the
    sum over poles of mu (a + b) in both directions, the entries per unit
    of M of its suffix tables: the route's work grows with that sum, and
    timed break-evens lay at M between 1.5 and 10 times it.  Every other
    box is summed term by term (_box_shells).
    """
    if spec.r == 2:
        entries = sum(spec.h) + sum(
            k * (a + b) // math.gcd(a, b) * ((a > 0) + (b > 0)) for (a, b), k in zip(spec.A, spec.k)
        )
        if M >= max(_ROUTE_MIN_M, 4 * entries):
            return _r2_shells(spec, M)
    return _box_shells(spec, M)


def _direct_power(spec: SeriesSpec) -> int:
    """Decay power w of the direct shells, which fall off as n^-w.

    w is the minimum over variable sets S of (sum of h_j over S) + (sum of
    k_i over the forms meeting S) - |S| + 1.  Adding a variable to S adds
    h_j - 1 >= 0 or more, so the minimum is at a single variable.
    """
    return min(
        h + sum(k for k, row in zip(spec.k, spec.A) if row[j])
        for j, h in enumerate(spec.h)
    )


def zeta_direct(spec: SeriesSpec, M: int) -> PartialSum:
    """Compensated sum of the series over the box [1, M]^r."""
    if M < 1:
        raise ValueError("M must be >= 1")
    shells, abs_shells = _direct_shells(spec, M)
    return _partial(shells, abs_shells, M, M**spec.r, _direct_power(spec))


def zeta_refined(spec: SeriesSpec, M: int) -> RefinedSum:
    """Direct sum plus fitted tail; the honest estimate of the series value."""
    return _refine(zeta_direct(spec, M), _direct_power(spec))


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
        partial = PartialSum(value=value, M=0, terms=1, tail_estimate=0.0, slow=False)
        refined = RefinedSum(partial, 0.0 + 0.0j, 0.0, True)
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
    refined = _refine(_partial(shells, abs_shells, M_outer, M_outer**f, w), w)
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
