"""Numerical evaluation: direct shell sums, tail control, and verification.

The direct side sums the series over max-norm shells of the integer box,
compensated, with per-shell magnitudes kept for tail work.  Partial sums are
then refined by fitting the shell decay (a + b log n)/n^w on a trailing
window and integrating the fit past the box; the fit is attempted only when
a component is decaying with a fixed sign, and every correction carries its
own uncertainty.  The reduction side evaluates, per nonempty subset J, the
outer sums weighted by coefficients of the generating function G, with the
same shell/tail treatment.  verify_parity ties the two sides together.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .genfun import GeneratingFunctionPlan
from .model import (
    ConvergenceVerdict,
    SeriesSpec,
    convergence_check,
    nonempty_subsets,
    spec_to_dict,
    subset_context,
    wt,
)
from .phase import phase_table


class ConvergenceNotEstablished(RuntimeError):
    pass


@dataclass(frozen=True)
class PartialSum:
    """A compensated box sum with a crude one-shell tail heuristic."""

    value: complex
    M: int
    terms: int
    tail_estimate: float
    slow: bool


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
        return self.sign * self.refined.value


@dataclass(frozen=True)
class RhsBreakdown:
    total: complex
    tails_total: float
    terms: tuple[TermSummary, ...]


def _kahan_sum(values) -> complex:
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    for v in values:
        diff = v - comp
        t = total + diff
        comp = (t - total) - diff
        total = t
    return total


# ---------------------------------------------------------------- direct side


def _weight_tables(spec: SeriesSpec, M: int):
    """Per-variable arrays w_j[m] = e(m y_j) / m^h_j for m in 0..M."""
    tables = []
    for j in range(1, spec.r + 1):
        m = np.arange(M + 1, dtype=float)
        m[0] = 1.0
        inv = m ** (-spec.h[j - 1])
        inv[0] = 0.0
        y = spec.y[j - 1]
        if y == 0:
            tables.append(inv.astype(complex))
            continue
        q = y.denominator
        residues = (np.arange(M + 1, dtype=np.int64) * y.numerator) % q
        phases = np.array(phase_table(q), dtype=complex)[residues]
        tables.append(phases * inv)
    return tables


def _shell_term_sums(n: int, spec: SeriesSpec, tables) -> tuple[complex, float]:
    """Sum and abs-sum over the shell max(m) = n of the box [1, M]^r."""
    r = spec.r
    total = 0.0 + 0.0j
    abs_total = 0.0
    for size in range(1, r + 1):
        for pinned in itertools.combinations(range(r), size):
            free = [j for j in range(r) if j not in pinned]
            if free and n == 1:
                continue
            coords = []
            for j in range(r):
                if j in pinned:
                    coords.append(np.int64(n))
                else:
                    axis = free.index(j)
                    shape = [1] * len(free)
                    shape[axis] = n - 1
                    coords.append(np.arange(1, n, dtype=np.int64).reshape(shape))
            term = tables[0][coords[0]]
            for j in range(1, r):
                term = term * tables[j][coords[j]]
            for i in range(1, spec.ell + 1):
                s = sum(spec.a(i, j + 1) * coords[j] for j in range(r))
                term = term * np.asarray(s, dtype=float) ** (-spec.k[i - 1])
            total += complex(np.sum(term))
            abs_total += float(np.sum(np.abs(term)))
    return total, abs_total


def _zeta_shells(spec: SeriesSpec, M: int):
    tables = _weight_tables(spec, M)
    pairs = [_shell_term_sums(n, spec, tables) for n in range(1, M + 1)]
    shells = [p[0] for p in pairs]
    abs_shells = [p[1] for p in pairs]
    return shells, abs_shells


def _tail_heuristic(abs_shells, w) -> tuple[float, bool]:
    last = abs_shells[-1] if abs_shells else 0.0
    if w is not None and w > 1:
        return last * len(abs_shells) / (w - 1), False
    return last, True


def zeta_direct(spec: SeriesSpec, M: int) -> PartialSum:
    """Compensated sum of the series over the box [1, M]^r."""
    if M < 1:
        raise ValueError("M must be >= 1")
    shells, abs_shells = _zeta_shells(spec, M)
    w = spec.weight - spec.r + 1
    est, slow = _tail_heuristic(abs_shells, w)
    return PartialSum(
        value=_kahan_sum(shells),
        M=M,
        terms=M**spec.r,
        tail_estimate=est,
        slow=slow,
    )


# ------------------------------------------------------------------ tail fits


def _power_estimate(abs_shells) -> float | None:
    count = len(abs_shells)
    if count < 8:
        return None
    window = min(max(16, count // 4), count - 1)
    ns = np.arange(count - window + 1, count + 1, dtype=float)
    vals = np.array(abs_shells[-window:], dtype=float)
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


def fit_tail(shells, w=None, band: float = 0.0):
    """Fitted tail correction for a shell sequence.

    Returns (correction, uncertainty, fitted).  w is the decay power of the
    shells; when None it is estimated from the magnitudes.  band is the
    fallback uncertainty when no trustworthy fit exists.
    """
    count = len(shells)
    if count < 8:
        return 0.0 + 0.0j, band, False
    window = min(max(16, count // 4), count - 1)
    ns = np.arange(count - window + 1, count + 1, dtype=float)
    vals = np.array(shells[-window:], dtype=complex)
    peak = float(np.max(np.abs(vals)))
    if peak == 0.0:
        return 0.0 + 0.0j, 0.0, True
    if w is None:
        w = _power_estimate([abs(s) for s in shells])
    if w is None or w <= 1.2:
        return 0.0 + 0.0j, band, False
    X = count + 0.5
    corr_re, unc_re, ok_re = _fit_component(ns, vals.real, w, X, peak)
    corr_im, unc_im, ok_im = _fit_component(ns, vals.imag, w, X, peak)
    fitted = ok_re and ok_im
    uncertainty = unc_re + unc_im + (0.0 if fitted else band)
    return complex(corr_re, corr_im), uncertainty, fitted


def zeta_refined(spec: SeriesSpec, M: int) -> RefinedSum:
    """Direct sum plus fitted tail; the honest estimate of the series value."""
    shells, abs_shells = _zeta_shells(spec, M)
    w = spec.weight - spec.r + 1
    est, slow = _tail_heuristic(abs_shells, w)
    partial = PartialSum(
        value=_kahan_sum(shells),
        M=M,
        terms=M**spec.r,
        tail_estimate=est,
        slow=slow,
    )
    correction, uncertainty, fitted = fit_tail(shells, w=w, band=est)
    return RefinedSum(partial, correction, uncertainty, fitted)


# --------------------------------------------------------------- reduced side


# Outer tuples are evaluated in blocks of at most this many rows.
_OUTER_BLOCK = 256


def _shell_array(f: int, n: int) -> np.ndarray:
    """Rows of [1, n]^f with max coordinate exactly n, lexicographically."""
    if f == 1:
        return np.array([[n]], dtype=np.int64)
    inner = _shell_array(f - 1, n)
    cube = np.indices((n,) * (f - 1)).reshape(f - 1, -1).T + 1
    low = np.column_stack([np.repeat(np.arange(1, n), len(inner)), np.tile(inner, (n - 1, 1))])
    high = np.column_stack([np.full(len(cube), n), cube])
    return np.concatenate([low, high]).astype(np.int64)


def _shell_tuples(f: int, n: int):
    """Tuples in [1, n]^f with max coordinate exactly n, lexicographically."""
    return map(tuple, _shell_array(f, n).tolist())


def _outer_blocks(f: int, M_outer: int):
    """[1, M_outer]^f shell by shell, cut into blocks of at most _OUTER_BLOCK rows.

    Yields (shell index per row, rows); a shell larger than a block spans
    consecutive blocks.
    """
    labels, rows, size = [], [], 0
    for n in range(1, M_outer + 1):
        shell = _shell_array(f, n)
        for start in range(0, len(shell), _OUTER_BLOCK):
            chunk = shell[start:start + _OUTER_BLOCK]
            if size + len(chunk) > _OUTER_BLOCK:
                yield np.concatenate(labels), np.concatenate(rows)
                labels, rows, size = [], [], 0
            labels.append(np.full(len(chunk), n))
            rows.append(chunk)
            size += len(chunk)
    if rows:
        yield np.concatenate(labels), np.concatenate(rows)


def _outer_weights(spec: SeriesSpec, ctx, tables, rows) -> np.ndarray:
    """e(-<m, y>) / prod m_j^h_j / prod over Ibar of form^k_i, per row m."""
    out = np.ones(len(rows), dtype=complex)
    for col, j in enumerate(ctx.Jbar):
        out = out * tables[j - 1][rows[:, col]]
    for i in ctx.Ibar:
        s = sum(spec.a(i, j) * rows[:, col] for col, j in enumerate(ctx.Jbar))
        out = out / np.asarray(s, dtype=float) ** spec.k[i - 1]
    return out


def term_sign(spec: SeriesSpec, ctx) -> int:
    outer_h = wt(spec.h[j - 1] for j in ctx.Jbar)
    outer_k = wt(spec.k[i - 1] for i in ctx.Ibar)
    return -1 if (outer_h + outer_k + spec.r + len(ctx.I)) % 2 else 1


def term_T(
    spec: SeriesSpec, J, M_outer: int, rho_variant: int = 0,
    plan: GeneratingFunctionPlan | None = None,
) -> TermSummary:
    """The contribution of one subset J to the reduced side."""
    if plan is None:
        plan = GeneratingFunctionPlan(spec, tuple(J), rho_variant=rho_variant)
    ctx = plan.ctx
    sign = term_sign(spec, ctx)
    factorials = math.prod(math.factorial(c) for c in plan.caps)
    if not ctx.Jbar:
        value = complex(plan.evaluate_batch(np.zeros((1, 0), dtype=np.int64))[0, plan.top])
        partial = PartialSum(value=value, M=0, terms=1, tail_estimate=0.0, slow=False)
        refined = RefinedSum(partial, 0.0 + 0.0j, 0.0, True)
        return TermSummary(
            ctx.J, ctx.I, sign, refined, plan.rho.coords, True, value * factorials
        )
    if M_outer < 1:
        raise ValueError("M_outer must be >= 1")
    f = len(ctx.Jbar)
    tables = _weight_tables(spec.negated_twist(), M_outer)
    shells = []
    abs_shells = []
    pieces = []  # of the shell being summed, in lexicographic order
    unit_raw = None
    for labels, rows in _outer_blocks(f, M_outer):
        raw = plan.evaluate_batch(rows)[:, plan.top]
        if unit_raw is None:
            unit_raw = complex(raw[0])  # the first row is (1, ..., 1)
        values = _outer_weights(spec, ctx, tables, rows) * raw
        for n, value in zip(labels.tolist(), values.tolist()):
            if n > len(shells) + 1:  # shell n - 1 is complete
                shells.append(_kahan_sum(pieces))
                abs_shells.append(sum(abs(p) for p in pieces))
                pieces = []
            pieces.append(value)
    shells.append(_kahan_sum(pieces))
    abs_shells.append(sum(abs(p) for p in pieces))
    w = _power_estimate(abs_shells)
    est, slow = _tail_heuristic(abs_shells, w)
    partial = PartialSum(
        value=_kahan_sum(shells),
        M=M_outer,
        terms=M_outer**f,
        tail_estimate=est,
        slow=slow,
    )
    correction, uncertainty, fitted = fit_tail(shells, w=w, band=est)
    refined = RefinedSum(partial, correction, uncertainty, fitted)
    return TermSummary(
        ctx.J, ctx.I, sign, refined, plan.rho.coords, False, unit_raw * factorials
    )


def rhs_total(
    spec: SeriesSpec, M_outer: int, rho_variant: int = 0
) -> RhsBreakdown:
    """Sum of the reduced-side contributions over all nonempty subsets J."""
    terms = []
    for J in nonempty_subsets(spec.r):
        terms.append(term_T(spec, J, M_outer, rho_variant=rho_variant))
    total = _kahan_sum(t.value for t in terms)
    tails = sum(t.refined.uncertainty for t in terms)
    return RhsBreakdown(total=total, tails_total=tails, terms=tuple(terms))


# --------------------------------------------------------------- verification


def parity_sign(spec: SeriesSpec) -> int:
    """The sign (-1)^(wt + r + 1) pairing zeta(y) with zeta(-y)."""
    return -1 if (spec.weight + spec.r + 1) % 2 else 1


def corollary(spec: SeriesSpec, series_value: complex, reduced_total: complex) -> dict:
    """The one-sided consequence: Re (or Im) of the series from the RHS."""
    if parity_sign(spec) == 1:
        series_side = series_value.real
        reduced_side = reduced_total / 2
        case = "real-part"
    else:
        series_side = series_value.imag
        reduced_side = reduced_total / 2j
        case = "imag-part"
    return {
        "case": case,
        "series_side": series_side,
        "reduced_side": reduced_side,
        "delta": abs(complex(series_side, 0.0) - reduced_side),
    }


def _fnum(x: float) -> str:
    return f"{x:.17g}"


def _cnum(z: complex) -> dict:
    return {"re": _fnum(z.real), "im": _fnum(z.imag)}


def corollary_json(cor: dict) -> dict:
    return {
        "case": cor["case"],
        "series_side": _fnum(cor["series_side"]),
        "reduced_side": _cnum(cor["reduced_side"]),
        "delta": _fnum(cor["delta"]),
    }


@dataclass(frozen=True)
class VerificationReport:
    spec: SeriesSpec
    M: int
    M_outer: int
    tol: float
    rho_variant: int
    convergence: ConvergenceVerdict
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
        """The one-sided consequence: Re (or Im) of the series from the RHS."""
        return corollary(self.spec, self.zeta_plus.value, self.rhs.total)

    def to_json_dict(self) -> dict:
        return {
            "spec": spec_to_dict(self.spec),
            "parameters": {
                "M": self.M,
                "M_outer": self.M_outer,
                "tol": _fnum(self.tol),
                "rho_variant": self.rho_variant,
            },
            "convergence": {
                "status": self.convergence.status,
                "reason": self.convergence.reason,
            },
            "lhs": {
                "parity_sign": self.parity_sign,
                "case": self.parity_case,
                "zeta_plus": _cnum(self.zeta_plus.value),
                "zeta_plus_tail": _fnum(self.zeta_plus.uncertainty),
                "zeta_minus": _cnum(self.zeta_minus.value),
                "zeta_minus_tail": _fnum(self.zeta_minus.uncertainty),
                "value": _cnum(self.lhs_value),
            },
            "rhs": {
                "total": _cnum(self.rhs.total),
                "per_J": [
                    {
                        "J": list(t.J),
                        "I": list(t.I),
                        "sign": t.sign,
                        "rho": list(t.rho),
                        "value_re": _fnum(t.value.real),
                        "value_im": _fnum(t.value.imag),
                        "tail": _fnum(t.refined.uncertainty),
                    }
                    for t in self.rhs.terms
                ],
            },
            "residual": _fnum(self.residual),
            "tails_total": _fnum(self.tails_total),
            "verdict": self.verdict,
            "corollary": corollary_json(self.corollary()),
        }


def verify_parity(
    spec: SeriesSpec,
    M: int,
    M_outer: int,
    tol: float = 1e-6,
    rho_variant: int = 0,
    assume_convergence: bool = False,
) -> VerificationReport:
    """Evaluate both sides of the parity identity and compare.

    Verdicts: 'pass' when the residual is within tol; 'inconclusive' when it
    exceeds tol but is explicable by the combined tail uncertainties; 'fail'
    otherwise.
    """
    verdict_conv = convergence_check(spec, user_asserted=assume_convergence)
    if not verdict_conv.established:
        raise ConvergenceNotEstablished(verdict_conv.reason)
    zp = zeta_refined(spec, M)
    zm = zeta_refined(spec.negated_twist(), M)
    sign = parity_sign(spec)
    rhs = rhs_total(spec, M_outer, rho_variant=rho_variant)
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
        spec=spec,
        M=M,
        M_outer=M_outer,
        tol=tol,
        rho_variant=rho_variant,
        convergence=verdict_conv,
        zeta_plus=zp,
        zeta_minus=zm,
        parity_sign=sign,
        rhs=rhs,
        residual=residual,
        tails_total=tails_total,
        verdict=verdict,
    )
