"""Oracles shared across the suite, deliberately independent of the library
code paths they check: a fast exact series for zeta(3), Bernoulli numbers by
the explicit double sum (no recurrence), Taylor coefficients via the Cauchy
integral on a roots-of-unity grid, exact lattice membership by rational
solve, a generating-function plan's tables built with dict series
algebra, and the shells of an outer sum summed one tuple at a time."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from mdzeta import evaluator, genfun, mpseries
from mdzeta.exact import RationalMatrix
from mdzeta.phase import unit_phase


def apery_zeta3() -> float:
    """zeta(3) from the alternating central-binomial series, exact partials."""
    total = Fraction(0)
    for n in range(1, 40):
        total += Fraction((-1) ** (n - 1), n**3 * math.comb(2 * n, n))
    return float(Fraction(5, 2) * total)


def bernoulli_explicit(n: int) -> Fraction:
    """B_n by the explicit double sum (B_1 = -1/2 convention), no recurrence."""
    total = Fraction(0)
    for k in range(n + 1):
        inner = sum(
            Fraction((-1) ** j * math.comb(k, j) * j**n) for j in range(k + 1)
        )
        total += inner / (k + 1)
    return total


def two_zeta_even(h: int) -> float:
    """2*zeta(h) for even h >= 2 from the Bernoulli closed form, exact until cast."""
    if h % 2 or h < 2:
        raise ValueError("even h >= 2 only")
    b = bernoulli_explicit(h)
    sign = -1 if (h // 2 + 1) % 2 else 1
    return float(sign * b) * (2.0 * math.pi) ** h / math.factorial(h)


def series_max_diff(a, b) -> float:
    return mpseries.max_abs(mpseries.series_sub(a, b))


def fft_taylor_coeffs(fn, nvars: int, max_degree: int, radius: float = 0.3) -> dict:
    """Taylor coefficients of fn at 0 by sampling on a polytorus.

    fn takes a tuple of complex points.  The grid is padded well past
    max_degree so aliasing from higher-order terms is negligible for
    functions whose nearest singularity is at distance >= 1.
    """
    n = max(max_degree + 2, 26)
    pts = radius * np.exp(2j * np.pi * np.arange(n) / n)
    vals = np.empty((n,) * nvars, dtype=complex)
    for idx in itertools.product(range(n), repeat=nvars):
        vals[idx] = fn(tuple(pts[i] for i in idx))
    # forward transform: coefficient m needs the e^{-2 pi i km/n} kernel
    co = np.fft.fftn(vals) / vals.size
    return {
        key: co[key] / radius ** sum(key)
        for key in itertools.product(range(max_degree + 1), repeat=nvars)
    }


def row_lattice_membership(vectors):
    """Membership test for the lattice of integer combinations of the rows.

    Returns a closure so the matrix inverse is computed once per lattice;
    delta is a member iff delta * inverse has integer entries throughout.
    """
    inv = RationalMatrix.from_rows(vectors).inverse()
    m = inv.nrows

    def member(delta) -> bool:
        coords = (
            sum(Fraction(delta[i]) * inv.rows[i][j] for i in range(m))
            for j in range(m)
        )
        return all(c.denominator == 1 for c in coords)

    return member


def reference_tables(plan, pattern):
    """The tables of plan._tables(pattern), built with dict series algebra.

    Every Bernoulli product and fixed singular factor is a series_mul of
    MultiSeries, read into the dense space at the end; each L_g is a
    linear_form read back at the keys of the single variables.  Returns
    (space, bprods, geometric, forms) in the layout of _Tables.
    """
    variables = plan.variables
    singular = {plan.pairs[k] for k in pattern}
    per_basis, max_mult = [], {}
    for bi in range(len(plan.bases)):
        cnt = Counter(
            plan.l_normal[bi][gpos][0]
            for gpos in plan.complements[bi]
            if (bi, gpos) in singular
        )
        per_basis.append(cnt)
        for form, mult in cnt.items():
            max_mult[form] = max(max_mult.get(form, 0), mult)
    total_cap = plan.total_cap + sum(max_mult.values())
    caps = (total_cap,) * len(variables) if pattern else plan.caps
    space = mpseries.dense_space(caps, total_cap)

    def linear(weights):
        return mpseries.linear_form(weights, variables, caps, total_cap)

    def unit(pos):
        return linear({variables[pos]: 1.0})

    unit_keys = [tuple(int(p == q) for p in range(len(variables))) for q in range(len(variables))]

    bprods, geometric = [], []
    for bi, basis in enumerate(plan.bases):
        fixed = mpseries.constant(1.0, variables, caps, total_cap)
        scale = Fraction(1)
        regular = []
        for gpos in plan.complements[bi]:
            if (bi, gpos) in singular:
                fixed = mpseries.series_mul(fixed, unit(gpos))
                scale /= plan.l_normal[bi][gpos][1]
                continue
            lf = linear({name: float(w) for name, w in plan.l_weights[bi][gpos].items()})
            weights = tuple(mpseries.coefficient(lf, key).real for key in unit_keys)
            regular.append((plan.pairs.index((bi, gpos)), weights, unit_keys[gpos]))
        for form, mult in max_mult.items():
            for _ in range(mult - per_basis[bi].get(form, 0)):
                fixed = mpseries.series_mul(fixed, linear(dict(zip(variables, map(float, form)))))
        fixed = mpseries.series_scale(fixed, float(scale))
        rows = []
        for cs in plan.frac_parts[bi]:
            product = mpseries.constant(1.0, variables, caps, total_cap)
            for fi, fpos in enumerate(basis):
                product = mpseries.series_mul(
                    product,
                    mpseries.bernoulli_factor(variables, caps, total_cap, variables[fpos], cs[fi]),
                )
            rows.append(space.dense(mpseries.series_mul(product, fixed)))
        bprods.append(np.array(rows))
        geometric.append(tuple(regular))
    return space, bprods, tuple(geometric), tuple(max_mult.items())


def reference_shells(spec, J, M_outer):
    """Sums and abs-sums of the shells max(m) = n of term_T's outer sum.

    Each outer tuple m gets its own plan.evaluate; the top coefficient is
    weighted by e(-<m, y>) / prod m_j^h_j / prod over Ibar of form^k_i, and
    each shell is summed in lexicographic order with evaluator._kahan_sum.
    """
    plan = genfun.GeneratingFunctionPlan(spec, tuple(J))
    ctx = plan.ctx
    shells, abs_shells = [], []
    for n in range(1, M_outer + 1):
        values = []
        for m in itertools.product(range(1, n + 1), repeat=len(ctx.Jbar)):
            if max(m) < n:
                continue
            outer = dict(zip(ctx.Jbar, m))
            weight = unit_phase(-sum(spec.y[j - 1] * outer[j] for j in ctx.Jbar))
            for j in ctx.Jbar:
                weight /= outer[j] ** spec.h[j - 1]
            for i in ctx.Ibar:
                weight /= sum(spec.a(i, j) * outer[j] for j in ctx.Jbar) ** spec.k[i - 1]
            values.append(weight * mpseries.coefficient(plan.evaluate(outer), plan.caps))
        shells.append(evaluator._kahan_sum(values))
        abs_shells.append(sum(abs(v) for v in values))
    return shells, abs_shells
