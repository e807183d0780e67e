"""Oracles shared across the suite, deliberately independent of the library
code paths they check: a fast exact series for zeta(3), Bernoulli numbers by
the explicit double sum (no recurrence), Taylor coefficients via the Cauchy
integral on a roots-of-unity grid, exact lattice membership through the
integer dual, Leibniz determinants and Cramer duals, the rho-directed
fractional part, plans built under a later certified rho, a
generating-function plan's exact data in Fractions from the definitions,
its tables built with the dict series algebra of dictseries, the Horner
product with a geometric factor and the numerator it gives, G assembled
over the full simplex, the tuples of a shell of a box and the shells of an
outer sum summed one tuple at a time, the dict series truncation,
geometric factor and full phase table that the library itself no longer
needs, the family Lambda with its outer tuple frozen, and the box partial
sum over Z^m that the distribution value is the limit of."""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import dictseries as ds
import rowmajor
from mdzeta import exact, genfun, mpseries
from mdzeta.exact import dual_basis
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
    return ds.max_abs(ds.series_sub(a, b))


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

    Returns a closure so the dual is computed once per lattice: delta's
    coordinates in the rows are <delta, dual_j> / det, so delta is a member
    iff every <delta, dual_j> is a multiple of det.
    """
    det, duals = dual_basis(vectors)

    def member(delta) -> bool:
        return all(sum(map(operator.mul, delta, row)) % det == 0 for row in duals)

    return member


def leibniz_det(rows) -> int:
    """Determinant by the Leibniz sum over permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def cramer_dual(rows) -> list[list[Fraction]]:
    """Rational rows with <rows[i], dual[j]> = delta_ij, by Cramer's rule.

    dual[j] solves B x = e_j for the matrix B of the rows, so its k-th entry
    is det(B with column k replaced by e_j) / det(B).
    """
    n = len(rows)
    det = leibniz_det(rows)
    return [
        [
            Fraction(leibniz_det([
                [int(i == j) if c == k else row[c] for c in range(n)]
                for i, row in enumerate(rows)
            ]), det)
            for k in range(n)
        ]
        for j in range(n)
    ]


def fractional_part(x: Fraction, p) -> Fraction:
    """Fractional part of x nudged along the sign of p; lands in [0, 1].

    At non-integer x both branches agree with the usual {x}; at integer x
    the positive branch gives 0 and the negative branch gives 1.
    """
    x = Fraction(x)
    return Fraction(exact.directed_residue(x.numerator, x.denominator, p), x.denominator)


def _fraction_dot(u, v) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def _rank_is(rows, rank: int) -> bool:
    """True when the rank-by-rank minors say the rows have exactly this rank."""
    width = len(rows[0])

    def some_minor(size):
        return any(
            leibniz_det([[rows[i][c] for c in cols] for i in sub]) != 0
            for sub in itertools.combinations(range(len(rows)), size)
            for cols in itertools.combinations(range(width), size)
        )

    return some_minor(rank) and (rank == min(len(rows), width) or not some_minor(rank + 1))


def reference_rho(vectors):
    """(coords, ladder index, bases checked, hyperplanes checked) of variant 0.

    The first rung of (1, ..., m), then (1, t, t^2, ...) for t = m+1, ...,
    that pairs to nonzero with every Cramer dual row of every basis and lies
    in the span of no m-1 distinct vectors of rank m-1.
    """
    vecs = list(dict.fromkeys(tuple(v) for v in vectors))
    m = len(vecs[0])
    bases = [sub for sub in itertools.combinations(vecs, m) if leibniz_det(sub) != 0]
    planes = [
        sub for sub in itertools.combinations(vecs, m - 1) if m >= 2 and _rank_is(sub, m - 1)
    ]
    ladder = [tuple(range(1, m + 1))] + [tuple(t**e for e in range(m)) for t in range(m + 1, m + 64)]
    for idx, cand in enumerate(ladder):
        if all(
            _fraction_dot(cand, dual) != 0 for sub in bases for dual in cramer_dual(sub)
        ) and all(leibniz_det([*sub, cand]) != 0 for sub in planes):
            return cand, idx, len(bases), len(planes)
    raise AssertionError("no certified direction on the ladder")


@contextlib.contextmanager
def certified_rung(n: int, flip: bool = False):
    """Plans built inside take the (n+1)-th certified rung of the ladder as
    rho, where exact.choose_rho takes the first: the ladder is walked as
    choose_rho walks it, certified rungs are counted and the n-th (from 0)
    is returned, within the same exact.RHO_CANDIDATES rungs.  With flip,
    rho is that rung's negation, certified too, which moves every boundary
    lattice point to the other side of its hyperplane, where the ladder's
    rungs often lie in one chamber and move none."""

    def choose(normals):
        normals = list(normals)
        ladder = itertools.islice(exact._rho_ladder(len(normals[0])), exact.RHO_CANDIDATES)
        certified = (c for c in ladder if all(exact.dot(c, v) != 0 for v in normals))
        rho = next(itertools.islice(certified, n, None), None)
        assert rho is not None, f"fewer than {n + 1} certified rungs"
        return tuple(-c for c in rho) if flip else rho

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "choose_rho", choose)
        yield


def reference_plan_data(plan):
    """The exact data of a plan, in Fractions straight from the definitions.

    Lambda is e_j for j in J, then each form meeting J restricted to J, with
    dot part -sum over Jbar of a_ij m_j as a form in the outer tuple.  The
    bases are the position tuples of nonzero Leibniz determinant; duals come
    from Cramer's rule; the coset representatives are those of
    exact.coset_representatives, as in the plan.  Per basis, returns the
    fractional parts {<y_J + w, dual_f>} directed by the sign of
    <rho, dual_f>, and per complement member g the weights of L_g =
    t_g - sum_f <v_g, dual_f> t_f over all members, its primitive form and
    scale, d_g as a form over Jbar, and per coset rep the phase form
    -sum_f dot_f * frac_f over Jbar.
    """
    spec, ctx = plan.spec, plan.ctx
    vecs = [tuple(int(i == j) for i in ctx.J) for j in ctx.J]
    dots = [(0,) * len(ctx.Jbar) for _ in ctx.J]
    for i in ctx.I:
        vecs.append(tuple(spec.a(i, j) for j in ctx.J))
        dots.append(tuple(-spec.a(i, j) for j in ctx.Jbar))
    m, n = len(ctx.J), len(vecs)
    bases = tuple(
        idx for idx in itertools.combinations(range(n), m)
        if leibniz_det([vecs[p] for p in idx]) != 0
    )
    rho = reference_rho(vecs)
    y = [spec.y[j - 1] for j in ctx.J]
    out = {"bases": bases, "rho": rho, "per_basis": []}
    for basis in bases:
        duals = cramer_dual([vecs[p] for p in basis])
        pairing = [_fraction_dot(rho[0], d) for d in duals]
        fracs = []
        cosets = exact.coset_representatives([vecs[p] for p in basis])
        for w in cosets.representatives:
            row = []
            for d, p in zip(duals, pairing):
                x = _fraction_dot([a + b for a, b in zip(y, w)], d)
                row.append(x - math.floor(x) if p > 0 else x + 1 - math.ceil(x))
            fracs.append(tuple(row))
        per_g = {}
        for g in (p for p in range(n) if p not in basis):
            coords = [_fraction_dot(vecs[g], d) for d in duals]
            weights = [Fraction(int(p == g)) for p in range(n)]
            for f, c in zip(basis, coords):
                weights[f] -= c
            den = math.lcm(*(w.denominator for w in weights))
            ints = [int(w * den) for w in weights]
            lead = next(c for c in ints if c)
            g_ = math.gcd(*ints) * (1 if lead > 0 else -1)
            prim = tuple(c // g_ for c in ints)
            scale = next(w for w in weights if w) / next(c for c in prim if c)
            d_form = tuple(
                dots[g][col] - sum(c * dots[f][col] for f, c in zip(basis, coords))
                for col in range(len(ctx.Jbar))
            )
            per_g[g] = (tuple(weights), (prim, scale), d_form)
        phase_forms = [
            tuple(
                -sum(dots[f][col] * c for f, c in zip(basis, cs))
                for col in range(len(ctx.Jbar))
            )
            for cs in fracs
        ]
        out["per_basis"].append((fracs, per_g, phase_forms))
    return out


def _pattern_forms(plan, pattern):
    """(per singular column k of _d_rows its (primitive form, scale), per
    basis its primitive singular forms with their multiplicities, each
    form's largest multiplicity) of a pattern."""
    normal = {
        k: genfun._normalize_linear(row, b.den)
        for b in plan.bases for k, _, row in b.complement if k in pattern
    }
    per_basis, max_mult = [], {}
    for b in plan.bases:
        cnt = Counter(normal[k][0] for k, _, _ in b.complement if k in pattern)
        per_basis.append(cnt)
        for form, mult in cnt.items():
            max_mult[form] = max(max_mult.get(form, 0), mult)
    return normal, per_basis, max_mult


def reference_tables(plan, pattern):
    """The tables of plan._tables(pattern), built with dict series algebra.

    A singular pattern's space has the widened total cap, and so does the
    cap of each form's pivot, its variable of largest |weight| (the first
    such); every other variable keeps the plan's cap.  Every Bernoulli
    product and fixed singular factor is a series_mul of MultiSeries, read
    into the dense space at the end; each L_g is a linear_form read back at
    the keys of the single variables.  Returns (space, bprods, geometric,
    forms) in the layout of _Tables.
    """
    variables = plan.variables
    normal, per_basis, max_mult = _pattern_forms(plan, pattern)
    total_cap = plan.total_cap + sum(max_mult.values())
    pivots = {max(range(len(form)), key=lambda i: abs(form[i])) for form in max_mult}
    caps = tuple(total_cap if v in pivots else c for v, c in enumerate(plan.caps))
    space = mpseries.dense_space(caps, total_cap)

    def linear(weights):
        return ds.linear_form(weights, variables, caps, total_cap)

    def unit(pos):
        return linear({variables[pos]: 1.0})

    unit_keys = [tuple(int(p == q) for p in range(len(variables))) for q in range(len(variables))]

    bprods, geometric = [], []
    for bi, b in enumerate(plan.bases):
        fixed = ds.constant(1.0, variables, caps, total_cap)
        scale = Fraction(1)
        regular = []
        for k, gpos, row in b.complement:
            if k in pattern:
                fixed = mpseries.series_mul(fixed, unit(gpos))
                scale /= normal[k][1]
                continue
            lf = linear({name: c / b.den for name, c in zip(variables, row) if c})
            weights = tuple(ds.coefficient(lf, key).real for key in unit_keys)
            regular.append((k, weights, unit_keys[gpos]))
        for form, mult in max_mult.items():
            for _ in range(mult - per_basis[bi].get(form, 0)):
                fixed = mpseries.series_mul(fixed, linear(dict(zip(variables, map(float, form)))))
        fixed = ds.series_scale(fixed, float(scale))
        rows = []
        for rs in b.residues:
            product = ds.constant(1.0, variables, caps, total_cap)
            for fi, fpos in enumerate(b.members):
                offset = Fraction(rs[fi], b.fden)
                product = mpseries.series_mul(
                    product,
                    ds.bernoulli_factor(variables, caps, total_cap, variables[fpos], offset),
                )
            rows.append(ds.to_dense(space, mpseries.series_mul(product, fixed)))
        bprods.append(np.array(rows))
        geometric.append(tuple(regular))
    return space, bprods, tuple(geometric), tuple(max_mult.items())


def _unit_key(plan, pos):
    return tuple(int(p == pos) for p in range(len(plan.variables)))


def _dense_bprods(plan, pattern, space):
    """Per basis, its Bernoulli rows times its fixed singular factors in
    space, (K, N), built densely as plan._tables builds them but with one
    mul_linear by t_g per vanishing d_g, then the primitive forms the basis
    lacks, then the scale."""
    normal, per_basis, max_mult = _pattern_forms(plan, pattern)
    bprods = []
    for bi, (b, table) in enumerate(zip(plan.bases, plan._bernoulli_products(space))):
        table = table.reshape(space.size, -1)  # one coset rep: an (N,) series
        scale = Fraction(1)
        for k, gpos, _ in b.complement:
            if k in pattern:
                table = space.mul_linear(table, _unit_key(plan, gpos))
                scale /= normal[k][1]
        for form, mult in max_mult.items():
            for _ in range(mult - per_basis[bi].get(form, 0)):
                table = space.mul_linear(table, form)
        bprods.append((table * float(scale)).T)
    return bprods


def _regular_factors(plan, b, pattern):
    """(_d_rows column, L_g weights, key of t_g) per nonvanishing d_g of b."""
    return [
        (k, tuple(c / b.den for c in row), _unit_key(plan, gpos))
        for k, gpos, row in b.complement if k not in pattern
    ]


def times_geometric(space, batch, inv, weights, unit) -> np.ndarray:
    """Each row of the (B, N) batch times -t_g/(d - L_g), with inv = 1/d per row.

    The Horner reference of genfun._expand_geometric: the factor is
    -(1/d) t_g sum_n (L_g/d)^n, and t_g L_g^n leaves the space once n
    reaches total_cap, so Horner in L_g/d takes total_cap - 1 steps of
    the row-major mul_linear by the weights of L_g, and one more by t_g
    (unit).
    """
    inv = inv[:, None]
    acc = batch
    for _ in range(space.total_cap - 1):
        acc = batch + inv * rowmajor.mul_linear(space, acc, weights)
    return -inv * rowmajor.mul_linear(space, acc, unit)


def horner_numerator(plan, pattern, tuples, dnum):
    """plan._numerator's sum over bases, unzeroed, over the pattern's space,
    each basis term multiplied by its geometric factors one by one with
    times_geometric.  Returns (numerator, per key the sum over bases of
    |basis term|)."""
    space = plan._tables(pattern).space
    total = np.zeros((len(tuples), space.size), dtype=complex)
    magnitude = np.zeros((len(tuples), space.size))
    for b, bprod in zip(plan.bases, _dense_bprods(plan, pattern, space)):
        term = (plan._phases(b, tuples) @ bprod) * (1.0 / b.den)
        for k, weights, unit in _regular_factors(plan, b, pattern):
            term = times_geometric(space, term, b.den / dnum[:, k], weights, unit)
        total += term
        magnitude += np.abs(term)
    return total, magnitude


def full_simplex_batch(plan, tuples) -> np.ndarray:
    """G for a batch of outer tuples, each singular pattern assembled over
    the full simplex: every variable capped at the widened total cap.

    The tables are built densely as plan._tables builds them, in the larger
    space; the numerator is plan._numerator's, divided there by every form
    with the row-major rowmajor.divide_linear, and a remainder over 1e-8 of
    the row's numerator raises SingularConfiguration.  No precision check is made.
    Returns the rows over plan.space, as plan.evaluate_batch does.
    """
    tuples = np.asarray(tuples, dtype=np.int64)
    dnum = tuples @ plan._d_rows
    out = np.empty((len(tuples), plan.space.size), dtype=complex)
    patterns, inverse = np.unique(dnum == 0, axis=0, return_inverse=True)
    for p, flags in enumerate(patterns):
        rows = np.flatnonzero(inverse.ravel() == p)
        pattern = frozenset(np.flatnonzero(flags).tolist())
        if not pattern:
            out[rows] = plan._assemble_regular(tuples[rows], dnum[rows])
            continue
        _, _, max_mult = _pattern_forms(plan, pattern)
        total_cap = plan.total_cap + sum(max_mult.values())
        space = mpseries.dense_space((total_cap,) * len(plan.variables), total_cap)
        compiled = []
        for b, bprod in zip(plan.bases, _dense_bprods(plan, pattern, space)):
            factors = _regular_factors(plan, b, pattern)
            exps, expanded = genfun._expand_geometric(
                space, bprod.T * (1.0 / b.den), [(w, u) for _, w, u in factors], plan.total_cap
            )
            pairs = np.array([k for k, _, _ in factors], dtype=np.int64)
            compiled.append((pairs, exps, np.ascontiguousarray(expanded.T)))
        tables = genfun._Tables(
            space, tuple(compiled), tuple(max_mult.items()), space.locate(plan.space.keys)
        )
        numer = plan._numerator(tables, tuples[rows], dnum[rows])[0]
        threshold = 1e-8 * np.maximum(1.0, np.abs(numer).max(axis=1))
        for form, mult in tables.forms:
            for _ in range(mult):
                numer, leftover = rowmajor.divide_linear(space, numer, form)
                if np.any(leftover > threshold):
                    raise mpseries.SingularConfiguration(f"pole along {form} does not cancel")
        out[rows] = numer[:, tables.narrow]
    return out


def shell_array(f: int, n: int) -> np.ndarray:
    """Rows of [1, n]^f with max coordinate exactly n, lexicographically."""
    if f == 1:
        return np.array([[n]], dtype=np.int64)
    inner = shell_array(f - 1, n)
    cube = np.indices((n,) * (f - 1)).reshape(f - 1, -1).T + 1
    low = np.column_stack([np.repeat(np.arange(1, n), len(inner)), np.tile(inner, (n - 1, 1))])
    high = np.column_stack([np.full(len(cube), n), cube])
    return np.concatenate([low, high]).astype(np.int64)


def reference_shells(spec, J, M_outer):
    """Sums and abs-sums of the shells max(m) = n of term_T's outer sum.

    Each outer tuple m gets its own plan.evaluate; the top coefficient is
    weighted by e(-<m, y>) / prod m_j^h_j / prod over Ibar of form^k_i, and
    each shell's real and imaginary parts are summed with math.fsum.
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
            values.append(weight * plan.evaluate(outer)[plan.top])
        shells.append(complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values)))
        abs_shells.append(sum(abs(v) for v in values))
    return shells, abs_shells


def truncated(a: mpseries.MultiSeries, caps=None, total_cap=None) -> mpseries.MultiSeries:
    caps = a.caps if caps is None else tuple(caps)
    total_cap = a.total_cap if total_cap is None else total_cap
    if len(caps) != len(a.variables):
        raise mpseries.CapMismatch("one cap per variable required")
    if any(new > old for new, old in zip(caps, a.caps)) or total_cap > a.total_cap:
        raise mpseries.CapExceeded("truncation cannot enlarge the space")
    out = {
        key: c
        for key, c in a.coeffs.items()
        if mpseries._admissible(key, caps, total_cap) and c != 0
    }
    return mpseries.MultiSeries(a.variables, caps, total_cap, out)


def rational_factor(variables, caps, total_cap, numer_var, denom, weights) -> mpseries.MultiSeries:
    """-t_g / (denom - L(t)) with L the given linear form; denom != 0.

    Expanded as (-t_g/denom) * sum_n (L/denom)^n.  A zero denominator is a
    genuine pole at this stage and is the caller's job to cancel by other
    means, hence the dedicated error.
    """
    if denom == 0:
        raise mpseries.SingularConfiguration(f"zero denominator at factor {numer_var}")
    base = ds.zero(variables, caps, total_cap)
    scaled = {name: Fraction(w) / Fraction(denom) for name, w in weights.items()}
    lf = ds.linear_form(
        {name: float(w) for name, w in scaled.items()},
        base.variables,
        base.caps,
        base.total_cap,
    )
    one = ds.constant(1.0, base.variables, base.caps, base.total_cap)
    acc = one
    for _ in range(base.total_cap):
        acc = ds.series_add(one, mpseries.series_mul(lf, acc))
    pos = base.variables.index(numer_var)
    key = tuple(1 if i == pos else 0 for i in range(len(base.variables)))
    tg = ds.monomial(
        base.variables, base.caps, key, value=float(Fraction(-1) / Fraction(denom)),
        total_cap=base.total_cap,
    )
    return mpseries.series_mul(tg, acc)


def phase_table(q: int) -> list[complex]:
    """table[res] = e(res/q); then e(n*p/q) = table[(n*p) % q]."""
    if q < 1:
        raise ValueError(f"denominator must be positive, got {q}")
    return [unit_phase(Fraction(res, q)) for res in range(q)]


def frozen_family(spec, ctx, m_outer) -> tuple:
    """Lambda for (spec, J) with the outer tuple frozen, as (vec, dot) pairs.

    The vectors are genfun.build_lambda's, variables in J first; a variable
    member has dot 0 and form member i has dot -sum over Jbar of a_ij m_j.
    """
    if set(m_outer) != set(ctx.Jbar):
        raise exact.ExactError(f"outer tuple must cover Jbar = {ctx.Jbar}, got {sorted(m_outer)}")
    dots = [0] * len(ctx.J) + [-sum(spec.a(i, j) * m_outer[j] for j in ctx.Jbar) for i in ctx.I]
    return tuple(zip(genfun.build_lambda(spec, ctx), dots))


def zm_partial_sum(members, exponents, y, M: int) -> complex:
    """Box partial sum of e(<y,n>) / prod f(n)^e over [-M, M]^m, f(n) != 0.

    members are (vec, dot) pairs, f(n) = <vec, n> + dot.  The limit in M
    recovers, up to the sign (-1)^|Lambda| and the factorial normalization,
    the distribution value: the top coefficient of G times the factorials.
    The agreement of the two routes is the empirical check on the
    coefficient machinery.
    """
    m = len(members[0][0])
    if len(exponents) != len(members):
        raise exact.ExactError("one exponent per member required")
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    for n in itertools.product(range(-M, M + 1), repeat=m):
        vals = [exact.dot(vec, n) + dot for vec, dot in members]
        if any(v == 0 for v in vals):
            continue
        denom = 1.0
        for v, e in zip(vals, exponents):
            denom *= float(v) ** e
        term = unit_phase(exact.dot(y, n)) / denom
        diff = term - comp
        new_total = total + diff
        comp = (new_total - total) - diff
        total = new_total
    return total
