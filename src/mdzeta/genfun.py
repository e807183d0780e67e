"""Assembly of the lattice generating function G and its coefficients.

For a chosen subset J of inner variables, the reduction replaces the series
over the J variables by coefficients of a truncated series G in one variable
t_f per member f of a family Lambda of affine functionals on Z^|J|: one
member per variable in J and one per form meeting J.  G is a sum over the
bases B extracted from Lambda of coset-averaged Bernoulli-polynomial factors
(for members of B) times geometric factors -t_g/(d_g - L_g(t)) (for the
rest).  Whenever some d_g vanishes the per-basis terms are singular while
the sum is not; those tuples are assembled over a common denominator of
primitive linear forms and resolved by exact truncated division with a
remainder check.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

import numpy as np

from . import exact, mpseries
from .exact import RationalMatrix
from .model import SeriesSpec, SubsetContext, subset_context
from .mpseries import MultiSeries, SingularConfiguration
from .phase import phase_table, unit_phase


# Relative size below which a sum over bases counts as an exact cancellation:
# about 450 roundings of the summed magnitudes, above the few roundings of
# noise the matrix products leave where bases cancel, and below any
# coefficient the data resolve (1e-11 of the terms is kept).
_CANCELLED = 1e-13


@dataclass(frozen=True)
class AffineFunctional:
    """One member of Lambda: n -> <vec, n> + dot.

    Tags 1..r mark variable members (vec = e_j, dot = 0); tags r+i mark form
    members (vec = the i-th form restricted to J, dot = minus the form's
    contribution from the frozen outer variables).  Tags keep value-duplicate
    members distinct, which matters when a form restricted to J coincides
    with a coordinate vector.
    """

    tag: int
    vec: tuple[int, ...]
    dot: Fraction


def variable_name(tag: int) -> str:
    return f"t{tag}"


def build_lambda(spec: SeriesSpec, ctx: SubsetContext, m_outer) -> tuple[AffineFunctional, ...]:
    """The family Lambda for subset J with the outer tuple frozen.

    m_outer maps each j in Jbar to its (positive integer) value; it may be
    empty exactly when J = [r].
    """
    m_outer = dict(m_outer or {})
    if set(m_outer) != set(ctx.Jbar):
        raise exact.ExactError(
            f"outer tuple must cover Jbar = {ctx.Jbar}, got {sorted(m_outer)}"
        )
    members = []
    for j in ctx.J:
        vec = tuple(1 if jj == j else 0 for jj in ctx.J)
        members.append(AffineFunctional(tag=j, vec=vec, dot=Fraction(0)))
    for i in ctx.I:
        vec = tuple(spec.a(i, j) for j in ctx.J)
        dotv = -sum(
            (Fraction(spec.a(i, j) * m_outer[j]) for j in ctx.Jbar), Fraction(0)
        )
        members.append(AffineFunctional(tag=spec.r + i, vec=vec, dot=dotv))
    return tuple(members)


def enumerate_bases(members) -> tuple[tuple[int, ...], ...]:
    """Position tuples of all bases of Lambda, in lexicographic order."""
    m = len(members[0].vec)
    if exact.rank_of([f.vec for f in members]) < m:
        raise exact.RankDeficient("family does not span; no bases exist")
    out = []
    for idx in itertools.combinations(range(len(members)), m):
        if RationalMatrix.from_rows([members[i].vec for i in idx]).det() != 0:
            out.append(idx)
    return tuple(out)


def _normalize_linear(weights: dict[str, Fraction], order: tuple[str, ...]):
    """Split a rational linear form into (primitive integer form, scale).

    The primitive form has coprime integer coefficients and a positive
    leading coefficient in the given variable order, so equal directions
    normalize to the identical key.
    """
    den = 1
    for w in weights.values():
        den = den * w.denominator // gcd(den, w.denominator)
    ints = {name: int(w * den) for name, w in weights.items() if w != 0}
    g = 0
    for v in ints.values():
        g = gcd(g, abs(v))
    lead = next(name for name in order if ints.get(name, 0) != 0)
    if ints[lead] < 0:
        g = -g
    prim = tuple(ints.get(name, 0) // g for name in order)
    return prim, Fraction(g, den)


class GeneratingFunctionPlan:
    """Everything about (instance, J) that survives across outer tuples.

    Bases, dual bases, coset representatives, the certified direction rho,
    the rho-directed fractional parts, the Bernoulli factor products per
    (basis, coset), the linear forms L_g with their normalizations, and the
    d_g and the coset phases as integer forms in the outer tuple, and the
    series t_g L_g^n of the geometric factors, all dense over the plan's
    space.  evaluate_batch() then does only per-batch work: evaluate the d_g
    and the phases for every row, group rows by which d_g vanish, and
    combine the cached series with per-row scalars.
    """

    def __init__(self, spec: SeriesSpec, J, rho_variant: int = 0):
        self.spec = spec
        self.ctx = subset_context(spec, tuple(J))
        ctx = self.ctx
        self.m = len(ctx.J)
        template = build_lambda(spec, ctx, {j: 1 for j in ctx.Jbar})
        self.tags = tuple(f.tag for f in template)
        self.vecs = tuple(f.vec for f in template)
        self.variables = tuple(variable_name(t) for t in self.tags)
        caps = [spec.h[j - 1] for j in ctx.J] + [spec.k[i - 1] for i in ctx.I]
        self.caps = tuple(caps)
        self.total_cap = sum(caps)
        # dot part of each member as a linear map of the outer tuple
        self.dot_coeffs: tuple[dict[int, int], ...] = tuple(
            {}
            if tag <= spec.r
            else {j: -spec.a(tag - spec.r, j) for j in ctx.Jbar if spec.a(tag - spec.r, j)}
            for tag in self.tags
        )
        self.bases = enumerate_bases(template)
        self.rho = exact.choose_rho(self.vecs, variant=rho_variant)
        self.duals = tuple(
            exact.dual_basis([self.vecs[p] for p in basis]) for basis in self.bases
        )
        self.cosets = tuple(
            exact.coset_representatives([self.vecs[p] for p in basis])
            for basis in self.bases
        )
        y_J = tuple(spec.y[j - 1] for j in ctx.J)
        self.pairings = []       # per basis: tuple over basis members
        self.frac_parts = []     # per basis: per coset rep: tuple over members
        for bi, basis in enumerate(self.bases):
            pair = tuple(
                exact.dot(self.rho.coords, self.duals[bi][fi])
                for fi in range(len(basis))
            )
            self.pairings.append(pair)
            rows = []
            for w in self.cosets[bi].representatives:
                point = tuple(y + Fraction(wc) for y, wc in zip(y_J, w))
                rows.append(
                    tuple(
                        exact.fractional_part(
                            exact.dot(point, self.duals[bi][fi]), pair[fi]
                        )
                        for fi in range(len(basis))
                    )
                )
            self.frac_parts.append(rows)
        # complements, L_g data and d_g as linear maps of the outer tuple
        self.complements = tuple(
            tuple(p for p in range(len(template)) if p not in basis)
            for basis in self.bases
        )
        self.l_weights = []   # per basis: {gpos: {var: Fraction}}
        self.l_normal = []    # per basis: {gpos: (primitive tuple, scale)}
        self.d_linear = []    # per basis: {gpos: {j in Jbar: Fraction}}
        for bi, basis in enumerate(self.bases):
            lw, ln, dl = {}, {}, {}
            for gpos in self.complements[bi]:
                gvec = self.vecs[gpos]
                weights = {self.variables[gpos]: Fraction(1)}
                dcoef = dict(
                    (j, Fraction(c)) for j, c in self.dot_coeffs[gpos].items()
                )
                for fi, fpos in enumerate(basis):
                    pairing = exact.dot(gvec, self.duals[bi][fi])
                    if pairing != 0:
                        name = self.variables[fpos]
                        weights[name] = weights.get(name, Fraction(0)) - pairing
                        for j, c in self.dot_coeffs[fpos].items():
                            dcoef[j] = dcoef.get(j, Fraction(0)) - Fraction(c) * pairing
                lw[gpos] = {n: w for n, w in weights.items() if w != 0}
                ln[gpos] = _normalize_linear(lw[gpos], self.variables)
                dl[gpos] = {j: c for j, c in dcoef.items() if c != 0}
            self.l_weights.append(lw)
            self.l_normal.append(ln)
            self.d_linear.append(dl)
        self.space = mpseries.dense_space(self.caps, self.total_cap)
        self.top = int(self.space.locate([self.caps])[0])
        # every (basis, complement member) pair, with its d_g as an integer
        # form in the outer tuple over one common denominator
        self.pairs = tuple(
            (bi, gpos) for bi in range(len(self.bases)) for gpos in self.complements[bi]
        )
        self._d_den = math.lcm(
            1, *(c.denominator for dl in self.d_linear for co in dl.values() for c in co.values())
        )
        self._d_num = np.zeros((len(ctx.Jbar), len(self.pairs)), dtype=np.int64)
        for k, (bi, gpos) in enumerate(self.pairs):
            for col, j in enumerate(ctx.Jbar):
                self._d_num[col, k] = int(self.d_linear[bi][gpos].get(j, 0) * self._d_den)
        # the coset phases e(-<dots, c>) per basis: the member dots are
        # integer forms in the outer tuple, so each phase is the entry of a
        # table of q-th roots of unity at an integer form mod q
        self._phase_data = []
        for bi, basis in enumerate(self.bases):
            reps = self.frac_parts[bi]
            q = math.lcm(1, *(c.denominator for cs in reps for c in cs))
            coef = np.zeros((len(ctx.Jbar), len(reps)), dtype=np.int64)
            for col, j in enumerate(ctx.Jbar):
                for wi, cs in enumerate(reps):
                    coef[col, wi] = int(-q * sum(
                        self.dot_coeffs[fpos].get(j, 0) * cs[fi] for fi, fpos in enumerate(basis)
                    ))
            self._phase_data.append((q, coef, np.array(phase_table(q), dtype=complex)))
        self._tables_cache: dict[frozenset, _Tables] = {}

    def _bernoulli_products(self, caps, total_cap) -> list:
        """Per basis: the Bernoulli factor product of each coset rep."""
        out = []
        for bi, basis in enumerate(self.bases):
            products = []
            for cs in self.frac_parts[bi]:
                series = mpseries.constant(1.0, self.variables, caps, total_cap)
                for fi, fpos in enumerate(basis):
                    series = mpseries.series_mul(
                        series,
                        mpseries.bernoulli_factor(
                            self.variables, caps, total_cap,
                            self.variables[fpos], cs[fi],
                        ),
                    )
                products.append(series)
            out.append(products)
        return out

    def _geometric_rows(self, space, bi, gpos) -> np.ndarray:
        """Rows t_g L_g^n for n < total_cap: -t_g/(d - L_g) = -sum_n d^-(n+1) t_g L_g^n."""
        caps, total_cap = space.caps, space.total_cap
        lf = mpseries.linear_form(
            {name: float(w) for name, w in self.l_weights[bi][gpos].items()},
            self.variables, caps, total_cap,
        )
        series = mpseries.monomial(self.variables, caps, self._unit_key(gpos), total_cap=total_cap)
        rows = [space.dense(series)]
        for _ in range(total_cap - 1):
            series = mpseries.series_mul(series, lf)
            rows.append(space.dense(series))
        return np.array(rows)

    def _unit_key(self, pos: int) -> tuple[int, ...]:
        return tuple(1 if p == pos else 0 for p in range(len(self.variables)))

    def _tables(self, pattern: frozenset) -> "_Tables":
        """Tables for the tuples whose vanishing d_g are the pairs in pattern.

        The empty pattern is the regular path, in the plan's own space.
        Otherwise each basis term is put over the common denominator: its
        singular factors -t_g/(0 - L_g) become t_g/(scale * primitive form),
        and it is multiplied by the primitive forms it lacks, so the
        numerator is a polynomial to be divided by every form at its largest
        multiplicity, in a space wide enough for the full simplex.
        """
        if pattern in self._tables_cache:
            return self._tables_cache[pattern]
        singular = {self.pairs[k] for k in pattern}
        per_basis = []
        max_mult: dict[tuple, int] = {}
        for bi in range(len(self.bases)):
            cnt = Counter(
                self.l_normal[bi][gpos][0]
                for gpos in self.complements[bi]
                if (bi, gpos) in singular
            )
            per_basis.append(cnt)
            for form, mult in cnt.items():
                max_mult[form] = max(max_mult.get(form, 0), mult)
        total_cap = self.total_cap + sum(max_mult.values())
        caps = (total_cap,) * len(self.variables) if pattern else self.caps
        space = mpseries.dense_space(caps, total_cap)
        form_series = {
            form: mpseries.linear_form(
                dict(zip(self.variables, map(float, form))), self.variables, caps, total_cap
            )
            for form in max_mult
        }
        bernoulli = self._bernoulli_products(caps, total_cap)
        bprods, geometric = [], []
        for bi in range(len(self.bases)):
            fixed = mpseries.constant(1.0, self.variables, caps, total_cap)
            scale = Fraction(1)
            regular = []
            for gpos in self.complements[bi]:
                if (bi, gpos) in singular:
                    fixed = mpseries.series_mul(
                        fixed,
                        mpseries.monomial(
                            self.variables, caps, self._unit_key(gpos), total_cap=total_cap
                        ),
                    )
                    scale /= self.l_normal[bi][gpos][1]
                else:
                    regular.append(
                        (self.pairs.index((bi, gpos)), self._geometric_rows(space, bi, gpos))
                    )
            for form, mult in max_mult.items():
                for _ in range(mult - per_basis[bi].get(form, 0)):
                    fixed = mpseries.series_mul(fixed, form_series[form])
            fixed = mpseries.series_scale(fixed, float(scale))
            bprods.append(
                np.array([space.dense(mpseries.series_mul(p, fixed)) for p in bernoulli[bi]])
            )
            geometric.append(tuple(regular))
        tables = _Tables(
            space, bprods, tuple(geometric), tuple(max_mult.items()), space.locate(self.space.keys)
        )
        self._tables_cache[pattern] = tables
        return tables

    def evaluate_batch(self, tuples) -> np.ndarray:
        """G for a batch of outer tuples, as a (B, N) array over self.space.

        tuples is a (B, |Jbar|) integer array, columns in Jbar order; it has
        one empty row when J = [r].  Rows are grouped by the set of d_g that
        vanish and each group is assembled in one pass.
        """
        tuples = np.asarray(tuples, dtype=np.int64)
        if tuples.ndim != 2 or tuples.shape[1] != len(self.ctx.Jbar):
            raise exact.ExactError(
                f"outer tuples must be rows over Jbar = {self.ctx.Jbar}, got shape {tuples.shape}"
            )
        dnum = tuples @ self._d_num
        if np.all(dnum):
            return self._assemble_regular(tuples, dnum)
        patterns, inverse = np.unique(dnum == 0, axis=0, return_inverse=True)
        inverse = inverse.ravel()
        out = np.empty((len(tuples), self.space.size), dtype=complex)
        for p, pattern in enumerate(patterns):
            rows = np.flatnonzero(inverse == p)
            if pattern.any():
                key = frozenset(np.flatnonzero(pattern).tolist())
                out[rows] = self._assemble_singular(key, tuples[rows], dnum[rows])
            else:
                out[rows] = self._assemble_regular(tuples[rows], dnum[rows])
        return out

    def evaluate(self, m_outer=None) -> MultiSeries:
        """G for one outer tuple, truncated to the target caps."""
        m_outer = dict(m_outer or {})
        if set(m_outer) != set(self.ctx.Jbar):
            raise exact.ExactError(
                f"outer tuple must cover Jbar = {self.ctx.Jbar}, got {sorted(m_outer)}"
            )
        row = np.array([[m_outer[j] for j in self.ctx.Jbar]], dtype=np.int64)
        return self.space.series(self.variables, self.evaluate_batch(row)[0])

    def _numerator(self, tables, tuples, dnum) -> np.ndarray:
        """Sum over bases of coset sum times the geometric factors, per row.

        Real and imaginary parts that cancel between bases to within
        rounding (_CANCELLED of their summed magnitudes) are set to an exact
        zero, so a vanishing coefficient reads 0 rather than rounding noise.
        """
        space = tables.space
        total = np.zeros((len(tuples), space.size), dtype=complex)
        scale = np.zeros((len(tuples), space.size, 2))
        for bi, (q, coef, table) in enumerate(self._phase_data):
            phases = table[(tuples @ coef) % q]
            term = (phases @ tables.bprods[bi]) * (1.0 / self.cosets[bi].group_order)
            for k, rows in tables.geometric[bi]:
                inv = self._d_den / dnum[:, k]
                scalars = -(inv[:, None] ** np.arange(1, len(rows) + 1))
                term = space.mul(term, scalars @ rows)
            total += term
            scale += np.abs(term.view(float).reshape(scale.shape))
        parts = total.view(float).reshape(scale.shape)
        parts[np.abs(parts) <= _CANCELLED * scale] = 0.0
        return total

    def _assemble_regular(self, tuples, dnum) -> np.ndarray:
        return self._numerator(self._tables(frozenset()), tuples, dnum)

    def _assemble_singular(self, pattern, tuples, dnum) -> np.ndarray:
        tables = self._tables(pattern)
        numer = self._numerator(tables, tuples, dnum)
        # per row: a pole cancels when what division leaves is negligible
        # against that row's own numerator
        threshold = 1e-8 * np.maximum(1.0, np.abs(numer).max(axis=1))
        for form, mult in tables.forms:
            for _ in range(mult):
                numer, leftover = tables.space.divide(numer, form)
                bad = np.flatnonzero(leftover > threshold)
                if bad.size:
                    weights = {v: c for v, c in zip(self.variables, form) if c}
                    raise SingularConfiguration(
                        f"pole along {weights} does not cancel (remainder "
                        f"{leftover[bad[0]]:.3e}) for J = {self.ctx.J}, outer tuple "
                        f"{dict(zip(self.ctx.Jbar, tuples[bad[0]].tolist()))}"
                    )
        return numer[:, tables.narrow]


@dataclass(frozen=True)
class _Tables:
    """Tuple-independent series of one assembly path, dense over its space.

    bprods[bi] holds one Bernoulli-product row per coset rep (times the
    fixed singular factors); geometric[bi] pairs each nonvanishing d_g's
    pair index with its rows t_g L_g^n; forms lists the primitive forms to
    divide out, with multiplicity; narrow picks the plan space's keys.
    """

    space: mpseries.DenseSpace
    bprods: list
    geometric: tuple
    forms: tuple
    narrow: np.ndarray


@dataclass(frozen=True)
class GFAssembly:
    """A fully evaluated G for one subset and one outer tuple."""

    members: tuple[AffineFunctional, ...]
    bases: tuple[tuple[int, ...], ...]
    rho: exact.RhoVector
    variables: tuple[str, ...]
    caps: tuple[int, ...]
    series: MultiSeries


def compute_G(spec: SeriesSpec, J, m_outer=None, rho_variant: int = 0) -> GFAssembly:
    """Build the plan for (spec, J), evaluate one outer tuple, keep context."""
    plan = GeneratingFunctionPlan(spec, J, rho_variant=rho_variant)
    series = plan.evaluate(m_outer)
    members = build_lambda(spec, plan.ctx, m_outer)
    return GFAssembly(
        members=members,
        bases=plan.bases,
        rho=plan.rho,
        variables=plan.variables,
        caps=plan.caps,
        series=series,
    )


def extract_D(assembly: GFAssembly) -> complex:
    """The distribution value: top coefficient times the factorials."""
    raw = mpseries.coefficient(assembly.series, assembly.caps)
    return raw * prod(math.factorial(c) for c in assembly.caps)


def zm_partial_sum(members, exponents, y, M: int) -> complex:
    """Box partial sum of e(<y,n>) / prod f(n)^e over [-M, M]^m, f(n) != 0.

    The limit in M recovers, up to the sign (-1)^|Lambda| and the factorial
    normalization, the same distribution value extract_D reads off G; the
    agreement of the two routes is the empirical check on the coefficient
    machinery.
    """
    m = len(members[0].vec)
    if len(exponents) != len(members):
        raise exact.ExactError("one exponent per member required")
    total = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    for n in itertools.product(range(-M, M + 1), repeat=m):
        vals = [exact.dot(f.vec, n) + f.dot for f in members]
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
