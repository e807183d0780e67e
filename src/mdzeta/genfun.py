"""Assembly of the lattice generating function G and its coefficients.

For a chosen subset J of inner variables, the reduction replaces the series
over the J variables by coefficients of a truncated series G in one variable
t_f per member f of a family Lambda of integer vectors on Z^|J|: e_j for
each variable j in J, then each form meeting J restricted to J.  With the
outer tuple m frozen, a form member also carries the constant -sum over
Jbar of a_ij m_j.  G is a sum over the bases B extracted from Lambda of
coset-averaged Bernoulli-polynomial factors (for members of B) times
geometric factors -t_g/(d_g - L_g(t)) (for the rest).  Per pattern of
vanishing d_g, each basis term is compiled once into a record of its own:
coefficient rows of the monomials in the 1/d_g of its nonvanishing
factors, one row per coset rep, built by a recursion over the factors.
A batch of outer tuples is then one matrix product per basis, and a
caller that needs only G's top coefficient reads one column.
Whenever some d_g vanishes the per-basis terms are singular while the
sum is not; those tuples are assembled over a common denominator of
primitive linear forms and resolved by exact truncated division with a
remainder check, in a space that widens only the pivot variables of the
forms divided out.  A numerator whose terms cancel past what float
precision lets the remainder check read is refused.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from . import exact, mpseries
from .model import WORK_BUDGET, SeriesSpec, SubsetContext, subset_context
from .mpseries import SingularConfiguration
from .phase import unit_phase


# Relative size below which a sum over bases counts as an exact cancellation:
# about 450 roundings of the summed magnitudes, above the few roundings of
# noise the matrix products leave where bases cancel, and below any
# coefficient the data resolve (1e-11 of the terms is kept).
_CANCELLED = 1e-13

# A singular numerator is trusted to _ROUNDINGS roundings of its largest
# summed magnitude (max over keys of the sum over bases of |term|).  Where
# that error could reach the remainder threshold, the check cannot tell a
# pole that cancels from one that does not, so the row is refused.  The
# bundled specs, random_mixed and A = [[1, e]], e <= 200, sum at most 153
# times their largest coefficient.
_ROUNDINGS = 100

# A batch is assembled in chunks of rows in which no array holds more than
# this many entries (a column's real and imaginary magnitudes count as one);
# see GeneratingFunctionPlan._chunks.
_BATCH_ENTRIES = 2**18


def build_lambda(spec: SeriesSpec, ctx: SubsetContext) -> tuple[tuple[int, ...], ...]:
    """The vectors of Lambda for subset J on Z^|J|: e_j for each j in J, then
    each form of ctx.I restricted to J.

    Members are told apart by position, so a form that coincides with a
    coordinate vector stays a member of its own.  With the outer tuple m
    frozen, form member i is n -> <vec, n> - sum over Jbar of a_ij m_j.
    """
    units = [tuple(int(jj == j) for jj in ctx.J) for j in ctx.J]
    return tuple(units) + tuple(tuple(spec.a(i, j) for j in ctx.J) for i in ctx.I)


def enumerate_bases(vecs) -> dict[tuple[int, ...], tuple]:
    """The bases among the member vectors, each mapped to exact.dual_basis.

    Keys are position tuples in lexicographic order; values are (det, rows)
    with <vecs[idx[i]], rows[j]> = det * delta_ij.
    """
    out = {}
    for idx in itertools.combinations(range(len(vecs)), len(vecs[0])):
        try:
            out[idx] = exact.dual_basis([vecs[i] for i in idx])
        except exact.SingularBasis:
            continue
    if not out:
        raise exact.RankDeficient("family does not span; no bases exist")
    return out


def _normalize_linear(row: tuple[int, ...], den: int):
    """Split the linear form row / den (den > 0) into (primitive form, scale).

    The primitive form has coprime integer coefficients and a positive
    leading coefficient, so equal directions normalize to the identical key;
    row / den = scale * primitive.
    """
    g = gcd(*row)
    if next(c for c in row if c) < 0:
        g = -g
    return tuple(c // g for c in row), Fraction(g, den)


def _expand_geometric(space, rows, factors, degree) -> tuple[np.ndarray, np.ndarray]:
    """The K series of the (N, K) rows (an (N,) array when K = 1) times
    every geometric factor, one block per monomial in the 1/d_g.

    factors lists per factor the weights of L_g and the key of t_g.  As
    -t_g/(d_g - L_g) = -sum_{n>=0} d_g^-(n+1) t_g L_g^n, the product is the
    sum over exponents e >= 1 of prod_g d_g^-e_g times the block
    rows * prod_g (-t_g L_g^(e_g - 1)).  A block whose total exponent is
    above degree is identically zero (the caller's rows hold no key of
    degree below space.total_cap - degree) and is left out, so there are
    C(degree, G) blocks.  Truncated products commute in a space closed
    downward, so the rows first take the product of every -t_g, one
    signed shift by their monomial.  Then a block over the
    first g factors is its parent block over the first g - 1 times L_g
    once per step of e_g past 1.  Blocks come in increasing total exponent,
    then increasing last exponent, then in their parents' order.  Returns
    the exponents (A, G) and the blocks stacked as (N, A * K), block a in
    columns a*K to a*K + K - 1.
    """
    if factors:
        monomial = np.sum([unit for _, unit in factors], axis=0)
        rows = space.shift(rows, monomial, (-1) ** len(factors))
    exponents, blocks = zip(*_blocks(space, rows, factors, degree))
    # a lone block uncopied; one series is a column of its own
    stacked = blocks[0].reshape(space.size, -1) if len(blocks) == 1 else np.column_stack(blocks)
    return np.array(exponents, dtype=np.int64), stacked


def _blocks(space, rows, factors, top) -> list:
    """(exponents, block) over the given factors, of total exponent at most
    top, in the order _expand_geometric returns them."""
    if not factors:
        return [((), rows)]
    out = []
    for exps, block in _blocks(space, rows, factors[:-1], top - 1):
        for e in range(1, top - sum(exps) + 1):
            if e > 1:
                block = space.mul_linear(block, factors[-1][0])
            out.append((exps + (e,), block))
    return sorted(out, key=lambda item: (sum(item[0]), item[0][-1]))


class GeneratingFunctionPlan:
    """Everything about (instance, J) that survives across outer tuples.

    One _Basis record per basis of Lambda (self.bases) holds the basis's
    |det|, coset fractional parts and phases, and the linear forms L_g of
    its geometric factors; _d_rows holds every d_g as an integer form in the
    outer tuple.  The cosets are enumerated on first use of self.bases, so
    a caller can weigh coset_count (the sum of |det B|) before any is
    built.  evaluate_batch() and top_coefficients() then do only per-batch
    work: evaluate the d_g and the phases for every row, group rows by
    which d_g vanish, and per basis multiply the monomials in the 1/d_g,
    times the phases, with the pattern's compiled rows (_tables).
    """

    def __init__(self, spec: SeriesSpec, J, rho_variant: int = 0):
        self.spec = spec
        self.ctx = subset_context(spec, tuple(J))
        ctx = self.ctx
        self.vecs = build_lambda(spec, ctx)
        # t_j for variable j and t_{r+i} for form i, as error messages name them
        self.variables = tuple(f"t{j}" for j in ctx.J) + tuple(f"t{spec.r + i}" for i in ctx.I)
        caps = [spec.h[j - 1] for j in ctx.J] + [spec.k[i - 1] for i in ctx.I]
        # each member lies in some basis, so each cap is a Bernoulli order
        if max(caps) > mpseries.MAX_BERNOULLI_ORDER:
            raise mpseries.OrderPastFloatRange(
                f"Bernoulli order {max(caps)} for J = {ctx.J} is past float range "
                f"(at most {mpseries.MAX_BERNOULLI_ORDER})"
            )
        self.caps = tuple(caps)
        self.total_cap = sum(caps)
        # dot part of each member as an integer form in the outer tuple: 0
        # for the variables, -a(i, j) over Jbar for form i
        dots = tuple((0,) * len(ctx.Jbar) for _ in ctx.J) + tuple(
            tuple(-spec.a(i, j) for j in ctx.Jbar) for i in ctx.I
        )
        self._dot_cols = tuple(zip(*dots))  # per j in Jbar: its coefficient in each member
        duals = enumerate_bases(self.vecs)
        self.rho = exact.choose_rho(
            [row for _, rows in duals.values() for row in rows], variant=rho_variant
        )
        # the coset representatives every basis term reads: sum of |det B|
        self.coset_count = sum(abs(det) for det, _ in duals.values())
        # each dual is integer rows over den = |det|, and so are L_g and d_g
        self._duals = []  # per basis: (members, den, rows with det > 0, complement)
        d_rows = []  # per (basis, complement member): den * d_g over Jbar
        for members, (det, rows) in duals.items():
            den = abs(det)
            if det < 0:
                rows = tuple(tuple(-v for v in row) for row in rows)
            complement = []
            for g in (p for p in range(len(self.vecs)) if p not in members):
                row = [0] * len(self.vecs)
                row[g] = den
                for f, dual in zip(members, rows):
                    row[f] = -exact.dot(self.vecs[g], dual)
                complement.append((len(d_rows), g, tuple(row)))
                d_rows.append([exact.dot(row, col) for col in self._dot_cols])
            self._duals.append((members, den, rows, tuple(complement)))
        self.space = mpseries.dense_space(self.caps, self.total_cap)
        self.top = self.space.size - 1  # total_cap is sum(caps): the caps key comes last
        # d_g = (tuples @ _d_rows[:, k]) / den at the outer tuples, for the
        # complement entry (k, g, _) of a basis of denominator den
        self._d_rows = np.array(d_rows, dtype=np.int64).reshape(len(d_rows), len(ctx.Jbar)).T
        self._phase_memo: dict[int, dict[int, complex]] = {}  # q -> residue -> e(res/q)
        self._bernoulli_memo: dict[tuple[int, int], list[complex]] = {}  # (residue, fden) -> row
        self._tables_cache: dict[frozenset, _Tables] = {}

    @functools.cached_property
    def bases(self) -> tuple["_Basis", ...]:
        """One _Basis record per basis, its cosets enumerated on first use.
        With y_J over the common denominator Q, <y + w, dual_f> is an
        integer over fden = Q * den for each coset rep w."""
        y_J = tuple(self.spec.y[j - 1] for j in self.ctx.J)
        Q = math.lcm(*(y.denominator for y in y_J))
        yQ = tuple(y.numerator * (Q // y.denominator) for y in y_J)
        bases = []
        for members, den, rows, complement in self._duals:
            fden = Q * den
            reps = exact.coset_representatives([self.vecs[p] for p in members]).representatives
            pairing = [exact.dot(self.rho, row) for row in rows]
            shift = [exact.dot(yQ, row) for row in rows]
            residues = tuple(
                tuple(
                    exact.directed_residue(s + Q * exact.dot(w, row), fden, p)
                    for s, row, p in zip(shift, rows, pairing)
                )
                for w in reps
            )
            # the coset phases e(-<dots, c>): the member dots are integer
            # forms in the outer tuple, so each phase is a q-th root of unity
            # read at an integer form mod q, q the lcm of the reduced
            # denominators of the fractional parts.  The form's coefficients
            # are kept in [0, q), so its value at outer coordinates up to
            # WORK_BUDGET (the largest --M-outer admitted) stays inside int64.
            q = fden // gcd(fden, *(r for rs in residues for r in rs))
            if len(self.ctx.Jbar) * WORK_BUDGET * (q - 1) > np.iinfo(np.int64).max:
                raise exact.ExactError(
                    f"coset phase denominator {q} for J = {self.ctx.J} is too large: residues "
                    f"mod {q} could leave int64 at outer coordinates up to {WORK_BUDGET}"
                )
            coef = np.array([
                [-sum(col[f] * (r * q // fden) for r, f in zip(rs, members)) % q for rs in residues]
                for col in self._dot_cols
            ], dtype=np.int64).reshape(len(self._dot_cols), len(residues))
            bases.append(_Basis(members, den, fden, residues, q, coef, complement))
        return tuple(bases)

    def _phases(self, basis: "_Basis", tuples) -> np.ndarray:
        """The coset phases of a basis, one row per outer tuple, (B, K).

        At q = 1 every phase is 1.  Otherwise unit_phase runs once per
        residue mod q that some tuple reaches and is memoised for the plan,
        so the work follows the outer tuples, not q, which grows with the
        twist's denominators.
        """
        q = basis.q
        if q == 1:
            return np.ones((len(tuples), len(basis.residues)), dtype=complex)
        residues = (tuples @ basis.coef) % q
        hit, inverse = np.unique(residues, return_inverse=True)
        memo = self._phase_memo.setdefault(q, {})
        values = []
        for res in hit.tolist():
            if res not in memo:
                memo[res] = unit_phase(Fraction(res, q))
            values.append(memo[res])
        return np.array(values, dtype=complex)[inverse.reshape(residues.shape)]

    def _bernoulli_products(self, space) -> list:
        """Per basis: the Bernoulli factor product of each coset rep, (N, K),
        or (N,) for a basis of one coset rep.

        Each factor is a series in its own basis variable, so the product's
        coefficient at a key is the product of one coefficient per factor,
        read at the key's exponent of that factor's variable, and 0 at keys
        holding a variable outside the basis.  Factors multiply in basis
        order.  The coefficient rows are memoised for the plan per offset,
        at the longest order any pattern's space has asked for: each
        coefficient is computed on its own, so a shorter row is a prefix.
        """
        out = []
        for b in self.bases:
            outside = [g for _, g, _ in b.complement]
            inside = np.flatnonzero(~space.keys[:, outside].any(axis=1))
            product = None
            for fi, fpos in enumerate(b.members):
                nmax = min(space.caps[fpos], space.total_cap)
                factor = []
                for rs in b.residues:
                    row = self._bernoulli_memo.get((rs[fi], b.fden))
                    if row is None or len(row) <= nmax:
                        row = mpseries.bernoulli_coefficients(nmax, Fraction(rs[fi], b.fden))
                        self._bernoulli_memo[(rs[fi], b.fden)] = row
                    factor.append(row[:nmax + 1])
                values = np.array(factor, dtype=complex).T[space.keys[inside, fpos]]
                product = values if product is None else product * values
            table = np.zeros((space.size, len(b.residues)), dtype=complex)
            table[inside] = product
            out.append(_series(table))
        return out

    def _tables(self, pattern: frozenset) -> "_Tables":
        """Tables for the tuples whose vanishing d_g are the columns in pattern.

        The empty pattern is the regular path, in the plan's own space.
        Otherwise each basis term is put over the common denominator: its
        singular factors -t_g/(0 - L_g) become t_g/(scale * primitive form),
        their t_g taken as one shift by their monomial, and it is
        multiplied by the primitive forms it lacks, so the
        numerator is a polynomial to be divided by every form at its largest
        multiplicity.  The total cap widens by those multiplicities, and so
        does the cap of each form's pivot (mpseries.pivot), as division
        needs; every other variable keeps the plan's cap.  A quotient key
        reads only numerator keys with no more of a non-pivot variable than
        it has, and products only raise exponents, so keys past a
        non-pivot cap never feed a key of the plan's space.  Each basis's
        fixed factors add exactly the widening to the degree of its rows,
        so its nonvanishing geometric factors expand (_expand_geometric)
        up to the plan's total cap.  A basis whose expansion would hold
        more than WORK_BUDGET entries is refused before anything is built.
        """
        if pattern in self._tables_cache:
            return self._tables_cache[pattern]
        normal = {
            k: _normalize_linear(row, b.den)
            for b in self.bases for k, _, row in b.complement if k in pattern
        }
        per_basis = [
            Counter(normal[k][0] for k, _, _ in b.complement if k in pattern) for b in self.bases
        ]
        max_mult = Counter()
        for cnt in per_basis:
            max_mult |= cnt
        total_cap = self.total_cap + sum(max_mult.values())
        pivots = {mpseries.pivot(form) for form in max_mult}
        caps = tuple(total_cap if v in pivots else c for v, c in enumerate(self.caps))
        space = mpseries.dense_space(caps, total_cap)
        for b in self.bases:
            regular = sum(k not in pattern for k, _, _ in b.complement)
            entries = math.comb(self.total_cap, regular) * len(b.residues) * space.size
            if entries > WORK_BUDGET:
                raise mpseries.SeriesError(
                    f"compiled table of {entries} entries for J = {self.ctx.J} is over the "
                    f"work budget of {WORK_BUDGET}"
                )
        units = np.eye(len(self.variables), dtype=np.int64)
        compiled = []
        for b, cnt, rows in zip(self.bases, per_basis, self._bernoulli_products(space)):
            scale = Fraction(1, b.den)  # the coset average 1/|det|, then the singular scales
            pairs, factors, singular = [], [], []
            for k, g, row in b.complement:
                if k in pattern:
                    singular.append(g)
                    scale /= normal[k][1]
                else:
                    pairs.append(k)
                    factors.append((tuple(c / b.den for c in row), units[g]))
            if singular:
                rows = space.shift(rows, units[singular].sum(axis=0))
            for form in (max_mult - cnt).elements():  # the forms it lacks, in max_mult order
                rows = space.mul_linear(rows, form)
            exps, expanded = _expand_geometric(space, rows * float(scale), factors, self.total_cap)
            rows = np.ascontiguousarray(expanded.T)  # (A * K, N), see _Tables
            compiled.append((np.array(pairs, dtype=np.int64), exps, rows))
        tables = _Tables(
            space, tuple(compiled), tuple(max_mult.items()), space.locate(self.space.keys)
        )
        self._tables_cache[pattern] = tables
        return tables

    def evaluate_batch(self, tuples) -> np.ndarray:
        """G for a batch of outer tuples, as a (B, N) array over self.space.

        tuples is a (B, |Jbar|) integer array, columns in Jbar order; it has
        one empty row when J = [r].
        """
        return self._evaluate(tuples, slice(None))

    def top_coefficients(self, tuples) -> np.ndarray:
        """G's top coefficient (column self.top) for a batch of outer
        tuples, as evaluate_batch(tuples)[:, self.top] but reading only
        that column of the regular path's compiled rows."""
        return self._evaluate(tuples, slice(self.top, self.top + 1))[:, 0]

    def _evaluate(self, tuples, columns: slice) -> np.ndarray:
        """The columns of G over self.space for a batch of outer tuples.

        Rows are grouped by the set of d_g that vanish and each group is
        assembled in one pass.
        """
        tuples = np.asarray(tuples, dtype=np.int64)
        if tuples.ndim != 2 or tuples.shape[1] != len(self.ctx.Jbar):
            raise exact.ExactError(
                f"outer tuples must be rows over Jbar = {self.ctx.Jbar}, got shape {tuples.shape}"
            )
        dnum = tuples @ self._d_rows
        if np.all(dnum):
            return self._assemble_regular(tuples, dnum, columns)
        patterns, inverse = group_rows(dnum == 0)
        out = np.empty((len(tuples), len(range(self.space.size)[columns])), dtype=complex)
        for p, pattern in enumerate(patterns):
            rows = np.flatnonzero(inverse == p)
            if pattern.any():
                key = frozenset(np.flatnonzero(pattern).tolist())
                out[rows] = self._assemble_singular(key, tuples[rows], dnum[rows], columns)
            else:
                out[rows] = self._assemble_regular(tuples[rows], dnum[rows], columns)
        return out

    # perfbench/tracer.py wraps this by name
    def evaluate(self, m_outer=None) -> np.ndarray:
        """G for one outer tuple (a dict over Jbar), as a row over self.space."""
        m_outer = dict(m_outer or {})
        if set(m_outer) != set(self.ctx.Jbar):
            raise exact.ExactError(
                f"outer tuple must cover Jbar = {self.ctx.Jbar}, got {sorted(m_outer)}"
            )
        row = np.array([[m_outer[j] for j in self.ctx.Jbar]], dtype=np.int64)
        return self.evaluate_batch(row)[0]

    def _numerator(
        self, tables, tuples, dnum, columns=slice(None)
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sum over bases of coset sum times the geometric factors, per row,
        over the given columns of the tables' space, and per row, column and
        part (real, imaginary) the sum over bases of its magnitudes.

        Per basis, the powers of its nonvanishing 1/d_g (its |det| over the
        tuples' values of its _d_rows columns) are built by products, and the
        monomials prod_g d_g^-e_g of its exponent rows are products of those
        powers, (B, A); their outer product with the coset phases,
        (B, A * K), times the compiled rows (A * K, N) is the basis term.
        Both sums have one row per outer tuple, (B, columns); _divide
        divides the numerator's key-major transpose.  Real and
        imaginary parts that cancel between bases to within rounding
        (_CANCELLED of their summed magnitudes) are set to an exact zero, so
        a vanishing coefficient reads 0 rather than rounding noise.
        """
        count = len(tuples)
        total = np.zeros((count, len(range(tables.space.size)[columns])), dtype=complex)
        scale = np.zeros(total.shape + (2,))
        for b, (pairs, exponents, rows) in zip(self.bases, tables.bases):
            coef = self._phases(b, tuples)
            if len(pairs):  # else the one monomial is 1
                # powers[e] = 1/d_g^e by products: pow() is slow at negative bases
                inv = b.den / dnum[:, pairs]
                powers = np.ones((self.total_cap + 1,) + inv.shape)
                for e in range(1, len(powers)):
                    np.multiply(powers[e - 1], inv, out=powers[e])
                monomials = powers[exponents, :, np.arange(len(pairs))].prod(axis=1)  # (A, B)
                coef = (monomials.T[:, :, None] * coef[:, None, :]).reshape(count, -1)
            term = coef @ rows[:, columns]
            total += term
            scale += np.abs(term.view(float).reshape(scale.shape))
        parts = total.view(float).reshape(scale.shape)
        parts[np.abs(parts) <= _CANCELLED * scale] = 0.0
        return total, scale

    def _chunks(self, tables, count: int, columns: int) -> list[slice]:
        """Slices of count rows in which no per-row array of _numerator holds
        more than _BATCH_ENTRIES entries: the numerator over its columns, and
        per basis the powers of its 1/d_g ((total cap + 1) * G), the
        monomials (A * G) and their products with the phases (A * K)."""
        width = max(columns, *(
            max((self.total_cap + 1) * len(pairs), exponents.size, len(rows))
            for pairs, exponents, rows in tables.bases
        ))
        step = max(1, _BATCH_ENTRIES // width)
        return [slice(start, start + step) for start in range(0, count, step)]

    def _assemble_regular(self, tuples, dnum, columns=slice(None)) -> np.ndarray:
        tables = self._tables(frozenset())
        chunks = self._chunks(tables, len(tuples), len(range(tables.space.size)[columns]))
        return np.concatenate([
            self._numerator(tables, tuples[rows], dnum[rows], columns)[0] for rows in chunks
        ])

    def _assemble_singular(self, pattern, tuples, dnum, columns=slice(None)) -> np.ndarray:
        tables = self._tables(pattern)
        return np.concatenate([
            self._divide(tables, tuples[rows], dnum[rows])[tables.narrow[columns]].T
            for rows in self._chunks(tables, len(tuples), tables.space.size)
        ])

    def _divide(self, tables, tuples, dnum) -> np.ndarray:
        """The quotient of a singular pattern's numerator by its forms, over
        the pattern's space, key-major (N, B), with the precision and
        remainder checks."""
        numer, scale = self._numerator(tables, tuples, dnum)
        magnitude = scale.max(axis=(1, 2), initial=0.0)
        # per row: a pole cancels when what division leaves is negligible
        # against that row's own numerator, and the numerator is precise
        # enough for that to be read
        largest = np.maximum(1.0, np.abs(numer).max(axis=1))
        threshold = 1e-8 * largest
        bad = np.flatnonzero(2.0**-52 * _ROUNDINGS * magnitude > threshold)
        if bad.size:
            raise SingularConfiguration(
                f"numerator cancels past float precision (terms up to "
                f"{magnitude[bad[0]]:.3e} for coefficients up to {largest[bad[0]]:.3e}), so its "
                f"poles cannot be checked, for J = {self.ctx.J}, outer tuple "
                f"{dict(zip(self.ctx.Jbar, tuples[bad[0]].tolist()))}"
            )
        numer = _series(numer.T)
        for form, mult in tables.forms:
            for _ in range(mult):
                numer, leftover = mpseries.divide_linear(tables.space, numer, form)
                bad = np.flatnonzero(leftover > threshold)
                if bad.size:
                    weights = {v: c for v, c in zip(self.variables, form) if c}
                    raise SingularConfiguration(
                        f"pole along {weights} does not cancel (remainder "
                        f"{np.atleast_1d(leftover)[bad[0]]:.3e}) for J = {self.ctx.J}, "
                        f"outer tuple {dict(zip(self.ctx.Jbar, tuples[bad[0]].tolist()))}"
                    )
        return numer.reshape(len(numer), -1)


def _series(batch: np.ndarray) -> np.ndarray:
    """An (N, B) batch of one series as its (N,) array, else the batch.

    The series kernels read both, and numpy gathers and scatters keys of a
    1-D array about three times faster than of an (N, 1) one.
    """
    return batch[:, 0] if batch.shape[1] == 1 else batch


def group_rows(flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows, index of each row's) of a (B, P) boolean array, as
    np.unique(flags, axis=0, return_inverse=True) gives them.

    Each row is packed into bits and read as one fixed-width byte string,
    so a 1-D unique sorts them in the same lexicographic order.
    """
    packed = np.ascontiguousarray(np.packbits(flags, axis=1))
    codes = packed.view(f"S{packed.shape[1]}").ravel()
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    return flags[first], inverse.ravel()


@dataclass(frozen=True, eq=False)
class _Basis:
    """One basis of Lambda: its member positions and den = |det|; per coset
    rep w the rho-directed fractional parts {<y_J + w, dual_f>} as integers
    over fden = Q * den; the coset phases, q-th roots of unity read at
    (outer tuple @ coef) mod q, one column per rep; and per member g
    outside the basis (k, g, den * the weights of L_g), k the column of
    _d_rows that gives den * d_g.
    """

    members: tuple[int, ...]
    den: int
    fden: int
    residues: tuple[tuple[int, ...], ...]
    q: int
    coef: np.ndarray
    complement: tuple[tuple[int, int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class _Tables:
    """Tuple-independent data of one assembly path, dense over its space.

    bases holds one record per basis, in plan order: (pairs, the columns
    of _d_rows of its G nonvanishing d_g in complement order; exponents,
    one row per monomial prod_g d_g^-e_g (A x G, see _expand_geometric);
    rows, per monomial one row per coset rep (A * K x N): the Bernoulli
    products over |det| times the fixed singular factors and the
    monomial's share of the geometric factors).  rows is the transpose of
    _expand_geometric's key-major blocks, so _numerator's matrix product
    rounds as it always has: with the transpose of an (N, A * K) array it
    differs in the last bit at one outer tuple.  forms lists the primitive
    forms to divide out, with multiplicity; narrow picks the plan space's
    keys.
    """

    space: mpseries.DenseSpace
    bases: tuple
    forms: tuple
    narrow: np.ndarray
