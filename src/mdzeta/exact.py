"""Exact integer lattice linear algebra.  No floats in here.

Supplies the pieces the generating-function layer leans on: dual bases of
integer vector families by fraction-free elimination, as integer rows over
the basis determinant, Smith normal form with tracked unimodular
transforms, enumeration of finite quotient groups Z^m / <rows>, selection of
a perturbation direction rho avoiding all degenerate hyperplanes, and the
rho-directed fractional part used for lattice-point counting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod


class ExactError(ValueError):
    pass


class SingularBasis(ExactError):
    pass


class ZeroPairing(ExactError):
    pass


class ExhaustedCandidates(ExactError):
    pass


class RankDeficient(ExactError):
    pass


def dot(u, v):
    """<u, v> exactly: an int for integer vectors, a Fraction once a Fraction enters."""
    if len(u) != len(v):
        raise ExactError(f"dot of lengths {len(u)} and {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def dual_basis(vectors) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(det, rows) with <vectors[i], rows[j]> = det * delta_ij, for integer rows.

    Fraction-free Gauss-Jordan (Bareiss) on [vectors | I]: every division is
    exact, the left block ends as d*I and the right block as d times the
    inverse, with d the determinant after the row swaps.  So rows is the
    transposed adjugate, and rows / det is the rational dual basis.  Every
    determinant, dual and inverse of the exact layer comes from here.
    """
    a = [[int(v) for v in row] for row in vectors]
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        raise ExactError("dual basis needs a nonempty square family")
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            raise SingularBasis("family is not a basis")
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        p = a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[k])]
        prev = p
    return sign * prev, tuple(tuple(sign * a[i][n + j] for i in range(n)) for j in range(n))


def smith_normal_form(mat) -> tuple[tuple, tuple, tuple]:
    """(U, D, V) with U*mat*V = D diagonal, U and V unimodular.

    Diagonal entries are nonnegative and each divides the next.  Integer
    input only.
    """
    a = [[int(v) for v in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ExactError("ragged matrix")
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_sub(i, j, q):  # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def col_sub(i, j, q):  # col i -= q * col j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])
        while True:
            if a[t][t] < 0:
                negate_row(t)
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    row_sub(i, t, a[i][t] // a[t][t])
                    if a[i][t] != 0:  # Euclidean step shrank the remainder
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    col_sub(j, t, a[t][j] // a[t][t])
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            viol = next(
                (
                    i
                    for i in range(t + 1, m)
                    for j in range(t + 1, n)
                    if a[i][j] % a[t][t] != 0
                ),
                None,
            )
            if viol is None:
                break
            row_sub(t, viol, -1)  # pull the violating row up; pivot will shrink
        t += 1
    for i in range(min(m, n)):
        if a[i][i] < 0:
            negate_row(i)
    freeze = lambda rows: tuple(tuple(row) for row in rows)
    return freeze(u), freeze(a), freeze(v)


def _unimodular_inverse(mat) -> tuple[tuple[int, ...], ...]:
    det, rows = dual_basis(mat)
    if abs(det) != 1:
        raise ExactError("matrix is not unimodular")
    return tuple(tuple(det * v for v in col) for col in zip(*rows))


def _row_times(vec, mat) -> tuple[int, ...]:
    return tuple(
        sum(vec[i] * mat[i][j] for i in range(len(vec)))
        for j in range(len(mat[0]))
    )


@dataclass(frozen=True)
class CosetSet:
    """The finite group Z^m / <rows>, with canonical representatives.

    reduce() maps any integer vector to the representative of its coset;
    representatives are enumerated in lexicographic order of the Smith
    coordinates, so the list is deterministic.
    """

    representatives: tuple[tuple[int, ...], ...]
    group_order: int
    V: tuple[tuple[int, ...], ...]
    Vinv: tuple[tuple[int, ...], ...]
    diag: tuple[int, ...]

    def reduce(self, w) -> tuple[int, ...]:
        c = _row_times(tuple(w), self.V)
        c = tuple(x % d for x, d in zip(c, self.diag))
        return _row_times(c, self.Vinv)

    def same_coset(self, w1, w2) -> bool:
        delta = tuple(x - y for x, y in zip(w1, w2))
        c = _row_times(delta, self.V)
        return all(x % d == 0 for x, d in zip(c, self.diag))


def coset_representatives(vectors) -> CosetSet:
    """Quotient of Z^m by the lattice generated by the given m rows."""
    vecs = [tuple(int(v) for v in row) for row in vectors]
    m = len(vecs)
    if any(len(row) != m for row in vecs):
        raise ExactError("coset lattice needs a square generating matrix")
    _, d, v = smith_normal_form(vecs)
    diag = tuple(d[i][i] for i in range(m))
    if any(x == 0 for x in diag):
        raise SingularBasis("generators do not span a finite-index lattice")
    vinv = _unimodular_inverse(v)
    reps = tuple(
        _row_times(c, vinv)
        for c in itertools.product(*(range(x) for x in diag))
    )
    return CosetSet(
        representatives=reps,
        group_order=prod(diag),
        V=tuple(tuple(row) for row in v),
        Vinv=vinv,
        diag=diag,
    )


@dataclass(frozen=True)
class RhoVector:
    """A certified perturbation direction.

    Certification means: for every basis extracted from the family and every
    member of that basis the pairing <rho, dual> is nonzero, and rho lies on
    none of the hyperplanes spanned by rank-(m-1) subfamilies.  The two
    conditions coincide for spanning families; both are checked.
    """

    coords: tuple[int, ...]
    ladder_index: int
    bases_checked: int
    hyperplanes_checked: int


def _rho_ladder(m: int):
    yield tuple(range(1, m + 1))
    s = 1
    while True:
        t = m + s
        yield tuple(t**e for e in range(m))
        s += 1


def choose_rho(vectors, variant: int = 0, max_candidates: int = 64) -> RhoVector:
    """Pick the (variant+1)-th certified direction from a fixed ladder.

    The ladder starts at (1, 2, ..., m) and continues with geometric
    candidates (1, t, t^2, ...), t = m+1, m+2, ...; for m = 1 every rung is
    (1,), so all variants agree there.
    """
    if variant < 0:
        raise ExactError("variant must be nonnegative")
    vecs = list(dict.fromkeys(tuple(int(x) for x in v) for v in vectors))
    if not vecs:
        raise ExactError("empty vector family")
    m = len(vecs[0])
    if any(len(v) != m for v in vecs):
        raise ExactError("ragged vector family")
    # rho is certified when it pairs to nonzero with every dual row of every
    # basis and with the normal of every hyperplane spanned by m-1 members
    normals, bases, hyperplanes = [], 0, 0
    for subset in itertools.combinations(vecs, m):
        try:
            normals.extend(dual_basis(subset)[1])
            bases += 1
        except SingularBasis:
            continue
    if not bases:
        raise RankDeficient(f"family has rank < {m}")
    # m-1 members span a hyperplane exactly when some unit vector completes
    # them to a basis; the dual row of that unit vector is then orthogonal to
    # them, so it is the hyperplane's normal
    units = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    for subset in itertools.combinations(vecs, m - 1) if m >= 2 else ():
        for unit in units:
            try:
                normals.append(dual_basis([*subset, unit])[1][-1])
                hyperplanes += 1
                break
            except SingularBasis:
                continue

    found = 0
    for idx, cand in enumerate(_rho_ladder(m)):
        if idx >= max_candidates:
            break
        if all(dot(cand, normal) != 0 for normal in normals):
            if found == variant:
                return RhoVector(
                    coords=cand,
                    ladder_index=idx,
                    bases_checked=bases,
                    hyperplanes_checked=hyperplanes,
                )
            found += 1
    raise ExhaustedCandidates(
        f"no certified direction within {max_candidates} candidates (variant {variant})"
    )


def directed_residue(num: int, den: int, p) -> int:
    """num / den mod 1 nudged along the sign of p, as a numerator over den.

    Lands in [0, den) for p > 0 and in (0, den] for p < 0: at a multiple of
    den the positive branch gives 0 and the negative branch gives den, which
    is exactly the limit of {num/den - eps*p} as eps -> 0+.
    """
    if p > 0:
        return num % den
    if p < 0:
        return den - (-num) % den
    raise ZeroPairing("direction pairs to zero; rho certification failed")


def fractional_part(x: Fraction, p) -> Fraction:
    """Fractional part of x nudged along the sign of p; lands in [0, 1].

    At non-integer x both branches agree with the usual {x}; at integer x
    the positive branch gives 0 and the negative branch gives 1.
    """
    x = Fraction(x)
    return Fraction(directed_residue(x.numerator, x.denominator, p), x.denominator)
