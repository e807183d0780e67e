"""Exact integer lattice linear algebra.  No floats in here.

Supplies the pieces the generating-function layer leans on: dual bases of
integer vector families by fraction-free elimination, as integer rows over
the basis determinant; coset representatives of Z^m / <rows> as the box
under the pivots of an echelon basis; a perturbation direction rho read off
against the bases' dual rows, which avoids every degenerate hyperplane; and
the rho-directed fractional part used for lattice-point counting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
    determinant and dual of the exact layer comes from here.
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


@dataclass(frozen=True)
class CosetSet:
    """The finite group Z^m / <rows>, one representative per coset.

    The representatives are the integer points of the box prod [0, d_i),
    d_i the pivots of an echelon basis of the lattice, in lexicographic
    order, so the list is deterministic.
    """

    representatives: tuple[tuple[int, ...], ...]
    group_order: int


def coset_representatives(vectors) -> CosetSet:
    """Quotient of Z^m by the lattice generated by the given m rows.

    Unimodular row steps (Euclid down each column) bring the rows to an
    upper triangular basis with pivots d_1..d_m.  The box prod [0, d_i) is a
    complete set of representatives: subtracting multiples of the i-th
    echelon row fixes coordinate i without touching the coordinates before
    it, and two box points that differ by a lattice vector agree in every
    coordinate, the first one first.
    """
    a = [[int(v) for v in row] for row in vectors]
    m = len(a)
    if any(len(row) != m for row in a):
        raise ExactError("coset lattice needs a square generating matrix")
    pivots = []
    for c in range(m):
        while True:
            live = [i for i in range(c, m) if a[i][c]]
            if not live:
                raise SingularBasis("generators do not span a finite-index lattice")
            p = min(live, key=lambda i: abs(a[i][c]))
            a[c], a[p] = a[p], a[c]
            if len(live) == 1:
                break
            for i in range(c + 1, m):
                q = a[i][c] // a[c][c]
                a[i] = [x - q * y for x, y in zip(a[i], a[c])]
        pivots.append(abs(a[c][c]))
    return CosetSet(
        representatives=tuple(itertools.product(*(range(d) for d in pivots))),
        group_order=prod(pivots),
    )


# choose_rho tries this many rungs of _rho_ladder before it gives up
RHO_CANDIDATES = 64


def _rho_ladder(m: int):
    yield tuple(range(1, m + 1))
    s = 1
    while True:
        t = m + s
        yield tuple(t**e for e in range(m))
        s += 1


def choose_rho(normals) -> tuple[int, ...]:
    """The first direction of a fixed ladder off every normal.

    normals are the dual rows of every basis of a spanning family, as
    enumerate_bases returns them; a direction pairing to nonzero with each
    of them is certified.  It also lies on no hyperplane spanned by m-1
    members: some member completes those m-1 to a basis, and that member's
    dual row is orthogonal to them, so it is the hyperplane's normal.  The
    ladder starts at (1, 2, ..., m) and continues with geometric candidates
    (1, t, t^2, ...), t = m+1, m+2, ....  One certified direction is
    enough: rho only decides on which side of a hyperplane a boundary
    lattice point counts, and the reduced side does not depend on it (the
    tests evaluate plans under later certified rungs and compare).
    """
    normals = list(normals)
    if not normals:
        raise ExactError("no normals to avoid")
    m = len(normals[0])
    if any(len(v) != m for v in normals):
        raise ExactError("ragged normals")
    for cand in itertools.islice(_rho_ladder(m), RHO_CANDIDATES):
        if all(dot(cand, normal) != 0 for normal in normals):
            return cand
    raise ExhaustedCandidates(f"no certified direction within {RHO_CANDIDATES} candidates")


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
