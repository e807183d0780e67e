"""Row-major dense series kernels: the reference the key-major ones are checked against.

A batch here is a (B, N) complex array, one row per series and one column
per key of an mdzeta.mpseries.DenseSpace, and every gather and scatter
indexes keys on the last axis.  The operations and their order are those
of DenseSpace.mul_linear and mpseries.divide_linear, so on the transposed
batch the key-major kernels must agree with these to the last bit, signed
zeros included.  The index arrays are built here on their own, by shifting
explicit key arrays and finding each shifted key with DenseSpace.locate,
so the bitwise checks share no index array with the code under test.
"""

from __future__ import annotations

import numpy as np

from mdzeta.mpseries import CapExceeded, DenseSpace, SeriesError, pivot


def pairs(space: DenseSpace, monomial) -> tuple[np.ndarray, np.ndarray]:
    """(columns of the keys k >= monomial, columns of the keys k - monomial)."""
    monomial = np.asarray(monomial, dtype=np.int64)
    targets = np.flatnonzero((space.keys >= monomial).all(axis=1))
    return targets, space.locate(space.keys[targets] - monomial)


def division_steps(space: DenseSpace, form: tuple[int, ...]):
    """(pivot weight, free columns, levels) of division by the integer form,
    laid out as DenseSpace._division_steps lays them out."""
    if not any(form):
        raise SeriesError("division by the zero form")
    p = pivot(form)
    if space.caps[p] < space.total_cap:
        raise CapExceeded("division needs the pivot's cap at the total cap; widen the space")
    others = [i for i in range(len(form) - 1, -1, -1) if form[i] and i != p]
    levels = []
    for e in range(int(space.keys[:, p].max(initial=0)), 0, -1):
        src = np.flatnonzero(space.keys[:, p] == e)
        qkeys = space.keys[src]
        qkeys[:, p] -= 1
        moves = []
        for i in others:
            shifted = qkeys.copy()
            shifted[:, i] += 1
            inside = shifted[:, i] <= space.caps[i]
            rows = slice(None) if inside.all() else np.flatnonzero(inside)
            moves.append((form[i], rows, space.locate(shifted[rows])))
        levels.append((src, space.locate(qkeys), moves))
    free = np.flatnonzero(space.keys[:, p] == 0)
    return form[p], free, levels


def mul_linear(space: DenseSpace, batch: np.ndarray, weights) -> np.ndarray:
    """Row-wise truncated product of a (B, N) batch with sum_i weights[i] t_i:
    one gather-add per nonzero weight, in increasing i."""
    out = np.zeros(np.shape(batch), dtype=complex)
    for unit, w in zip(np.eye(len(weights), dtype=np.int64), weights):
        if w:
            targets, sources = pairs(space, unit)
            out[..., targets] += w * batch[..., sources]
    return out


def divide_linear(space: DenseSpace, numer: np.ndarray, form) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise exact division of a (B, N) batch by an integer linear form.

    Returns (quotient batch, per-row largest |coefficient| left on the keys
    free of the pivot), level by level in the pivot's exponent as
    mpseries.divide_linear divides.
    """
    pivot_weight, free, levels = division_steps(space, tuple(int(w) for w in form))
    work = np.array(numer, dtype=complex)
    quotient = np.zeros_like(work)
    for src, qcols, moves in levels:
        level = work[:, src]
        level.real /= pivot_weight  # each part on its own, as complex / int does
        level.imag /= pivot_weight
        quotient[:, qcols] = level
        for weight, rows, targets in moves:
            work[:, targets] -= weight * level[:, rows]
    left = work[:, free]
    # hypot, as abs() of a Python complex; np.abs differs in the last bit
    return quotient, np.hypot(left.real, left.imag).max(axis=1, initial=0.0)
