"""Row-major dense series kernels: the reference the key-major ones are checked against.

A batch here is a (B, N) complex array, one row per series and one column
per key of an mdzeta.mpseries.DenseSpace, and every gather and scatter
indexes keys on the last axis.  The operations, their order and the index
arrays of the space are those of DenseSpace.mul_linear and
mpseries.divide_linear, so on the transposed batch the key-major kernels
must agree with these to the last bit, signed zeros included.
"""

from __future__ import annotations

import numpy as np

from mdzeta.mpseries import DenseSpace


def mul_linear(space: DenseSpace, batch: np.ndarray, weights) -> np.ndarray:
    """Row-wise truncated product of a (B, N) batch with sum_i weights[i] t_i:
    one gather-add per nonzero weight, in increasing i."""
    out = np.zeros(np.shape(batch), dtype=complex)
    for i, w in enumerate(weights):
        if w:
            targets, sources = space._shift(i)
            out[..., targets] += w * batch[..., sources]
    return out


def divide_linear(space: DenseSpace, numer: np.ndarray, form) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise exact division of a (B, N) batch by an integer linear form.

    Returns (quotient batch, per-row largest |coefficient| left on the keys
    free of the pivot), level by level in the pivot's exponent as
    mpseries.divide_linear divides.
    """
    pivot_weight, free, levels = space._division_steps(tuple(int(w) for w in form))
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
