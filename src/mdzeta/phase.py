"""Exact-as-possible evaluation of e(theta) = exp(2 pi i theta), theta in Q.

Phases at rational points drive both the direct summation (twists e(m y))
and the generating-function assembly (roots of unity e(-f_dot c)).  Values
at denominators 1, 2, 4 are exact, and e(-theta) is always the bitwise
conjugate of e(theta), so conjugation symmetries of the series survive
floating point intact.
"""

from __future__ import annotations

import math
from fractions import Fraction


def unit_phase(theta: Fraction) -> complex:
    """e(theta) for rational theta, reduced mod 1; conjugation-stable."""
    t = theta % 1
    p, q = t.numerator, t.denominator
    if q == 1:
        return complex(1.0, 0.0)
    if q == 2:
        return complex(-1.0, 0.0)
    if q == 4:
        return complex(0.0, 1.0) if p == 1 else complex(0.0, -1.0)
    if 2 * p > q:
        # fold onto the lower half circle so e(-t) == conj(e(t)) exactly
        return unit_phase(Fraction(q - p, q)).conjugate()
    angle = 2.0 * math.pi * p / q
    return complex(math.cos(angle), math.sin(angle))

