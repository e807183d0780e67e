"""Problem instances: the series data (h, k, y, A) and its validation.

An instance is the tuple (h, k, y, A) with h in Z_{>=1}^r, k in Z_{>=1}^ell,
y in Q^r, and A a nonnegative integer ell x r matrix with no zero row and no
zero column.  The series attached to it is

    zeta(h, k, y, A) = sum_{m in N^r} prod_j e(m_j y_j) m_j^{-h_j}
                                      prod_i (a_i1 m_1 + ... + a_ir m_r)^{-k_i}

with e(t) = exp(2 pi i t).  Everything downstream (subset contexts for the
reduction, convergence checking, JSON I/O) lives here too.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction


class SpecError(ValueError):
    """Invalid problem instance."""


def wt(values) -> int:
    """Weight of an exponent tuple: the sum of its entries; empty weight is 0."""
    return sum(values)


class DimensionMismatch(SpecError):
    pass


class ZeroRow(SpecError):
    pass


class ZeroColumn(SpecError):
    pass


class NonPositiveExponent(SpecError):
    pass


class EmptySubset(SpecError):
    pass


@dataclass(frozen=True)
class SeriesSpec:
    """One series instance.  Rows of A are the linear forms; A[i][j] >= 0."""

    h: tuple[int, ...]
    k: tuple[int, ...]
    y: tuple[Fraction, ...]
    A: tuple[tuple[int, ...], ...]

    @property
    def r(self) -> int:
        return len(self.h)

    @property
    def ell(self) -> int:
        return len(self.k)

    def a(self, i: int, j: int) -> int:
        """Entry of A with 1-based row i (form) and column j (variable)."""
        return self.A[i - 1][j - 1]

    @property
    def weight(self) -> int:
        return sum(self.h) + sum(self.k)

    @property
    def max_row_sum(self) -> int:
        """Largest row sum of A; bounds every form value by max_row_sum * max(m)."""
        return max(sum(row) for row in self.A)

    def negated_twist(self) -> "SeriesSpec":
        return SeriesSpec(self.h, self.k, tuple(-v for v in self.y), self.A)

    def is_mordell_tornheim(self) -> bool:
        """Single form whose coefficients are exactly (1, ..., 1)."""
        return self.ell == 1 and all(v == 1 for v in self.A[0])


def validate_spec(spec: SeriesSpec) -> None:
    """Raise a SpecError subclass if the instance is malformed."""
    r, ell = spec.r, spec.ell
    if r < 1:
        raise DimensionMismatch("need at least one inner variable")
    if ell < 1:
        raise DimensionMismatch("need at least one linear form")
    if len(spec.y) != r:
        raise DimensionMismatch(f"y has {len(spec.y)} entries, expected {r}")
    if len(spec.A) != ell:
        raise DimensionMismatch(f"A has {len(spec.A)} rows, expected {ell}")
    for row in spec.A:
        if len(row) != r:
            raise DimensionMismatch(f"A row has {len(row)} entries, expected {r}")
    for j, hj in enumerate(spec.h, start=1):
        if not isinstance(hj, int) or hj < 1:
            raise NonPositiveExponent(f"h[{j}] = {hj} must be a positive integer")
    for i, ki in enumerate(spec.k, start=1):
        if not isinstance(ki, int) or ki < 1:
            raise NonPositiveExponent(f"k[{i}] = {ki} must be a positive integer")
    for i, row in enumerate(spec.A, start=1):
        for j, v in enumerate(row, start=1):
            if not isinstance(v, int) or v < 0:
                raise SpecError(f"A[{i}][{j}] = {v} must be a nonnegative integer")
        if all(v == 0 for v in row):
            raise ZeroRow(f"form {i} of A is identically zero")
    for j in range(1, r + 1):
        if all(spec.a(i, j) == 0 for i in range(1, ell + 1)):
            raise ZeroColumn(f"variable {j} appears in no form of A")
    for j, v in enumerate(spec.y, start=1):
        if not isinstance(v, Fraction):
            raise SpecError(f"y[{j}] = {v!r} must be a Fraction")


@dataclass(frozen=True)
class SubsetContext:
    """A nonempty subset J of variables and the index sets it induces.

    I is the set of forms meeting J (some a_ij != 0 with j in J); Jbar and
    Ibar are the complements.  All indices are 1-based and sorted.
    """

    J: tuple[int, ...]
    Jbar: tuple[int, ...]
    I: tuple[int, ...]
    Ibar: tuple[int, ...]


def subset_context(spec: SeriesSpec, J: tuple[int, ...]) -> SubsetContext:
    if not J:
        raise EmptySubset("J must be nonempty")
    Jset = set(J)
    if len(Jset) != len(J) or not Jset <= set(range(1, spec.r + 1)):
        raise SpecError(f"J = {J} is not a subset of 1..{spec.r}")
    Jt = tuple(sorted(Jset))
    Jbar = tuple(j for j in range(1, spec.r + 1) if j not in Jset)
    I = tuple(
        i for i in range(1, spec.ell + 1) if any(spec.a(i, j) != 0 for j in Jt)
    )
    Ibar = tuple(i for i in range(1, spec.ell + 1) if i not in set(I))
    return SubsetContext(J=Jt, Jbar=Jbar, I=I, Ibar=Ibar)


def nonempty_subsets(r: int) -> list[tuple[int, ...]]:
    """All nonempty J, ordered by size then lexicographically."""
    out: list[tuple[int, ...]] = []
    for size in range(1, r + 1):
        out.extend(itertools.combinations(range(1, r + 1), size))
    return out


@dataclass(frozen=True)
class ConvergenceVerdict:
    """status is one of 'proved-sufficient', 'unknown', 'user-asserted'."""

    status: str
    reason: str

    @property
    def established(self) -> bool:
        return self.status in ("proved-sufficient", "user-asserted")


def convergence_check(spec: SeriesSpec, user_asserted: bool = False) -> ConvergenceVerdict:
    """Conservative sufficient conditions for convergence of the series.

    Two shapes are recognized: the single all-ones form with unit exponents
    allowed everywhere, and instances where every variable is covered by
    forms of total exponent >= 2.  Anything else is 'unknown' unless the
    caller asserts convergence.
    """
    if spec.is_mordell_tornheim():
        return ConvergenceVerdict(
            "proved-sufficient",
            "single all-ones form: converges for all rational twists",
        )
    heavy = all(
        sum(spec.k[i - 1] for i in range(1, spec.ell + 1) if spec.a(i, j) != 0) >= 2
        for j in range(1, spec.r + 1)
    )
    if heavy:
        return ConvergenceVerdict(
            "proved-sufficient",
            "every variable is covered by forms of total exponent >= 2",
        )
    if user_asserted:
        return ConvergenceVerdict("user-asserted", "convergence asserted by caller")
    return ConvergenceVerdict(
        "unknown",
        "no sufficient condition matched; pass the convergence assertion to proceed",
    )


def _parse_rational(v) -> Fraction:
    # Accept "p/q" / "p" strings, ints, and floats (floats via their repr so
    # 0.5 means 1/2, not the binary expansion).
    if isinstance(v, str):
        return Fraction(v.strip())
    if isinstance(v, bool):
        raise SpecError(f"bad rational value {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(str(v))
    raise SpecError(f"bad rational value {v!r}")


def _parse_int(v) -> int:
    # JSON may deliver 2.0 for 2; accept that, but never truncate silently.
    if isinstance(v, bool):
        raise SpecError(f"bad integer value {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise SpecError(f"bad integer value {v!r}")


def parse_spec(data: dict) -> SeriesSpec:
    """Build and validate a SeriesSpec from a JSON-shaped dict."""
    if not isinstance(data, dict):
        raise SpecError("spec must be a JSON object")
    missing = [key for key in ("h", "k", "y", "A") if key not in data]
    if missing:
        raise SpecError(f"spec is missing keys: {', '.join(missing)}")
    try:
        h = tuple(_parse_int(v) for v in data["h"])
        k = tuple(_parse_int(v) for v in data["k"])
        A = tuple(tuple(_parse_int(v) for v in row) for row in data["A"])
    except TypeError as exc:
        raise SpecError(f"non-integer entry in h/k/A: {exc}") from exc
    # twists only matter mod 1, so normalize into [0, 1) at the boundary
    y = tuple(_parse_rational(v) % 1 for v in data["y"])
    spec = SeriesSpec(h=h, k=k, y=y, A=A)
    validate_spec(spec)
    return spec


def load_spec(path: str) -> SeriesSpec:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return parse_spec(data)


def spec_to_dict(spec: SeriesSpec) -> dict:
    return {
        "h": list(spec.h),
        "k": list(spec.k),
        "y": [str(v) for v in spec.y],
        "A": [list(row) for row in spec.A],
    }
