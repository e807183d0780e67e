"""The J = [r] term is the full-lattice sum over Z^r, and is 0 by m -> -m
when 2y is integral and the weight is odd."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdzeta import model
from mdzeta.evaluator import full_lattice_vanishes, rhs_total, term_T
from mdzeta.genfun import GeneratingFunctionPlan
from mdzeta.model import load_spec

SPECS = Path(__file__).resolve().parent.parent / "specs"


def _top(spec):
    return term_T(GeneratingFunctionPlan(spec, tuple(range(1, spec.r + 1))), 1)


def _lattice_sum(spec, N):
    """The sum over [-N, N]^r with no zero factor, in numpy."""
    axis = np.arange(-N, N + 1, dtype=float)
    m = np.stack(np.meshgrid(*[axis] * spec.r, indexing="ij"), axis=-1).reshape(-1, spec.r)
    forms = m @ np.array(spec.A, dtype=float).T
    keep = np.all(m != 0, axis=1) & np.all(forms != 0, axis=1)
    m, forms = m[keep], forms[keep]
    y = np.array([float(v) for v in spec.y])
    terms = np.exp(2j * np.pi * (m @ y)) / np.prod(m ** np.array(spec.h), axis=1)
    return np.sum(terms / np.prod(forms ** np.array(spec.k), axis=1))


def test_a2_full_lattice_term_is_six_tornheim_values():
    # W(2,2,2) = sum over m, n >= 1 of 1/(m^2 n^2 (m+n)^2) = pi^6/2835
    # (Tornheim 1950; Zagier 1994).  With even exponents each of the six
    # chambers of Z^2 minus the walls m = 0, n = 0, m + n = 0 sums to it.
    spec = model.parse_spec({"h": [2, 2], "k": [2], "y": ["0", "0"], "A": [[1, 1]]})
    t = _top(spec)
    assert t.exact and not full_lattice_vanishes(spec)
    assert t.value.imag == 0.0
    assert t.value.real == pytest.approx(2 * math.pi**6 / 945, rel=1e-13, abs=0)


@pytest.mark.parametrize(
    "data, rel",
    [
        ({"h": [2, 2], "k": [2], "y": ["1/2", "0"], "A": [[1, 1]]}, 1e-6),  # mt_r2_twisted
        ({"h": [2, 3], "k": [2], "y": ["1/3", "1/4"], "A": [[1, 1]]}, 1e-6),
        ({"h": [2, 3], "k": [2, 2], "y": ["1/3", "1/4"], "A": [[1, 2], [1, 1]]}, 1e-6),
    ],
    ids=["mt_r2_twisted", "odd-weight", "two-forms"],
)
def test_full_lattice_term_matches_a_box_sum_over_z_r(data, rel):
    # real at even weight and imaginary at odd weight: m -> -m conjugates
    spec = model.parse_spec(data)
    got, want = _top(spec).value, _lattice_sum(spec, 400)
    assert abs(got - want) <= rel * abs(want)
    assert (got.imag if spec.weight % 2 == 0 else got.real) == 0.0


def test_mt_r2_null_full_lattice_term():
    # sum over Z^2 with no zero factor of 1/(m n (m+n)^2) = -2 pi^4/45
    spec = load_spec(str(SPECS / "mt_r2_null.json"))
    assert _top(spec).value == pytest.approx(-2 * math.pi**4 / 45, rel=1e-13, abs=0)


@pytest.mark.parametrize(
    "y, weight_offset, vanishes",
    [
        (["0", "0"], 0, True),
        (["1/2", "0"], 0, True),
        (["-1/2", "3/2"], 0, True),
        (["1/3", "0"], 0, False),
        (["0", "0"], 1, False),
    ],
)
def test_the_rule_reads_twists_and_weight(y, weight_offset, vanishes):
    spec = model.parse_spec({"h": [1, 1 + weight_offset], "k": [1], "y": y, "A": [[1, 1]]})
    assert full_lattice_vanishes(spec) is vanishes


@st.composite
def parity_zero_instances(draw):
    """Valid specs with y in {0, 1/2}^r and odd weight."""
    r = draw(st.integers(1, 3))
    top = 3 if r < 3 else 2
    ell = draw(st.integers(1, 3))
    A = [[draw(st.integers(0, 2)) for _ in range(r)] for _ in range(ell)]
    for row in A:
        row[draw(st.integers(0, r - 1))] = draw(st.integers(1, 2))  # no zero row
    for j in range(r):
        if not any(row[j] for row in A):
            A[draw(st.integers(0, ell - 1))][j] = draw(st.integers(1, 2))  # no zero column
    h = [draw(st.integers(1, top)) for _ in range(r)]
    k = [draw(st.integers(1, top)) for _ in range(ell)]
    if (sum(h) + sum(k)) % 2 == 0:
        h[0] += 1 if h[0] < top else -1
    y = [draw(st.sampled_from(["0", "1/2"])) for _ in range(r)]
    return model.parse_spec({"h": h, "k": k, "y": y, "A": A})


@given(parity_zero_instances())
def test_tabulated_full_lattice_term_is_zero_where_the_rule_skips_it(spec):
    # the work the rule replaces: the plan's own top coefficient at J = [r]
    assert full_lattice_vanishes(spec)
    plan = GeneratingFunctionPlan(spec, tuple(range(1, spec.r + 1)))
    assert abs(plan.top_coefficients(np.zeros((1, 0), dtype=np.int64))[0]) <= 1e-8


@pytest.mark.parametrize("name", ["root_a2", "mt_r2", "mt_r3"])
def test_skipped_full_lattice_term_builds_no_table(monkeypatch, name):
    tables = GeneratingFunctionPlan._tables

    def no_full_table(plan, pattern):
        if not plan.ctx.Jbar:
            raise AssertionError("J = [r] tabulated")
        return tables(plan, pattern)

    monkeypatch.setattr(GeneratingFunctionPlan, "_tables", no_full_table)
    spec = load_spec(str(SPECS / f"{name}.json"))
    top = rhs_total(spec, 5).terms[-1]
    assert top.J == tuple(range(1, spec.r + 1)) and top.exact
    assert repr(top.value) == repr(top.unit_D) == "0j"
    assert top.refined.uncertainty == 0.0
    assert full_lattice_vanishes(spec)
