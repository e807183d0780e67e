"""The direct side by partial fractions over suffix sums: each r = 2 shell's
row and column (evaluator._r2_shells), and one closed coordinate per r >= 3
shell face (evaluator._face_shells)."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdzeta import evaluator, model
from test_direct import _assert_matches_reference

TWISTS = ("0", "1/2", "1/3", "1/4", "5/12")
G2 = {"h": [2, 2], "k": [2, 2, 2, 2], "A": [[1, 1], [1, 2], [1, 3], [2, 3]]}


@st.composite
def route_instances(draw, r):
    ell = draw(st.integers(1, 3))
    A = [[draw(st.integers(0, 2)) for _ in range(r)] for _ in range(ell)]
    for row in A:
        row[draw(st.integers(0, r - 1))] = draw(st.integers(1, 2))  # no zero row
    for j in range(r):
        if not any(row[j] for row in A):
            A[draw(st.integers(0, ell - 1))][j] = draw(st.integers(1, 2))  # no zero column
    return model.parse_spec({
        "h": [draw(st.integers(1, 3)) for _ in range(r)],
        "k": [draw(st.integers(1, 3)) for _ in range(ell)],
        "y": [draw(st.sampled_from(TWISTS)) for _ in range(r)],
        "A": A,
    })


@given(route_instances(2), st.integers(1, 80))
def test_route_matches_per_shell_sums(spec, M):
    _assert_matches_reference(evaluator._r2_shells(spec, M), spec, M)


@given(route_instances(3), st.integers(1, 40), st.sampled_from([1, 7, 64, 2**12]))
def test_face_route_matches_per_shell_sums(spec, M, block):
    # small blocks hold one prefix m_1 of the leading tuples, or a few
    with mock.patch.object(evaluator, "_FACE_BLOCK", block):
        _assert_matches_reference(evaluator._face_shells(spec, M), spec, M)


@given(route_instances(4), st.integers(1, 10))
def test_face_route_matches_per_shell_sums_at_r4(spec, M):
    _assert_matches_reference(evaluator._face_shells(spec, M), spec, M)


@pytest.mark.parametrize(
    "data, M",
    [
        ({**G2, "y": ["0", "0"]}, 300),  # G2 at s = 2: pieces 1e8 times the first shell
        ({**G2, "y": ["1/3", "5/12"]}, 300),
        ({"h": [12, 12], "k": [12, 12], "y": ["0", "1/3"], "A": [[1, 1], [1, 1]]}, 500),
        ({"h": [12, 12], "k": [12], "y": ["1/4", "0"], "A": [[1, 1]]}, 300),
        ({"h": [2, 2], "k": [2], "y": ["0", "0"], "A": [[1, 40]]}, 700),
    ],
    ids=["G2", "G2-twisted", "h12-k12-k12", "h12-k12", "A-1-40"],
)
def test_ill_conditioned_shells_take_the_route_and_the_box_below_n0(data, M):
    spec = model.parse_spec(data)
    with mock.patch.object(evaluator, "_r2_shells", wraps=evaluator._r2_shells) as route, \
            mock.patch.object(evaluator, "_box_shells", wraps=evaluator._box_shells) as box:
        got = evaluator._direct_shells(spec, M)
    route.assert_called_once_with(spec, M)
    # the guard hands a head of the shells to the box, and only a head
    [(_, n0)] = [c.args for c in box.call_args_list]
    assert 0 < n0 < M // 4
    _assert_matches_reference(got, spec, M)


@pytest.mark.parametrize(
    "data, M",
    [
        ({"h": [12, 12, 12], "k": [12], "y": ["0", "1/3", "0"], "A": [[1, 1, 1]]}, 60),
        ({"h": [2, 2, 2], "k": [2], "y": ["0", "0", "1/4"], "A": [[1, 1, 40]]}, 80),
        ({"h": [2, 2, 2], "k": [2, 2], "y": ["0", "0", "0"], "A": [[1, 1, 40], [1, 2, 3]]}, 80),
        # the poles of proportional forms coincide on every row
        ({"h": [12] * 3, "k": [12, 12], "y": ["5/12", "0", "0"], "A": [[1, 1, 1], [2, 2, 2]]}, 60),
        ({"h": [2] * 3, "k": [2] * 3, "y": ["0"] * 3, "A": [[1, 1, 0], [0, 1, 1], [1, 1, 1]]}, 60),
    ],
    ids=["h12-k12", "A-1-1-40-twisted", "A-1-1-40-and-1-2-3", "proportional-forms", "A3-s2"],
)
def test_ill_conditioned_faces_take_the_route_and_the_box_below_n0(data, M):
    spec = model.parse_spec(data)
    with mock.patch.object(evaluator, "_face_shells", wraps=evaluator._face_shells) as route, \
            mock.patch.object(evaluator, "_box_shells", wraps=evaluator._box_shells) as box:
        got = evaluator._direct_shells(spec, M)
    route.assert_called_once_with(spec, M)
    [(_, n0)] = [c.args for c in box.call_args_list]
    assert 0 < n0 < M // 4
    _assert_matches_reference(got, spec, M)


def test_faces_take_the_route_from_break_even_rows():
    def called(spec, M):
        with mock.patch.object(evaluator, "_face_shells", wraps=evaluator._face_shells) as route:
            evaluator._direct_shells(spec, M)
        return route.called

    # M^(r-1) rows per face, at least 2^10: from M 32 for r = 3 and M 11 (1331) for r = 4
    mt_r3 = model.parse_spec({"h": [1, 1, 1], "k": [2], "y": ["0"] * 3, "A": [[1, 1, 1]]})
    assert not called(mt_r3, 31)
    assert called(mt_r3, 32) and called(mt_r3, 60)
    mt_r4 = model.parse_spec({"h": [1] * 4, "k": [2], "y": ["0"] * 4, "A": [[1] * 4]})
    assert not called(mt_r4, 10)
    assert called(mt_r4, 11)
    # and 32 times the largest row sum, the route's table entries per unit of M
    wide = model.parse_spec({"h": [1, 1, 1], "k": [2], "y": ["0"] * 3, "A": [[1, 1, 100]]})
    assert not called(wide, 57)  # 57^2 < 32 * 102
    assert called(wide, 58)
    # and the points where the phase tables of m_2 and m_3 call unit_phase,
    # min(q, 102 M): 6528 > 64^2 at q = 100003
    heavy = {"h": [1, 1, 1], "k": [2], "A": [[100, 1, 1]]}
    assert called(model.parse_spec({**heavy, "y": ["1/100003", "0", "1/3"]}), 64)
    assert not called(model.parse_spec({**heavy, "y": ["0", "0", "1/100003"]}), 64)
    mt_r2 = model.parse_spec({"h": [1, 1], "k": [1], "y": ["0"] * 2, "A": [[1, 1]]})
    assert not called(mt_r2, 2000)


@pytest.mark.parametrize(
    "data",
    [
        # near the pole of 400 u + L, L = m_1 + m_2 >= 2, the factor u^-150
        # brings (400 / L)^150, up to 200^150 ~ 1.4e345
        {"h": [1, 1, 150], "k": [1], "y": ["0", "1/3", "0"], "A": [[1, 1, 400]]},
        # the forms share a pole, and m_1 + m_2 + m_3 = (400 (m_1 + m_2 + m_3)) / 400
        # brings 400^120 ~ 1.8e312
        {"h": [1, 1, 1], "k": [1, 120], "y": ["0", "0", "1/4"], "A": [[400, 400, 400], [1, 1, 1]]},
    ],
    ids=["pole-order", "shared-pole"],
)
def test_a_face_coefficient_past_the_float_range_sends_the_box(data):
    spec = model.parse_spec(data)
    with mock.patch.object(evaluator, "_box_shells", wraps=evaluator._box_shells) as box:
        got = evaluator._face_shells(spec, 12)
    box.assert_called_once_with(spec, 12)
    _assert_matches_reference(got, spec, 12)


def test_face_route_keeps_the_conjugate_of_a_negated_twist_bitwise():
    spec = model.parse_spec(
        {"h": [1, 2, 1], "k": [2, 1], "y": ["1/3", "0", "1/4"], "A": [[1, 1, 1], [0, 2, 1]]}
    )
    M = 60
    with mock.patch.object(evaluator, "_face_shells", wraps=evaluator._face_shells) as route:
        plus = evaluator.zeta_refined(spec, M)
        independent = evaluator.zeta_refined(spec.negated_twist(), M)
        again = evaluator.zeta_refined(spec, M)
    assert route.call_count == 3
    assert again.partial.shells.tobytes() == plus.partial.shells.tobytes()
    minus = plus.conjugate()
    assert minus.value == independent.value == plus.value.conjugate()
    assert minus.partial.shells.tobytes() == independent.partial.shells.tobytes()


def test_small_boxes_and_heavy_poles_keep_the_box():
    def called(spec, M):
        with mock.patch.object(evaluator, "_r2_shells", wraps=evaluator._r2_shells) as route:
            evaluator._direct_shells(spec, M)
        return route.called

    twisted = model.parse_spec({"h": [2, 2], "k": [2], "y": ["1/2", "0"], "A": [[1, 1]]})
    assert not called(twisted, evaluator._ROUTE_MIN_M - 1)
    assert called(twisted, evaluator._ROUTE_MIN_M)
    # sum over poles of mu (a + b), both directions: 4 + 2 * 41 * 2 = 168
    wide = model.parse_spec({"h": [2, 2], "k": [2], "y": ["0", "0"], "A": [[1, 40]]})
    assert not called(wide, 4 * 168 - 1)
    assert called(wide, 4 * 168)
    r3 = model.parse_spec({"h": [2, 2, 2], "k": [2], "y": ["0"] * 3, "A": [[1, 1, 1]]})
    assert not called(r3, 300)


def test_a_coefficient_past_the_float_range_sends_the_box():
    # near the pole of 1 + 200 u, the factor u^-150 brings 200^150 ~ 1.4e345
    spec = model.parse_spec({"h": [1, 150], "k": [1], "y": ["0", "1/3"], "A": [[1, 200]]})
    with pytest.raises(OverflowError):
        [float(d) for ds in evaluator._partial_fractions(150, [(1, 200, 1)]).values() for d in ds]
    with mock.patch.object(evaluator, "_box_shells", wraps=evaluator._box_shells) as box:
        got = evaluator._r2_shells(spec, 30)
    box.assert_called_once_with(spec, 30)
    _assert_matches_reference(got, spec, 30)


def test_mt_r2_box_sum_is_pinned_by_exact_fractions():
    # sum over [1, 60]^2 of 1/(m1 m2 (m1 + m2)), summed exactly
    spec = model.parse_spec({"h": [1, 1], "k": [1], "y": ["0", "0"], "A": [[1, 1]]})
    M = 60
    box = range(1, M + 1)
    exact = float(sum(Fraction(1, m1 * m2 * (m1 + m2)) for m1 in box for m2 in box))
    for shells, _ in (evaluator._direct_shells(spec, M), evaluator._r2_shells(spec, M)):
        value = evaluator._fsum(shells)
        assert value.imag == 0
        assert abs(value.real - exact) <= 1e-15 * exact


def test_route_keeps_the_conjugate_of_a_negated_twist_bitwise():
    spec = model.parse_spec({"h": [2, 1], "k": [2], "y": ["1/3", "1/4"], "A": [[1, 2]]})
    M = 300
    with mock.patch.object(evaluator, "_r2_shells", wraps=evaluator._r2_shells) as route:
        plus = evaluator.zeta_refined(spec, M)
        independent = evaluator.zeta_refined(spec.negated_twist(), M)
    assert route.call_count == 2
    minus = plus.conjugate()
    assert minus.value == independent.value == plus.value.conjugate()
    assert minus.correction == independent.correction
    assert (minus.uncertainty, minus.fitted) == (independent.uncertainty, independent.fitted)
    assert minus.partial == independent.partial
    assert minus.partial.shells.tobytes() == independent.partial.shells.tobytes()


@pytest.mark.parametrize(
    "h, forms",
    [
        (1, [(1, 1, 1)]),
        (2, [(1, 1, 2), (1, 2, 2), (1, 3, 2), (2, 3, 2)]),
        (3, [(0, 2, 2), (4, 2, 1), (2, 1, 2), (3, 0, 1), (1, 3, 2)]),
        (12, [(1, 1, 12), (2, 2, 12)]),
    ],
)
def test_partial_fractions_are_exact(h, forms):
    poles = evaluator._partial_fractions(h, forms)
    # proportional forms share a pole, and a = 0 joins the pole at 0
    assert all(b > 0 and math.gcd(a, b) == 1 for a, b in poles)
    directions = {(a // math.gcd(a, b), b // math.gcd(a, b)) for a, b, _ in forms if a and b}
    assert len(poles) == len(directions) + 1
    for u in (Fraction(1, 3), Fraction(7, 2), Fraction(5)):
        want = u**-h * math.prod((a + b * u) ** -k for a, b, k in forms)
        got = sum(
            d * (a + b * u) ** -j for (a, b), ds in poles.items() for j, d in enumerate(ds, 1)
        )
        assert got == want
