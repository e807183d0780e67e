"""The direct side by partial fractions over suffix sums: one closed
coordinate per shell face (evaluator._face_shells), for every r >= 2."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdzeta import evaluator, model
from test_direct import SHELL_RTOL, _assert_matches_reference

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
    _assert_matches_reference(evaluator._face_shells(spec, M), spec, M)


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
        ({**G2, "y": ["0", "0"]}, 600),  # G2 at s = 2: pieces 1e8 times the first shell
        ({**G2, "y": ["1/3", "5/12"]}, 600),
        ({"h": [12, 12], "k": [12, 12], "y": ["0", "1/3"], "A": [[1, 1], [1, 1]]}, 700),
        ({"h": [12, 12], "k": [12], "y": ["1/4", "0"], "A": [[1, 1]]}, 500),
        ({"h": [2, 2], "k": [2], "y": ["0", "0"], "A": [[1, 40]]}, 700),
    ],
    ids=["G2", "G2-twisted", "h12-k12-k12", "h12-k12", "A-1-40"],
)
def test_ill_conditioned_shells_take_the_route_and_the_box_below_n0(data, M):
    spec = model.parse_spec(data)
    with mock.patch.object(evaluator, "_face_shells", wraps=evaluator._face_shells) as route, \
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
        ({"h": [12] * 3, "k": [12, 12], "y": ["5/12", "0", "0"], "A": [[1, 1, 1], [2, 2, 2]]}, 80),
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


# Per r, (spec, M, whether _direct_shells takes the face route), in pairs
# on each side of where direct_cost's count of the route drops below the
# box's M^r terms (plus 500 per unit_phase point of either).  The count
# grows with the pole orders times poles a row expands into (12 for
# MT[2], 0.3 x 12 x 4096 ~ 14 745 for one block of rows), with the
# suffix tables' entries (4 tables of 41 M + 1 for A = [[1, 40]]) and
# with the points min(q, row sum x M + 1) where the phase tables of
# m_(r-1) and m_r call unit_phase, for a twist of denominator q there.
MT = {r: {"h": [1] * r, "k": [2], "y": ["0"] * r, "A": [[1] * r]} for r in (2, 3, 4)}
SELECTION = {
    2: [
        (MT[2], 125, False), (MT[2], 126, True),
        ({**MT[2], "A": [[1, 40]]}, 368, False), ({**MT[2], "A": [[1, 40]]}, 369, True),
        ({**MT[2], "y": ["1/100003", "0"]}, 544, False), ({**MT[2], "y": ["1/100003", "0"]}, 545, True),
    ],
    3: [
        (MT[3], 24, False), (MT[3], 25, True),
        ({**MT[3], "A": [[1, 1, 100]]}, 35, False), ({**MT[3], "A": [[1, 1, 100]]}, 36, True),
        ({**MT[3], "y": ["0", "0", "1/100003"]}, 37, False),
        ({**MT[3], "y": ["0", "0", "1/100003"]}, 38, True),
        # m_1 is never summed in closed form: its table runs to M only,
        # as the box's does
        ({**MT[3], "y": ["1/100003", "0", "0"]}, 24, False),
        ({**MT[3], "y": ["1/100003", "0", "0"]}, 25, True),
    ],
    4: [
        (MT[4], 11, False), (MT[4], 12, True),
        ({**MT[4], "A": [[1, 1, 1, 169]]}, 13, False), ({**MT[4], "A": [[1, 1, 1, 169]]}, 14, True),
        ({**MT[4], "y": ["0", "0", "0", "1/100003"]}, 13, False),
        ({**MT[4], "y": ["0", "0", "0", "1/100003"]}, 14, True),
    ],
}


@pytest.mark.parametrize("r", sorted(SELECTION))
def test_direct_shells_take_the_route_by_one_rule(r):
    for data, M, route in SELECTION[r]:
        spec = model.parse_spec(data)
        with mock.patch.object(evaluator, "_face_shells", return_value="route"), \
                mock.patch.object(evaluator, "_box_shells", return_value="box"):
            assert evaluator._direct_shells(spec, M) == ("route" if route else "box"), (data, M)


# (spec, M, engine) where one engine is well ahead of the other: box /
# route time in ms, min of 9 on a 2-core Xeon
ENGINES = [
    ({"h": [1, 1], "k": [1], "y": ["1/100003", "0"], "A": [[1, 1]]}, 2400, "faces"),  # 38 / 11.7
    ({"h": [2, 2], "k": [2], "y": ["0", "0"], "A": [[1, 40]]}, 500, "faces"),  # 1.51 / 1.00
    ({**G2, "y": ["0", "0"]}, 200, "box"),  # 0.58 / 1.32
    ({"h": [2, 2], "k": [3], "y": ["0", "0"], "A": [[1, 200]]}, 1000, "box"),  # 7.3 / 17.1
    ({**MT[3], "y": ["0", "0", "1/1000003"], "A": [[1000, 1, 1]]}, 200, "box"),  # 66 / 502
]


@pytest.mark.parametrize(
    "data, M, engine", ENGINES, ids=["twist-q-above-M", "A-1-40", "G2", "A-1-200", "A-1000-1-1"]
)
def test_direct_shells_take_the_cheaper_engine(data, M, engine):
    spec = model.parse_spec(data)
    with mock.patch.object(evaluator, "_face_shells", wraps=evaluator._face_shells) as route, \
            mock.patch.object(evaluator, "_box_shells", wraps=evaluator._box_shells) as box:
        shells, abs_shells = evaluator._direct_shells(spec, M)
    if engine == "box":
        route.assert_not_called()
        box.assert_called_once_with(spec, M)
        return
    route.assert_called_once_with(spec, M)
    assert all(n0 < M for _, n0 in (c.args for c in box.call_args_list))  # a guard's head only
    want, want_abs = evaluator._box_shells(spec, M)
    assert np.all(np.abs(shells - want) <= SHELL_RTOL * want_abs)
    assert np.all(np.abs(abs_shells - want_abs) <= SHELL_RTOL * want_abs)


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


def test_a_coefficient_past_the_float_range_sends_the_box():
    # near the pole of 1 + 200 u, the factor u^-150 brings 200^150 ~ 1.4e345
    spec = model.parse_spec({"h": [1, 150], "k": [1], "y": ["0", "1/3"], "A": [[1, 200]]})
    with mock.patch.object(evaluator, "_box_shells", wraps=evaluator._box_shells) as box:
        got = evaluator._face_shells(spec, 30)
    box.assert_called_once_with(spec, 30)
    _assert_matches_reference(got, spec, 30)


def test_a_box_past_the_work_budget_is_refused_before_it_is_built(monkeypatch):
    # the fallback past the float range above: 30^2 terms and 500 for each
    # of the 3 phases of y_2 = 1/3, a work of 2400; the box's windows are
    # the first thing it builds
    spec = model.parse_spec({"h": [1, 150], "k": [1], "y": ["0", "1/3"], "A": [[1, 200]]})
    monkeypatch.setattr(evaluator, "WORK_BUDGET", 2399)
    with mock.patch.object(evaluator, "sliding_window_view") as windows:
        with pytest.raises(model.SpecError, match=r"box \[1, 30\]\^2 needs a work of 2400,"):
            evaluator._face_shells(spec, 30)
    windows.assert_not_called()


def test_mt_r2_box_sum_is_pinned_by_exact_fractions():
    # sum over [1, 60]^2 of 1/(m1 m2 (m1 + m2)), summed exactly
    spec = model.parse_spec({"h": [1, 1], "k": [1], "y": ["0", "0"], "A": [[1, 1]]})
    M = 60
    box = range(1, M + 1)
    exact = float(sum(Fraction(1, m1 * m2 * (m1 + m2)) for m1 in box for m2 in box))
    for shells, _ in (evaluator._direct_shells(spec, M), evaluator._face_shells(spec, M)):
        value = evaluator._fsum(shells)
        assert value.imag == 0
        assert abs(value.real - exact) <= 1e-15 * exact


def test_route_keeps_the_conjugate_of_a_negated_twist_bitwise():
    spec = model.parse_spec({"h": [2, 1], "k": [2], "y": ["1/3", "1/4"], "A": [[1, 2]]})
    M = 300
    with mock.patch.object(evaluator, "_face_shells", wraps=evaluator._face_shells) as route:
        plus = evaluator.zeta_refined(spec, M)
        independent = evaluator.zeta_refined(spec.negated_twist(), M)
    assert route.call_count == 2
    minus = plus.conjugate()
    assert minus.value == independent.value == plus.value.conjugate()
    assert minus.correction == independent.correction
    assert (minus.uncertainty, minus.fitted) == (independent.uncertainty, independent.fitted)
    assert minus.partial == independent.partial
    assert minus.partial.shells.tobytes() == independent.partial.shells.tobytes()


def _exact_coefficients(poles, scale):
    """[d_1, ..., d_mu] per pole of scale * prod (c u + L)^-mu, in Fractions.

    Near the pole, in v = c u + L, another pole's factor is c^nu (delta +
    c' v)^-nu with delta = c L' - c' L, expanded as a binomial series.
    """
    out = []
    for p, (c, L, mu) in enumerate(poles):
        series = [Fraction(scale)] + [Fraction(0)] * (mu - 1)  # in v^0, v^1, ...
        for q, (c2, L2, nu) in enumerate(poles):
            if q != p:
                delta = c * L2 - c2 * L
                factor = [
                    Fraction(c**nu * math.comb(nu + i - 1, i) * (-c2) ** i, delta ** (nu + i))
                    for i in range(mu)
                ]
                series = [sum(series[i] * factor[e - i] for i in range(e + 1)) for e in range(mu)]
        out.append(series[::-1])
    return out


@pytest.mark.parametrize(
    "poles, scale",
    [
        # u^-1 (1 + u)^-1
        ([(1, 0, 1), (1, 1, 1)], Fraction(1)),
        # G2's forms (1 + u), (1 + 2u), (1 + 3u), (2 + 3u), each squared, and u^-2
        ([(1, 0, 2), (1, 1, 2), (2, 1, 2), (3, 1, 2), (3, 2, 2)], Fraction(1)),
        # u^-3 (2u)^-2 (4 + 2u)^-1 (2 + u)^-2 3^-1 (1 + 3u)^-2: the form in u alone
        # joins the pole at 0, (2 + u)^2 = (4 + 2u)^2 / 4 merges into 4 + 2u
        ([(1, 0, 5), (2, 4, 3), (3, 1, 2)], Fraction(4, 4 * 3)),
        # u^-12 (1 + u)^-12 (2 + 2u)^-12, the proportional forms merged
        ([(1, 0, 12), (1, 1, 24)], Fraction(1, 2**12)),
        # u^-3 (2u)^-2 3^-1: the pole at 0 alone, d_1..d_4 None
        ([(1, 0, 5)], Fraction(1, 12)),
    ],
    ids=["one-pole", "G2", "mixed-forms", "proportional-forms", "u-alone"],
)
def test_pole_coefficients_match_the_product(poles, scale):
    # three rows, the moving poles' L scaled by t: distinct poles on each
    t = np.array([1, 2, 5])
    rows = [(c, 0 if p == 0 else L * t, mu) for p, (c, L, mu) in enumerate(poles)]
    got = evaluator._pole_coefficients(rows, np.full(3, float(scale)))
    for row, ti in enumerate(t.tolist()):
        row_poles = [(c, 0 if p == 0 else L * ti, mu) for p, (c, L, mu) in enumerate(poles)]
        exact = _exact_coefficients(row_poles, scale)
        pairs = [[(d, m) if d is None else (d[row], m[row]) for d, m in ds] for ds in got]
        for ds, es in zip(pairs, exact):
            for (d, m), e in zip(ds, es):
                # None marks an exact zero; G2's d_1 at u = -1/2 is one by
                # cancellation, and comes back as a rounding of 0.  The
                # rounding grows with the factors multiplied: up to 22 ulps
                # of m for the proportional forms
                assert e == 0 if d is None else abs(Fraction(float(d)) - e) <= 2**-48 * m
        for u in (Fraction(1, 3), Fraction(7, 2), Fraction(5)):
            want = scale * math.prod((c * u + L) ** -mu for c, L, mu in row_poles)
            total, bound = Fraction(0), Fraction(0)
            for (c, L, _), ds in zip(row_poles, pairs):
                for j, (d, m) in enumerate(ds, start=1):
                    if d is not None:
                        total += Fraction(float(d)) * (c * u + L) ** -j
                        bound += Fraction(float(m)) * (c * u + L) ** -j
            assert abs(total - want) <= 2**-50 * bound
