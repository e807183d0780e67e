"""The slab-vectorised direct side and zeta(-y) as the conjugate of zeta(y)."""

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import helpers
from mdzeta import cli, evaluator, model
from mdzeta.phase import unit_phase

SPECS = Path(__file__).resolve().parent.parent / "specs"
TWISTS = ("0", "1/2", "1/3", "1/4")
# Shell sums of at most ~1e5 doubles agree far inside this, whatever the order.
SHELL_RTOL = 1e-12


def _reference_shells(spec, M):
    """Per-shell sums and abs-sums, shell by shell over its own tuples."""
    phases = [
        np.array([unit_phase(Fraction(m) * y) for m in range(M + 1)]) for y in spec.y
    ]
    sums, abs_sums = [], []
    for n in range(1, M + 1):
        rows = helpers.shell_array(spec.r, n)
        term = np.ones(len(rows), dtype=complex)
        for j in range(spec.r):
            term = term * phases[j][rows[:, j]] / rows[:, j].astype(float) ** spec.h[j]
        for row, k in zip(spec.A, spec.k):
            term = term / (rows @ np.array(row)).astype(float) ** k
        sums.append(term.sum())
        abs_sums.append(np.abs(term).sum())
    return np.array(sums), np.array(abs_sums)


def _assert_matches_reference(got, spec, M):
    shells, abs_shells = got
    want, want_abs = _reference_shells(spec, M)
    assert shells.shape == abs_shells.shape == (M,)
    assert np.all(np.abs(shells - want) <= SHELL_RTOL * want_abs)
    assert np.all(np.abs(abs_shells - want_abs) <= SHELL_RTOL * want_abs)
    # exact zeros (e.g. the imaginary part under real twists) stay exact
    assert np.array_equal(shells.real == 0, want.real == 0)
    assert np.array_equal(shells.imag == 0, want.imag == 0)


def _check_against_reference(spec, M):
    _assert_matches_reference(evaluator._direct_shells(spec, M), spec, M)


@st.composite
def instances(draw):
    r = draw(st.integers(1, 3))
    ell = draw(st.integers(1, 2))
    A = [[draw(st.integers(0, 2)) for _ in range(r)] for _ in range(ell)]
    for i in range(ell):
        A[i][draw(st.integers(0, r - 1))] = draw(st.integers(1, 2))  # no zero row
    for j in range(r):
        if not any(row[j] for row in A):
            A[draw(st.integers(0, ell - 1))][j] = draw(st.integers(1, 2))  # no zero column
    return model.parse_spec({
        "h": [draw(st.integers(1, 3)) for _ in range(r)],
        "k": [draw(st.integers(1, 3)) for _ in range(ell)],
        "y": [draw(st.sampled_from(TWISTS)) for _ in range(r)],
        "A": A,
    })


@given(instances(), st.integers(1, 13), st.sampled_from([1, 3, 4, 7, 16, 2**14]))
def test_slab_shells_match_per_shell_sums(spec, M, block):
    # small blocks cut the box mid-row, and M^(r-1) exceeds them for r >= 2
    with mock.patch.object(evaluator, "_DIRECT_BLOCK", block):
        _check_against_reference(spec, M)


def test_slab_shells_when_leading_tuples_exceed_a_block():
    spec = model.parse_spec(
        {"h": [1, 2, 1], "k": [2, 1], "y": ["1/3", "0", "1/4"], "A": [[1, 1, 1], [0, 2, 1]]}
    )
    M = 131  # 131^2 leading tuples > 2^14, and 131 is no divisor of a block
    assert M ** (spec.r - 1) > evaluator._DIRECT_BLOCK
    _check_against_reference(spec, M)


def test_slab_shells_walk_long_rows_in_pieces():
    spec = model.parse_spec({"h": [2], "k": [1], "y": ["1/3"], "A": [[1]]})
    with mock.patch.object(evaluator, "_DIRECT_BLOCK", 64):
        _check_against_reference(spec, 1000)


@pytest.mark.parametrize(
    "data",
    [
        {"h": [2, 2], "k": [2], "y": ["1/3", "1/4"], "A": [[1, 1]]},  # complex twist
        {"h": [2, 2], "k": [2], "y": ["1/2", "0"], "A": [[1, 1]]},  # real twist
        {"h": [1, 1], "k": [1], "y": ["0", "0"], "A": [[1, 1]]},  # y = 0
    ],
    ids=["twist-1/3-1/4", "twist-1/2", "untwisted"],
)
def test_verify_zeta_minus_matches_independent_negated_twist(capsys, tmp_path, data):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    argv = ["verify", "--spec", str(path), "--M", "150", "--M-outer", "40"]
    cli.main(argv + ["--output", "json"])
    lhs = json.loads(capsys.readouterr().out)["lhs"]
    spec = model.parse_spec(data)
    independent = evaluator.zeta_refined(spec.negated_twist(), 150)
    assert lhs["zeta_minus"] == cli._cnum(independent.value)
    assert lhs["zeta_minus_tail"] == cli._fnum(independent.uncertainty)
    plus = evaluator.zeta_refined(spec, 150)
    assert lhs["zeta_plus"] == cli._cnum(plus.value)
    if any(spec.y[j].denominator > 2 for j in range(spec.r)):
        assert float(lhs["zeta_minus"]["im"]) == -float(lhs["zeta_plus"]["im"]) != 0
    else:
        # a real series prints a zero imaginary part as 0, never -0
        assert lhs["zeta_minus"]["im"] == lhs["zeta_plus"]["im"] == "0"
        cli.main(argv)
        [line] = [x for x in capsys.readouterr().out.splitlines() if "zeta(-y) = " in x]
        assert " + 0i" in line


def test_conjugate_keeps_fit_and_tails():
    spec = model.parse_spec({"h": [2, 1], "k": [2], "y": ["1/3", "1/4"], "A": [[1, 2]]})
    plus = evaluator.zeta_refined(spec, 200)
    minus = plus.conjugate()
    independent = evaluator.zeta_refined(spec.negated_twist(), 200)
    assert minus.value == independent.value == plus.value.conjugate()
    assert minus.correction == independent.correction
    assert (minus.uncertainty, minus.fitted) == (independent.uncertainty, independent.fitted)
    assert minus.partial == independent.partial
    assert np.array_equal(minus.partial.shells, independent.partial.shells)


def _counting_unit_phase(monkeypatch):
    calls = []

    def counted(theta):
        calls.append(theta)
        return unit_phase(theta)

    monkeypatch.setattr(evaluator, "unit_phase", counted)
    return calls


@pytest.mark.parametrize("y", ["0", "1/2", "2/3", "3/7", "5/12"])
@pytest.mark.parametrize("M", [1, 4, 11, 30])
def test_twist_table_is_the_phase_table_read_by_residue(monkeypatch, y, M):
    y = Fraction(y)
    want = np.array(helpers.phase_table(y.denominator), dtype=complex)[
        (np.arange(M + 1) * y.numerator) % y.denominator
    ]
    calls = _counting_unit_phase(monkeypatch)
    got = evaluator._twist_table(y, M)
    assert got.tobytes() == want.tobytes()  # bitwise, zero signs included
    assert len(calls) == min(y.denominator, M + 1)


def test_large_twist_denominator_evaluates_only_the_phases_it_reads(
    monkeypatch, tmp_path, capsys
):
    # q = 10^6: a full table of q-th roots of unity for 10 terms
    path = tmp_path / "big_q.json"
    path.write_text('{"h": [2], "k": [1], "y": ["0.123457"], "A": [[1]]}')
    calls = _counting_unit_phase(monkeypatch)
    code = cli.main(["eval", "--spec", str(path), "--M", "10", "--output", "json"])
    assert code == 0 and json.loads(capsys.readouterr().out)["value"]
    assert 0 < len(calls) <= 11


def test_tiles_of_rows_columns_and_bands():
    # 8 x 8 tiles on [1, 50]^2: tiles below, above and across the diagonal
    # m_1 = m_2, a last-coordinate coefficient of 2 and one of 0
    spec = model.parse_spec(
        {"h": [1, 2], "k": [2, 1], "y": ["1/3", "1/4"], "A": [[1, 2], [1, 0]]}
    )
    with mock.patch.object(evaluator, "_DIRECT_BLOCK", 64):
        _check_against_reference(spec, 50)


@pytest.mark.parametrize(
    "data, M",
    [
        ({"h": [2, 2], "k": [2], "y": ["1/3", "1/4"], "A": [[1, 1]]}, 300),
        ({"h": [1, 2, 1], "k": [2, 1], "y": ["1/3", "0", "1/4"], "A": [[1, 1, 1], [0, 2, 1]]}, 40),
    ],
    ids=["r2", "r3"],
)
def test_bincount_sees_one_entry_per_tile_row(monkeypatch, data, M):
    spec = model.parse_spec(data)
    block = evaluator._DIRECT_BLOCK
    cols = min(M, max(math.isqrt(block), block // M ** (spec.r - 1)))
    sizes = []
    bincount = np.bincount

    def counted(x, *args, **kwargs):
        sizes.append(len(x))
        return bincount(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", counted)
    evaluator._box_shells(spec, M)
    assert sizes and max(sizes) <= block // cols
    assert sum(sizes) < M**spec.r // 10


def test_twisted_r3_box_at_benchmark_size_is_repeatable_and_matches():
    # mt_r3 with twists at the M of the benchmark's mt_r3 call: 60^2 leading
    # tuples in tiles of 273 x 60, each across the diagonal
    spec = model.parse_spec({"h": [1, 1, 1], "k": [2], "y": ["1/3", "0", "1/4"], "A": [[1, 1, 1]]})
    first, second = evaluator._box_shells(spec, 60), evaluator._box_shells(spec, 60)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))
    _assert_matches_reference(first, spec, 60)


def test_direct_shells_are_bitwise_repeatable():
    spec = model.parse_spec({"h": [2, 1], "k": [2, 1], "y": ["1/3", "1/4"], "A": [[1, 2], [1, 0]]})
    first, second = evaluator._direct_shells(spec, 700), evaluator._direct_shells(spec, 700)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))


@given(instances())
def test_direct_power_is_the_face_minimum(spec):
    faces = (
        S for n in range(1, spec.r + 1) for S in itertools.combinations(range(spec.r), n)
    )
    want = min(
        sum(spec.h[j] for j in S)
        + sum(k for k, row in zip(spec.k, spec.A) if any(row[j] for j in S))
        - len(S) + 1
        for S in faces
    )
    assert evaluator._direct_power(spec) == want


@st.composite
def valid_instances(draw):
    """Any valid spec with r in 1..3, h and k in 1..3, A over 0..3 with no zero row or column."""
    r = draw(st.integers(1, 3))
    row = st.lists(st.integers(0, 3), min_size=r, max_size=r).filter(any)
    A = draw(st.lists(row, min_size=1, max_size=3).filter(lambda A: all(map(any, zip(*A)))))
    return model.parse_spec({
        "h": draw(st.lists(st.integers(1, 3), min_size=r, max_size=r)),
        "k": draw(st.lists(st.integers(1, 3), min_size=len(A), max_size=len(A))),
        "y": draw(st.lists(st.sampled_from(("0", "1/2", "1/3", "2/5")), min_size=r, max_size=r)),
        "A": A,
    })


# neither classical shape of convergence_check matches this one
THIN = model.parse_spec({"h": [1, 1], "k": [1], "y": ["0", "0"], "A": [[1, 2]]})


@given(valid_instances())
@example(THIN)
def test_every_valid_instance_has_a_convergence_proof(spec):
    verdict = model.convergence_check(spec)
    assert verdict.established
    assert verdict.status in ("proved-sufficient", "proved-absolute")


@given(valid_instances(), st.integers(1, 20))
@example(THIN, 20)
def test_every_valid_instance_converges_absolutely(spec, M):
    # the largest coordinate n of a term meets some form, whose value is then
    # at least n, and every other coordinate m_j gives at most 1/m_j: shell n
    # is at most r n^-2 H_n^(r-1), which sums to a finite total
    assert evaluator._direct_power(spec) >= 2
    _, abs_shells = evaluator._box_shells(spec, M)
    n = np.arange(1, M + 1)
    bound = spec.r * n**-2.0 * np.cumsum(1.0 / n) ** (spec.r - 1)
    assert np.all(abs_shells <= (1 + 1e-12) * bound)


def test_root_a2_verify_is_not_a_false_fail():
    # two forms touch each variable and one touches both: w = 3, not wt - r + 1 = 4
    spec = model.load_spec(str(SPECS / "root_a2.json"))
    assert evaluator._direct_power(spec) == 3
    report = evaluator.verify_parity(spec, 300, 400, tol=1e-6)
    assert report.verdict != "fail"
