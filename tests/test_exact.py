"""Exact integer linear algebra: determinants, duals, Smith form, cosets, rho."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

import helpers
from mdzeta import exact
from mdzeta.exact import (
    ExactError,
    ExhaustedCandidates,
    RankDeficient,
    SingularBasis,
    ZeroPairing,
    choose_rho,
    coset_representatives,
    dot,
    dual_basis,
    fractional_part,
    smith_normal_form,
)

entries = st.integers(-6, 6)


def square_matrices(m):
    return st.lists(
        st.lists(entries, min_size=m, max_size=m), min_size=m, max_size=m
    )


def test_dot_is_exact():
    assert dot((Fraction(1, 3), Fraction(1, 6)), (3, 6)) == 2
    assert dot((), ()) == 0
    with pytest.raises(ExactError):
        dot((1, 2), (1,))


def _int_matmul(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def det(rows) -> int:
    """dual_basis's determinant, 0 where it raises SingularBasis."""
    try:
        return dual_basis(rows)[0]
    except SingularBasis:
        return 0


def test_matrix_construction_guards():
    with pytest.raises(ExactError):
        dual_basis([])
    with pytest.raises(ExactError):
        dual_basis([[1, 2], [3]])


def test_det_examples():
    assert dual_basis([[1, 1], [0, 2]])[0] == 2
    assert dual_basis([[2, 0], [0, 3]])[0] == 6
    assert dual_basis([[0, 1], [1, 0]])[0] == -1
    assert det([[1, 2], [2, 4]]) == 0


@given(st.integers(2, 3), st.data())
def test_det_is_multiplicative(m, data):
    a = data.draw(square_matrices(m))
    b = data.draw(square_matrices(m))
    assert det(_int_matmul(a, b)) == det(a) * det(b)


@given(st.integers(2, 3), st.data())
def test_inverse_round_trip(m, data):
    mat = data.draw(square_matrices(m))
    assume(det(mat) != 0)
    d, rows = dual_basis(mat)
    adjugate = [list(col) for col in zip(*rows)]
    scalar = [[d * (i == j) for j in range(m)] for i in range(m)]
    assert _int_matmul(mat, adjugate) == scalar
    assert _int_matmul(adjugate, mat) == scalar


def test_singular_inverse_raises():
    with pytest.raises(SingularBasis):
        dual_basis([[1, 2], [2, 4]])


def test_rank_examples():
    # a family has full rank exactly when some m of its vectors have det != 0
    with pytest.raises(RankDeficient):
        choose_rho([(1, 2), (2, 4)])
    with pytest.raises(RankDeficient):
        choose_rho([(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert choose_rho([(2,)]).coords == (1,)
    # m-1 vectors span a hyperplane exactly when a unit vector completes them
    rho = choose_rho([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    assert rho.bases_checked == 3 and rho.hyperplanes_checked == 6


def test_dual_basis_example():
    assert dual_basis([(1, 0), (1, 1)]) == (1, ((1, -1), (0, 1)))
    assert dual_basis([(2, 0), (0, 3)]) == (6, ((3, 0), (0, 2)))
    with pytest.raises(SingularBasis):
        dual_basis([(1, 1), (2, 2)])
    with pytest.raises(ExactError):
        dual_basis([(1, 0, 0), (0, 1, 0)])


@given(st.integers(2, 3), st.data())
def test_dual_basis_gram_identity(m, data):
    rows = data.draw(square_matrices(m))
    assume(det(rows) != 0)
    d, duals = dual_basis(rows)
    for i in range(m):
        for j in range(m):
            assert dot(rows[i], duals[j]) == (d if i == j else 0)


@given(st.integers(1, 4), st.data())
def test_dual_basis_is_the_adjugate_over_the_leibniz_determinant(m, data):
    rows = data.draw(
        st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m), min_size=m, max_size=m)
    )
    want = helpers.leibniz_det(rows)
    if want == 0:
        with pytest.raises(SingularBasis):
            dual_basis(rows)
        return
    d, duals = dual_basis(rows)
    assert d == want
    assert _int_matmul(rows, [list(col) for col in zip(*duals)]) == [
        [d * (i == j) for j in range(m)] for i in range(m)
    ]


def test_smith_normal_form_examples():
    _, d, _ = smith_normal_form([[1, 0], [0, 1]])
    assert d == ((1, 0), (0, 1))
    _, d, _ = smith_normal_form([[2, 0], [0, 3]])
    assert (d[0][0], d[1][1]) == (1, 6)
    _, d, _ = smith_normal_form([[1, 1], [0, 2]])
    assert (d[0][0], d[1][1]) == (1, 2)


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.data(),
)
def test_smith_normal_form_properties(m, n, data):
    mat = data.draw(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m)
    )
    u, d, v = smith_normal_form(mat)
    assert [list(r) for r in _int_matmul(_int_matmul(u, mat), v)] == [list(r) for r in d]
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [d[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            assert i == j or d[i][j] == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    if m == n:
        prod = 1
        for x in diag:
            prod *= x
        assert prod == abs(det(mat))


def test_coset_examples():
    cs = coset_representatives([[1, 0], [0, 1]])
    assert cs.group_order == 1 and cs.representatives == ((0, 0),)
    cs = coset_representatives([[1, 0], [0, 2]])
    assert cs.group_order == 2
    assert cs.representatives == ((0, 0), (0, 1))
    assert coset_representatives([[1, 1], [0, 1]]).group_order == 1
    with pytest.raises(SingularBasis):
        coset_representatives([[1, 1], [1, 1]])
    with pytest.raises(ExactError):
        coset_representatives([[1, 0, 0], [0, 1, 0]])


@given(square_matrices(2), st.tuples(entries, entries))
def test_coset_reduction_properties(rows, w):
    d = det(rows)
    assume(d != 0 and abs(d) <= 12)
    cs = coset_representatives(rows)
    assert cs.group_order == abs(d)
    red = cs.reduce(w)
    assert red in cs.representatives
    assert cs.same_coset(w, red)
    assert cs.reduce(red) == red
    for a, b in itertools.combinations(cs.representatives, 2):
        assert not cs.same_coset(a, b)


def test_coset_brute_force_count_small_3x3():
    rows = [[2, 1, 0], [0, 1, 1], [1, 0, 3]]
    cs = coset_representatives(rows)
    assert cs.group_order == abs(dual_basis(rows)[0])
    member = helpers.row_lattice_membership(rows)
    classes = []
    for w in itertools.product(range(cs.group_order), repeat=3):
        if not any(
            member(tuple(a - b for a, b in zip(w, c))) for c in classes
        ):
            classes.append(w)
    assert len(classes) == cs.group_order


def test_choose_rho_standard_family():
    rho = choose_rho([(1, 0), (0, 1), (1, 1)])
    assert rho.coords == (1, 2) and rho.ladder_index == 0
    assert rho.bases_checked == 3 and rho.hyperplanes_checked == 3
    assert choose_rho([(1, 0), (0, 1), (1, 1)]) == rho  # deterministic


def test_choose_rho_skips_uncertifiable_candidates():
    # (1,2) lies on the hyperplane spanned by (1,2) and pairs to zero against
    # a dual of the basis {(1,0),(1,2)}; the next ladder rung must be taken.
    rho = choose_rho([(1, 0), (0, 1), (1, 2)])
    assert rho.coords == (1, 3) and rho.ladder_index == 1


def test_choose_rho_variants_walk_the_ladder():
    vecs = [(1, 0), (0, 1), (1, 1)]
    assert choose_rho(vecs, variant=1).coords == (1, 3)
    assert choose_rho(vecs, variant=2).coords == (1, 4)
    assert choose_rho([(1,)], variant=2).coords == (1,)


def test_choose_rho_guards():
    with pytest.raises(RankDeficient):
        choose_rho([(1, 1), (2, 2)])
    with pytest.raises(ExactError):
        choose_rho([])
    with pytest.raises(ExactError):
        choose_rho([(1, 0), (0, 1)], variant=-1)
    with pytest.raises(ExhaustedCandidates):
        choose_rho([(1, 0), (0, 1)], variant=3, max_candidates=3)


def test_fractional_part_examples():
    assert fractional_part(Fraction(7, 3), Fraction(1)) == Fraction(1, 3)
    assert fractional_part(Fraction(0), Fraction(2)) == 0
    assert fractional_part(Fraction(0), Fraction(-2)) == 1
    assert fractional_part(Fraction(7, 3), Fraction(-1)) == Fraction(1, 3)
    assert fractional_part(Fraction(-1, 4), Fraction(1)) == Fraction(3, 4)
    with pytest.raises(ZeroPairing):
        fractional_part(Fraction(1, 2), Fraction(0))


@given(
    st.fractions(min_value=-8, max_value=8, max_denominator=24),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
def test_fractional_part_ranges_and_agreement(x, p):
    assume(p != 0)
    value = fractional_part(x, p)
    if p > 0:
        assert 0 <= value < 1
    else:
        assert 0 < value <= 1
    if x.denominator != 1:
        assert fractional_part(x, Fraction(1)) == fractional_part(x, Fraction(-1))
    assert (value - x).denominator == 1  # differs from x by an integer
