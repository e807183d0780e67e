"""Exact integer linear algebra: determinants, duals, coset boxes, rho."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

import helpers
from mdzeta.exact import (
    ExactError,
    ExhaustedCandidates,
    SingularBasis,
    ZeroPairing,
    choose_rho,
    coset_representatives,
    dot,
    dual_basis,
)
from helpers import fractional_part

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


def _normals(vectors):
    """The dual rows of every basis among the vectors, as a plan passes them to choose_rho."""
    out = []
    for sub in itertools.combinations(vectors, len(vectors[0])):
        if det(sub):
            out.extend(dual_basis(sub)[1])
    return out


def _hyperplanes(vectors):
    """Every m-1 of the vectors that have rank m-1, by their Leibniz minors."""
    m = len(vectors[0])
    return [
        sub for sub in itertools.combinations(vectors, m - 1)
        if any(
            helpers.leibniz_det([[v[c] for c in cols] for v in sub])
            for cols in itertools.combinations(range(m), m - 1)
        )
    ]


def test_rank_examples():
    # a family has full rank exactly when some m of its vectors have det != 0
    assert _normals([(1, 2), (2, 4)]) == []
    assert _normals([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == []
    assert choose_rho(_normals([(2,)])) == (1,)
    # three bases; rho lies on none of the six hyperplanes of two members
    vecs = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    assert len(_normals(vecs)) == 3 * 3
    rho = choose_rho(_normals(vecs))
    planes = _hyperplanes(vecs)
    assert len(planes) == 6
    assert all(helpers.leibniz_det([*plane, rho]) != 0 for plane in planes)


@given(st.integers(2, 3), st.integers(0, 3), st.data())
def test_rho_from_basis_duals_avoids_every_hyperplane(m, extra, data):
    # a member completing m-1 independent members to a basis has a dual row
    # orthogonal to them, so the basis duals carry every hyperplane's normal
    vecs = data.draw(st.lists(
        st.tuples(*[st.integers(-3, 3)] * m), min_size=m, max_size=m + extra
    ))
    normals = _normals(vecs)
    assume(normals)
    rho = choose_rho(normals)
    assert all(dot(rho, normal) != 0 for normal in normals)
    for plane in _hyperplanes(vecs):
        assert helpers.leibniz_det([*plane, rho]) != 0


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


@given(st.integers(1, 4), st.data())
def test_coset_box_is_a_complete_residue_system(m, data):
    rows = data.draw(
        st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m), min_size=m, max_size=m)
    )
    d = helpers.leibniz_det(rows)
    if d == 0:
        with pytest.raises(SingularBasis):
            coset_representatives(rows)
        return
    cs = coset_representatives(rows)
    assert len(cs.representatives) == cs.group_order == abs(d)
    # a box: every coordinate runs over [0, d_i), in lexicographic order
    sides = [1 + max(rep[i] for rep in cs.representatives) for i in range(m)]
    assert cs.representatives == tuple(itertools.product(*(range(x) for x in sides)))
    member = helpers.row_lattice_membership(rows)
    for a, b in itertools.combinations(cs.representatives, 2):
        assert not member(tuple(x - y for x, y in zip(a, b)))


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
    rho = choose_rho(_normals([(1, 0), (0, 1), (1, 1)]))
    assert rho == (1, 2)
    assert choose_rho(_normals([(1, 0), (0, 1), (1, 1)])) == rho  # deterministic


def test_choose_rho_skips_uncertifiable_candidates():
    # (1,2) lies on the hyperplane spanned by (1,2) and pairs to zero against
    # a dual of the basis {(1,0),(1,2)}; the next ladder rung must be taken.
    assert choose_rho(_normals([(1, 0), (0, 1), (1, 2)])) == (1, 3)


def test_choose_rho_variants_walk_the_ladder():
    normals = _normals([(1, 0), (0, 1), (1, 1)])
    assert choose_rho(normals, variant=1) == (1, 3)
    assert choose_rho(normals, variant=2) == (1, 4)
    assert choose_rho(_normals([(1,)]), variant=2) == (1,)


def test_choose_rho_guards():
    with pytest.raises(ExactError):
        choose_rho([])
    with pytest.raises(ExactError):
        choose_rho([(1, 0), (1,)])
    with pytest.raises(ExactError):
        choose_rho(_normals([(1, 0), (0, 1)]), variant=-1)
    with pytest.raises(ExhaustedCandidates):
        choose_rho(_normals([(1, 0), (0, 1)]), variant=3, max_candidates=3)


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
