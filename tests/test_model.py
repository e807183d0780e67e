"""Instance parsing, validation, subset contexts, and the convergence checker."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mdzeta.model import (
    DimensionMismatch,
    EmptySubset,
    NonPositiveExponent,
    SeriesSpec,
    SpecError,
    ZeroColumn,
    ZeroRow,
    convergence_check,
    load_spec,
    nonempty_subsets,
    parse_spec,
    spec_to_dict,
    subset_classes,
    subset_context,
    validate_spec,
    wt,
)

MT = {"h": [1, 1], "k": [1], "y": ["0", "0"], "A": [[1, 1]]}


@st.composite
def spec_dicts(draw):
    r = draw(st.integers(1, 3))
    ell = draw(st.integers(1, 3))
    A = [[draw(st.integers(0, 2)) for _ in range(r)] for _ in range(ell)]
    for i in range(ell):  # repair zero rows, then zero columns
        if not any(A[i]):
            A[i][draw(st.integers(0, r - 1))] = 1
    for j in range(r):
        if not any(row[j] for row in A):
            A[draw(st.integers(0, ell - 1))][j] = 1
    return {
        "h": [draw(st.integers(1, 3)) for _ in range(r)],
        "k": [draw(st.integers(1, 3)) for _ in range(ell)],
        "y": [
            f"{draw(st.integers(-3, 3))}/{draw(st.integers(1, 5))}"
            for _ in range(r)
        ],
        "A": A,
    }


def test_parse_mt_instance():
    spec = parse_spec(MT)
    assert spec.r == 2 and spec.ell == 1
    assert spec.h == (1, 1) and spec.k == (1,)
    assert spec.y == (Fraction(0), Fraction(0))
    assert spec.a(1, 2) == 1
    assert spec.weight == 3
    assert spec.is_mordell_tornheim()


def test_parse_requires_object_with_all_keys():
    with pytest.raises(SpecError, match="object"):
        parse_spec([1, 2, 3])
    with pytest.raises(SpecError, match="missing keys: k, y"):
        parse_spec({"h": [1], "A": [[1]]})


def test_integer_entries_are_strict():
    ok = parse_spec({"h": [2.0], "k": [1], "y": ["0"], "A": [[1]]})
    assert ok.h == (2,)
    with pytest.raises(SpecError, match="bad integer"):
        parse_spec({"h": [1.5], "k": [1], "y": ["0"], "A": [[1]]})
    with pytest.raises(SpecError, match="bad integer"):
        parse_spec({"h": [True], "k": [1], "y": ["0"], "A": [[1]]})


def test_rational_twist_forms():
    spec = parse_spec({"h": [1, 1], "k": [1], "y": ["1/2", 0.25], "A": [[1, 1]]})
    assert spec.y == (Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(SpecError, match="bad rational"):
        parse_spec({"h": [1], "k": [1], "y": [None], "A": [[1]]})
    with pytest.raises(SpecError, match="bad rational"):
        parse_spec({"h": [1], "k": [1], "y": [True], "A": [[1]]})
    for bad in ("abc", "1/0", "nan", float("nan"), float("inf")):
        with pytest.raises(SpecError, match="bad rational"):
            parse_spec({"h": [1], "k": [1], "y": [bad], "A": [[1]]})
    # every field is a JSON array; a string is not read character by character
    for field, bad in (("y", 5), ("y", "00"), ("h", "1"), ("k", 1), ("A", [1]), ("A", "[[1]]")):
        with pytest.raises(SpecError, match="JSON array"):
            parse_spec({"h": [1], "k": [1], "y": ["0"], "A": [[1]], field: bad})


def test_twists_normalized_into_unit_interval():
    spec = parse_spec({"h": [1, 1], "k": [1], "y": ["-1/3", "7/3"], "A": [[1, 1]]})
    assert spec.y == (Fraction(2, 3), Fraction(1, 3))


def test_zero_row_names_offending_index():
    with pytest.raises(ZeroRow, match="2"):
        parse_spec({"h": [1, 1], "k": [1, 1], "y": ["0", "0"], "A": [[1, 0], [0, 0]]})


def test_zero_column_names_offending_index():
    with pytest.raises(ZeroColumn, match="2"):
        parse_spec({"h": [1, 1], "k": [1, 1], "y": ["0", "0"], "A": [[1, 0], [1, 0]]})


def test_dimension_mismatches():
    with pytest.raises(DimensionMismatch):
        parse_spec({"h": [1], "k": [1], "y": ["0", "0"], "A": [[1]]})
    with pytest.raises(DimensionMismatch):
        parse_spec({"h": [1, 1], "k": [1, 1], "y": ["0", "0"], "A": [[1, 1]]})
    with pytest.raises(DimensionMismatch):
        parse_spec({"h": [1, 1], "k": [1], "y": ["0", "0"], "A": [[1]]})
    with pytest.raises(DimensionMismatch):
        parse_spec({"h": [], "k": [], "y": [], "A": []})


def test_nonpositive_exponents_rejected():
    with pytest.raises(NonPositiveExponent, match=r"h\[1\]"):
        parse_spec({"h": [0], "k": [1], "y": ["0"], "A": [[1]]})
    with pytest.raises(NonPositiveExponent, match=r"k\[1\]"):
        parse_spec({"h": [1], "k": [-2], "y": ["0"], "A": [[1]]})


def test_validate_rejects_negative_matrix_entry_and_loose_twist():
    with pytest.raises(SpecError, match=r"A\[1\]\[2\]"):
        validate_spec(SeriesSpec((1, 1), (1,), (Fraction(0), Fraction(0)), ((1, -1),)))
    with pytest.raises(SpecError, match="Fraction"):
        validate_spec(SeriesSpec((1,), (1,), (0.5,), ((1,),)))


def test_subset_context_examples():
    mt = parse_spec(MT)
    ctx = subset_context(mt, (1,))
    assert ctx == subset_context(mt, (1,))
    assert ctx.I == (1,) and ctx.Ibar == () and ctx.Jbar == (2,)
    assert subset_context(mt, (1, 2)).Jbar == ()

    diag = parse_spec({"h": [1, 1], "k": [1, 1], "y": ["0", "0"], "A": [[1, 0], [0, 1]]})
    ctx = subset_context(diag, (1,))
    assert ctx.I == (1,) and ctx.Ibar == (2,)


def test_subset_context_sorts_and_rejects_bad_subsets():
    spec = parse_spec({"h": [1, 1, 1], "k": [1], "y": ["0"] * 3, "A": [[1, 1, 1]]})
    assert subset_context(spec, (3, 1)).J == (1, 3)
    with pytest.raises(EmptySubset):
        subset_context(spec, ())
    with pytest.raises(SpecError):
        subset_context(spec, (0,))
    with pytest.raises(SpecError):
        subset_context(spec, (1, 1))
    with pytest.raises(SpecError):
        subset_context(spec, (4,))


def test_nonempty_subsets_ordering():
    assert nonempty_subsets(1) == [(1,)]
    assert nonempty_subsets(2) == [(1,), (2,), (1, 2)]
    assert nonempty_subsets(3)[:4] == [(1,), (2,), (3,), (1, 2)]
    assert len(nonempty_subsets(3)) == 7


@given(spec_dicts(), st.data())
def test_subset_context_partitions_and_monotone(data_dict, data):
    spec = parse_spec(data_dict)
    subsets = nonempty_subsets(spec.r)
    J = data.draw(st.sampled_from(subsets))
    ctx = subset_context(spec, J)
    assert sorted(ctx.J + ctx.Jbar) == list(range(1, spec.r + 1))
    assert sorted(ctx.I + ctx.Ibar) == list(range(1, spec.ell + 1))
    assert ctx.I  # every column is nonzero, so some row meets J
    bigger = data.draw(st.sampled_from([K for K in subsets if set(J) <= set(K)]))
    assert set(ctx.I) <= set(subset_context(spec, bigger).I)


def _classes(h, k, A, y=None):
    y = y or ["0"] * len(h)
    return subset_classes(parse_spec({"h": h, "k": k, "y": y, "A": A}))


def test_subset_classes_pin_the_symmetric_families():
    # Mordell-Tornheim: every permutation of the variables
    assert _classes([1, 1, 1], [2], [[1, 1, 1]]) == [
        ((1,), (2,), (3,)), ((1, 2), (1, 3), (2, 3)), ((1, 2, 3),)
    ]
    assert [len(c) for c in _classes([1, 1, 1, 1], [3], [[1, 1, 1, 1]])] == [4, 6, 4, 1]
    assert _classes([1, 1], [1, 1, 1], [[1, 0], [0, 1], [1, 1]]) == [((1,), (2,)), ((1, 2),)]
    # A3: the diagram flip 1 <-> 3 reverses J = {1, 2} against {2, 3}, which
    # the key (J kept in its order) does not see; J = {1} and J = {3} match
    # once Jbar = (2, 3) and (1, 2) are put in the data's order
    a3 = [[1, 1, 0], [0, 1, 1], [1, 1, 1]]
    assert _classes([1, 1, 1], [1, 1, 1], a3) == [
        ((1,), (3,)), ((2,),), ((1, 2),), ((1, 3),), ((2, 3),), ((1, 2, 3),)
    ]


@pytest.mark.parametrize("h, k, A, y", [
    ([2, 2], [2], [[1, 1]], ["1/2", "0"]),  # twist breaks the swap
    ([1, 1], [1, 1], [[1, 1], [1, 2]], None),  # B2
    ([1, 2], [1], [[1, 1]], None),
    ([1, 1], [1, 2], [[1, 0], [0, 1]], None),  # the swap moves a form to another k
    ([1, 1, 1], [1, 1, 1], [[1, 1, 0], [0, 1, 1], [1, 1, 1]], ["0", "0", "1/2"]),
])
def test_subset_classes_keep_asymmetric_subsets_apart(h, k, A, y):
    classes = _classes(h, k, A, y)
    assert all(len(c) == 1 for c in classes)
    assert [J for (J,) in classes] == nonempty_subsets(len(h))


def _relabels(spec, J, K) -> bool:
    """Some permutation of the variables taking J onto K carries h, y and
    the multiset of (k_i, row i of A) onto themselves (brute force)."""
    forms = sorted(zip(spec.k, spec.A))
    for perm in itertools.permutations(range(spec.r)):
        if sorted(perm[j - 1] + 1 for j in J) != list(K):
            continue
        if any(spec.h[perm[j]] != spec.h[j] or spec.y[perm[j]] != spec.y[j]
               for j in range(spec.r)):
            continue
        moved = sorted((ki, tuple(row[perm.index(j)] for j in range(spec.r)))
                       for ki, row in zip(spec.k, spec.A))
        if moved == forms:
            return True
    return False


@st.composite
def coarse_spec_dicts(draw):
    """r in 2..3 over few values, so that many subsets share a class."""
    r = draw(st.integers(2, 3))
    ell = draw(st.integers(1, 3))
    A = [[draw(st.integers(0, 1)) for _ in range(r)] for _ in range(ell)]
    for i in range(max(r, ell)):  # no zero row or column
        A[i % ell][i % r] = 1
    return {
        "h": [draw(st.integers(1, 2)) for _ in range(r)],
        "k": [draw(st.integers(1, 2)) for _ in range(ell)],
        "y": [draw(st.sampled_from(["0", "1/2"])) for _ in range(r)],
        "A": A,
    }


@given(st.one_of(spec_dicts(), coarse_spec_dicts()))
def test_subset_classes_partition_and_join_only_relabelled_data(data_dict):
    spec = parse_spec(data_dict)
    classes = subset_classes(spec)
    assert sorted(J for c in classes for J in c) == sorted(nonempty_subsets(spec.r))
    firsts = [c[0] for c in classes]
    order = nonempty_subsets(spec.r)
    assert firsts == sorted(firsts, key=order.index)
    for members in classes:
        assert list(members) == sorted(members, key=order.index)
        assert all(_relabels(spec, members[0], J) for J in members[1:])


@given(spec_dicts())
def test_dict_round_trip(data_dict):
    spec = parse_spec(data_dict)
    assert parse_spec(spec_to_dict(spec)) == spec


@given(st.data())
def test_matrix_rejection_matches_brute_scan(data):
    r = data.draw(st.integers(1, 3))
    ell = data.draw(st.integers(1, 3))
    A = [[data.draw(st.integers(0, 1)) for _ in range(r)] for _ in range(ell)]
    d = {"h": [1] * r, "k": [1] * ell, "y": ["0"] * r, "A": A}
    rows_ok = all(any(row) for row in A)
    cols_ok = all(any(row[j] for row in A) for j in range(r))
    if rows_ok and cols_ok:
        parse_spec(d)
    else:
        with pytest.raises((ZeroRow, ZeroColumn)):
            parse_spec(d)


def test_convergence_check_states_a_proof_for_every_shape():
    verdict = convergence_check(parse_spec(MT))
    assert verdict.status == "proved-sufficient"
    assert verdict.reason == "single all-ones form: converges for all rational twists"
    heavy = parse_spec({"h": [1], "k": [2], "y": ["0"], "A": [[2]]})
    assert convergence_check(heavy).established
    shared = parse_spec(
        {"h": [1], "k": [1, 1], "y": ["0"], "A": [[1], [3]]}
    )
    verdict = convergence_check(shared)
    assert verdict.status == "proved-sufficient"
    assert verdict.reason == "every variable is covered by forms of total exponent >= 2"

    thin = parse_spec({"h": [1, 1], "k": [1], "y": ["0", "0"], "A": [[1, 2]]})
    verdict = convergence_check(thin)
    assert verdict.status == "proved-absolute" and verdict.established
    assert "r n^-2 H_n^(r-1)" in verdict.reason


def test_weight_accessors():
    assert wt(()) == 0
    assert wt((2, 3)) == 5
    spec = parse_spec({"h": [2, 1], "k": [3], "y": ["0", "0"], "A": [[2, 5]]})
    assert spec.weight == 6
    assert spec.max_row_sum == 7


def test_negated_twist_is_an_involution():
    spec = parse_spec({"h": [1, 2], "k": [1], "y": ["1/3", "0"], "A": [[1, 1]]})
    flipped = spec.negated_twist()
    assert flipped.y == (Fraction(-1, 3), Fraction(0))
    assert flipped.negated_twist() == spec


def test_load_spec_round_trip(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(MT))
    assert load_spec(str(path)) == parse_spec(MT)
