"""Exactness and symmetry properties of the rational phase e(theta)."""

import cmath
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from helpers import phase_table
from mdzeta.phase import unit_phase

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=60)


def test_special_denominators_are_exact():
    assert unit_phase(Fraction(0)) == 1 + 0j
    assert unit_phase(Fraction(5)) == 1 + 0j
    assert unit_phase(Fraction(1, 2)) == -1 + 0j
    assert unit_phase(Fraction(-1, 2)) == -1 + 0j
    assert unit_phase(Fraction(1, 4)) == 1j
    assert unit_phase(Fraction(3, 4)) == -1j


def test_matches_principal_exponential():
    for q in range(1, 13):
        for p in range(q):
            want = cmath.exp(2j * cmath.pi * p / q)
            assert abs(unit_phase(Fraction(p, q)) - want) < 1e-15


@given(rationals)
def test_negation_is_exact_conjugation(t):
    assert unit_phase(-t) == unit_phase(t).conjugate()


@given(rationals)
def test_periodicity(t):
    assert unit_phase(t + 1) == unit_phase(t)
    assert unit_phase(t - 3) == unit_phase(t)


@given(rationals)
def test_unit_modulus(t):
    assert abs(abs(unit_phase(t)) - 1.0) < 1e-15


@given(rationals, rationals)
def test_additivity(a, b):
    assert abs(unit_phase(a) * unit_phase(b) - unit_phase(a + b)) < 1e-12


def test_phase_table_matches_pointwise():
    for q in (1, 2, 3, 4, 12):
        table = phase_table(q)
        assert len(table) == q
        for res in range(q):
            assert table[res] == unit_phase(Fraction(res, q))


def test_phase_table_rejects_bad_denominator():
    with pytest.raises(ValueError):
        phase_table(0)
