"""Formal group expansion at the origin and the nonic polynomial built from it.

The independent oracle is sympy power-series arithmetic: substitute the
claimed expansion into the defining relation and truncate. src/ must agree.
"""

import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lflow.formal_group import (
    defining_relation_residual,
    expand_formal_group,
    nonic_integer_coefficients,
    nonic_polynomial,
)

from conftest import CURVE_11A1, CURVE_37A1


def sympy_residual(a, coeffs):
    """Residual of w = z^3(1 + sum A_i z^i) in the defining relation, O(z^10)."""
    a1, a2, a3, a4, a6 = a
    z = sympy.symbols("z")
    w = z**3 * (1 + sum(c * z ** (i + 1) for i, c in enumerate(coeffs)))
    rhs = z**3 + a1 * z * w + a2 * z**2 * w + a3 * w**2 + a4 * z * w**2 + a6 * w**3
    diff = sympy.expand(rhs - w)
    return [diff.coeff(z, k) for k in range(10)]


def test_zero_curve_expands_to_plain_cube():
    assert expand_formal_group((0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0, 0)


def test_unit_a1_curve_expansion():
    # w = z^3 + z*w for a = (1,0,0,0,0): geometric series, all ones
    assert expand_formal_group((1, 0, 0, 0, 0)) == (1, 1, 1, 1, 1, 1)


def test_leading_terms_are_a1_and_a1sq_plus_a2():
    rng = random.Random(17)
    for _ in range(40):
        a = tuple(rng.randint(-10, 10) for _ in range(5))
        A = expand_formal_group(a)
        assert A[0] == a[0]
        assert A[1] == a[0] * a[0] + a[1]


def test_known_expansion_11a1():
    assert expand_formal_group(CURVE_11A1) == (0, -1, 1, -9, -3, 11)


def test_residual_vanishes_identically():
    rng = random.Random(29)
    tuples = [CURVE_11A1, CURVE_37A1, (0, 0, 0, 0, 0)]
    tuples += [tuple(rng.randint(-20, 20) for _ in range(5)) for _ in range(25)]
    for a in tuples:
        A = expand_formal_group(a)
        res = defining_relation_residual(a, A)
        assert all(x == 0 for x in res), (a, res)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(-10**6, 10**6)] * 5))
def test_residual_vanishes_for_large_invariants(a):
    assert defining_relation_residual(a, expand_formal_group(a)) == (0,) * 10


def test_residual_against_sympy():
    rng = random.Random(41)
    for _ in range(8):
        a = tuple(rng.randint(-12, 12) for _ in range(5))
        A = expand_formal_group(a)
        assert all(x == 0 for x in sympy_residual(a, A)), a


def test_residual_flags_wrong_expansion():
    A = expand_formal_group(CURVE_11A1)
    wrong = (A[0] + 1,) + A[1:]
    assert any(x != 0 for x in defining_relation_residual(CURVE_11A1, wrong))


def test_nonic_polynomial_shape():
    coeffs = nonic_polynomial(CURVE_11A1)
    assert len(coeffs) == 10
    assert coeffs[:3] == [0, 0, 0]
    assert coeffs[3] == 1
    ints = nonic_integer_coefficients(CURVE_11A1)
    assert ints == [0, 0, 0, 1, 0, -1, 1, -9, -3, 11]
    assert all(isinstance(c, int) for c in ints)
    assert [complex(c) for c in ints] == list(coeffs)


def test_nonic_evaluates_like_the_truncated_series():
    a = (1, -2, 3, -4, 5)
    A = expand_formal_group(a)
    c = nonic_polynomial(a)
    z = 0.3 + 0.2j
    series = z**3 * (1 + sum(Ai * z ** (i + 1) for i, Ai in enumerate(A)))
    horner = 0j
    for coef in reversed(c):
        horner = horner * z + coef
    assert horner == pytest.approx(series, rel=1e-12)
