import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdiff.errors import UnsupportedDegree
from recdiff.heights import AlgebraicNumber
from recdiff.independence import multiplicative_independence
from recdiff.intervals import IntervalField, contains, midpoint_float
from recdiff.matveev import _compositum_degree
from recdiff.quadratic import QuadraticElement, quadratic_roots

_P = 65537      # a prime: d p^2 and d p^3 carry a square factor that d lacks


def test_large_discriminant_is_not_factored():
    # the discriminant 10^80 + 4 is kept as it is, with no search for its
    # square factors
    quadratic_roots.cache_clear()
    start = time.perf_counter()
    plus, minus = quadratic_roots(1, -10 ** 40, -1)
    assert time.perf_counter() - start < 0.1
    assert (plus.a, plus.b, plus.d) == (10 ** 40 / Fraction(2), Fraction(1, 2), 10 ** 80 + 4)
    assert plus + minus == QuadraticElement.from_rational(10 ** 40)
    assert plus * minus == QuadraticElement.from_rational(-1)


def test_golden_ratio_identities():
    phi, psi = quadratic_roots(1, -1, -1)
    assert phi + psi == QuadraticElement.from_rational(1)
    assert phi * psi == QuadraticElement.from_rational(-1)
    assert phi ** 2 == phi + 1
    assert phi.norm() == Fraction(-1)
    # phi^10 = (L_10 + F_10 sqrt5)/2 = (123 + 55 sqrt5)/2
    p10 = phi ** 10
    assert (p10.a, p10.b, p10.d) == (Fraction(123, 2), Fraction(55, 2), 5)


def test_rational_collapse():
    # sqrt(4) collapses to 2; sqrt(8) keeps its d and equals 2 sqrt(2) by value
    two = QuadraticElement.make(0, 1, 4)
    assert two == QuadraticElement.from_rational(2) and (two.b, two.d) == (0, 1)
    e = QuadraticElement.make(0, 1, 8)
    assert e == QuadraticElement.make(0, 2, 2) and hash(e) == hash(QuadraticElement.make(0, 2, 2))


def test_inverse_and_division():
    phi, _ = quadratic_roots(1, -1, -1)
    assert phi * phi.inverse() == QuadraticElement.from_rational(1)
    assert (phi ** -3) * (phi ** 3) == QuadraticElement.from_rational(1)
    with pytest.raises(ZeroDivisionError):
        QuadraticElement.from_rational(0).inverse()


def test_mixed_fields_rejected():
    s2 = QuadraticElement.make(0, 1, 2)
    s5 = QuadraticElement.make(0, 1, 5)
    with pytest.raises(UnsupportedDegree):
        s2 * s5


def test_minimal_polynomials():
    phi, _ = quadratic_roots(1, -1, -1)
    assert phi.minimal_polynomial() == (1, -1, -1)
    assert QuadraticElement.from_rational(Fraction(3, 2)).minimal_polynomial() == (2, -3)
    inv_sqrt5 = QuadraticElement.make(0, 1, 5).inverse()
    assert inv_sqrt5.minimal_polynomial() == (5, 0, -1)


def test_complex_quadratic():
    plus, minus = quadratic_roots(1, 0, 4)      # X^2 + 4 = (X - 2i)(X + 2i)
    assert plus == QuadraticElement.make(0, 2, -1) and minus == plus.conjugate()
    assert plus.norm() == 4
    F = IntervalField(96)
    box = plus.box(F)
    assert contains(box.im, 2) and contains(box.re, 0)


def test_box_embedding():
    phi, _ = quadratic_roots(1, -1, -1)
    F = IntervalField(128)
    assert abs(midpoint_float(phi.box(F).re) - 1.6180339887498949) < 1e-15


@settings(max_examples=100, deadline=None)
@given(
    a=st.fractions(min_value=-5, max_value=5),
    b=st.fractions(min_value=-5, max_value=5),
    d=st.sampled_from([2, 3, 5, -1, -3]),
)
def test_field_axioms_random(a, b, d):
    x = QuadraticElement.make(a, b, d)
    y = QuadraticElement.make(b, a, d)
    assert (x + y) - y == x
    assert x * y == y * x
    if not x.is_zero():
        assert x * x.inverse() == QuadraticElement.from_rational(1)
        product = x * x.conjugate()
        assert product.is_rational and x.norm() == product.a


@pytest.mark.parametrize("d", [5, -3])
def test_one_field_under_two_d(d):
    # a + b sqrt(d) = a + (b / p) sqrt(d p^2): both forms are one value, so
    # they compare and hash equal, and arithmetic across them is exact
    p = _P
    x = QuadraticElement(Fraction(1, 2), Fraction(3, 2), d)
    y = QuadraticElement(Fraction(1, 2), Fraction(3, 2 * p), d * p * p)
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert x != QuadraticElement(Fraction(1, 2), Fraction(-3, 2 * p), d * p * p)
    square, cube = x * x, x * x * x
    assert x + y == y + x == 2 * x and (x - y).is_zero() and (y - x).is_zero()
    assert x * y == y * x == y * y == square and x / y == y / x == QuadraticElement.from_rational(1)
    assert y * square == square * y == cube and (y + 1) * (x - 1) == square - 1
    assert (x * y).norm() == square.norm() == x.norm() ** 2
    with pytest.raises(UnsupportedDegree):
        x * QuadraticElement(Fraction(0), Fraction(1), d * p)      # d^2 p is no square
    with pytest.raises(UnsupportedDegree):
        x * QuadraticElement(Fraction(0), Fraction(1), -d * p * p)  # d1 d2 < 0


@settings(max_examples=150, deadline=None)
@given(
    a=st.fractions(min_value=-5, max_value=5, max_denominator=60),
    b=st.fractions(min_value=-5, max_value=5, max_denominator=60),
    c=st.fractions(min_value=-5, max_value=5, max_denominator=60),
    d=st.integers(-60, 60),
    s=st.integers(1, 10 ** 6),
)
def test_a_square_factor_of_d_changes_no_value(a, b, c, d, s):
    # make(a, b s, d) and make(a, b, d s^2) are one number: they compare and
    # hash equal, agree in arithmetic with each other and with a third
    # element of the field, and their boxes overlap
    x, y = QuadraticElement.make(a, b * s, d), QuadraticElement.make(a, b, d * s * s)
    assert x == y and hash(x) == hash(y)
    for w in (x, y, QuadraticElement.make(c, 1, d)):
        assert x + w == y + w == w + y and x * w == y * w == w * y
        if not w.is_zero():
            assert x / w == y / w
    if not x.is_zero():
        assert 1 / x == 1 / y
    F = IntervalField(96)
    assert not x.box(F).is_disjoint_from(y.box(F))


def test_make_keeps_a_non_square_cofactor_in_d():
    # p sqrt(5 p) = sqrt(5 p^3): make() keeps each d as given
    p = _P
    x, y = QuadraticElement.make(0, p, 5 * p), QuadraticElement.make(0, 1, 5 * p ** 3)
    assert (x.d, y.d) == (5 * p, 5 * p ** 3)
    assert x == y and hash(x) == hash(y) and x * y == QuadraticElement.from_rational(5 * p ** 3)


def test_independence_and_compositum_see_one_field_under_two_d():
    # phi^2 over d = 5 and phi^3 over d = 5 p^2 satisfy alpha^3 = beta^2, and
    # phi against phi^10001 is the same-field two-units case; comparing d
    # with == would send both to the cross-field branch, which calls them
    # independent
    p = _P
    phi, _ = quadratic_roots(1, -1, -1)

    def over_5p2(x):
        return QuadraticElement(x.a, x.b / p, 5 * p * p)

    def verdict(x, y):
        return multiplicative_independence(AlgebraicNumber.from_quadratic(x),
                                           AlgebraicNumber.from_quadratic(over_5p2(y)))

    found = verdict(phi ** 2, phi ** 3)
    assert (found.status, found.n, found.m) == ("dependent", 3, 2)
    assert verdict(phi, phi ** 10001).status == "unknown"
    assert _compositum_degree(AlgebraicNumber.from_quadratic(phi),
                              AlgebraicNumber.from_quadratic(over_5p2(phi ** 3))) == 2


def test_arithmetic_on_normal_forms_factors_nothing():
    # sums, products, quotients and powers build their results directly,
    # each in self's d
    quadratic_roots.cache_clear()
    phi, _ = quadratic_roots(1, -1, -1)
    values = [phi, QuadraticElement.make(Fraction(3, 2), -2, 7), QuadraticElement.make(0, 1, -3),
              QuadraticElement.from_rational(Fraction(-5, 3))]
    for x in values:
        for y in values:
            if x.d == y.d or x.is_rational or y.is_rational:
                x + y, x - y, x * y, x / y, 2 * x - y
        x ** 5, x ** -3, x.inverse(), 1 / x
    assert (phi * (1 - phi), (phi * phi - phi) ** 7) == (QuadraticElement.from_rational(-1),
                                                         QuadraticElement.from_rational(1))
    assert quadratic_roots(2, 6, 1) == (QuadraticElement.make(Fraction(-3, 2), Fraction(1, 2), 7),
                                        QuadraticElement.make(Fraction(-3, 2), Fraction(-1, 2), 7))
