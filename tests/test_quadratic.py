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
from recdiff.quadratic import (
    _TRIAL_BOUND,
    QuadraticElement,
    quadratic_roots,
    square_free_core,
)


def _prime_past_the_trial_bound():
    from sympy import nextprime

    return int(nextprime(_TRIAL_BOUND))


def test_square_free_core():
    assert square_free_core(40) == (10, 2)
    assert square_free_core(-12) == (-3, 2)
    assert square_free_core(49) == (1, 7)
    assert square_free_core(5) == (5, 1)
    assert square_free_core(0) == (0, 1)
    p = _prime_past_the_trial_bound()
    assert square_free_core(-12 * p ** 2) == (-3, 2 * p)     # a square cofactor past the bound
    assert square_free_core(5 * p ** 3) == (5 * p ** 3, 1)   # a non-square one stays in core


def test_large_discriminant_is_not_factored():
    # the discriminant 10^80 + 4 = 2^2 (25 10^78 + 1) leaves a cofactor past
    # 2^32 after trial division; one square test keeps it in d, non-square
    quadratic_roots.cache_clear()
    square_free_core.cache_clear()
    start = time.perf_counter()
    plus, minus = quadratic_roots(1, -10 ** 40, -1)
    assert time.perf_counter() - start < 0.1
    assert (plus.a, plus.b, plus.d) == (10 ** 40 / Fraction(2), 1, (10 ** 80 + 4) // 4)
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
    # sqrt(4) collapses to 2; sqrt(8) normalizes to 2 sqrt(2)
    assert QuadraticElement.make(0, 1, 4) == QuadraticElement.from_rational(2)
    e = QuadraticElement.make(0, 1, 8)
    assert (e.b, e.d) == (Fraction(2), 2)


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
    assert plus.d == -1 and plus.b == 2
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
    p = _prime_past_the_trial_bound()
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


def test_make_keeps_a_non_square_cofactor_in_d():
    # p sqrt(5 p) = sqrt(5 p^3): the cofactor p^3 passes the trial bound and stays in d
    p = _prime_past_the_trial_bound()
    x, y = QuadraticElement.make(0, p, 5 * p), QuadraticElement.make(0, 1, 5 * p ** 3)
    assert (x.d, y.d) == (5 * p, 5 * p ** 3)
    assert x == y and hash(x) == hash(y) and x * y == QuadraticElement.from_rational(5 * p ** 3)


def test_independence_and_compositum_see_one_field_under_two_d():
    # phi^2 over d = 5 and phi^3 over d = 5 p^2 satisfy alpha^3 = beta^2, and
    # phi against phi^10001 is the same-field two-units case; comparing d
    # with == would send both to the cross-field branch, which calls them
    # independent
    p = _prime_past_the_trial_bound()
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
    # d is in normal form once make() has run, so sums, products, quotients
    # and powers build their results directly; only make() reduces outside input
    quadratic_roots.cache_clear()
    square_free_core.cache_clear()
    phi, _ = quadratic_roots(1, -1, -1)
    values = [phi, QuadraticElement.make(Fraction(3, 2), -2, 7), QuadraticElement.make(0, 1, -3),
              QuadraticElement.from_rational(Fraction(-5, 3))]
    misses = square_free_core.cache_info().misses
    for x in values:
        for y in values:
            if x.d == y.d or x.is_rational or y.is_rational:
                x + y, x - y, x * y, x / y, 2 * x - y
        x ** 5, x ** -3, x.inverse(), 1 / x
    assert (phi * (1 - phi), (phi * phi - phi) ** 7) == (QuadraticElement.from_rational(-1),
                                                         QuadraticElement.from_rational(1))
    assert square_free_core.cache_info().misses == misses
    assert quadratic_roots(2, 6, 1) == (QuadraticElement.make(Fraction(-3, 2), Fraction(1, 2), 7),
                                        QuadraticElement.make(Fraction(-3, 2), Fraction(-1, 2), 7))
    # one miss, the discriminant 28; make() finds 7, cached when values were built
    assert square_free_core.cache_info().misses == misses + 1


def test_bounds_factors_each_integer_once():
    # the quadratic conjugates of heights.log_height's ladder share their
    # discriminants: square_free_core misses once per integer, and evicts none
    from recdiff import spectral
    from recdiff.cli import dispatch

    spectral._cached_analysis.cache_clear()
    quadratic_roots.cache_clear()
    square_free_core.cache_clear()
    assert dispatch("bounds --seq-u fib --seq-v pow2 --no-header".split()) == 0
    info = square_free_core.cache_info()
    assert info.misses == info.currsize <= 44
