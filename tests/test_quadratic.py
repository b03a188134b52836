import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdiff.errors import UnsupportedDegree
from recdiff.intervals import IntervalField, contains, midpoint_float
from recdiff.quadratic import (
    _TRIAL_BOUND,
    QuadraticElement,
    factor_integer,
    quadratic_roots,
    square_free_core,
)


def test_square_free_core():
    assert square_free_core(40) == (10, 2)
    assert square_free_core(-12) == (-3, 2)
    assert square_free_core(49) == (1, 7)
    assert square_free_core(5) == (5, 1)
    assert square_free_core(0) == (0, 1)


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
        assert x.norm() == (x * x.conjugate()).rational_value()


def test_factor_integer_matches_sympy():
    from sympy import factorint, nextprime

    rng = random.Random(24)
    numbers = [1, 2, 4, 97, 2 ** 40, 3 ** 25 * 5 ** 9]
    numbers += [rng.randint(2, 10 ** rng.randint(2, 24)) for _ in range(80)]
    big = [nextprime(_TRIAL_BOUND + 1000 * i) for i in range(3)]
    numbers += [p * p for p in big]                            # prime squares past the bound
    numbers += [big[0] * big[1], 12 * big[1] * big[2]]         # semiprimes past the bound
    numbers += [nextprime(2 ** 40) * nextprime(2 ** 41)]
    for n in numbers:
        assert factor_integer(n) == factorint(n), n
    assert square_free_core(-12 * big[0] ** 2) == (-3, 2 * big[0])


def test_arithmetic_on_normal_forms_factors_nothing(monkeypatch):
    # d is squarefree once make() has run, so sums, products, quotients and
    # powers build their results directly; only make() factors outside input
    from recdiff import quadratic

    quadratic_roots.cache_clear()
    square_free_core.cache_clear()
    phi, _ = quadratic_roots(1, -1, -1)
    values = [phi, QuadraticElement.make(Fraction(3, 2), -2, 7), QuadraticElement.make(0, 1, -3),
              QuadraticElement.from_rational(Fraction(-5, 3))]
    calls = []
    monkeypatch.setattr(quadratic, "factor_integer", lambda n: calls.append(n) or factor_integer(n))
    for x in values:
        for y in values:
            if x.d == y.d or x.is_rational or y.is_rational:
                x + y, x - y, x * y, x / y, 2 * x - y
        x ** 5, x ** -3, x.inverse(), 1 / x
    assert (phi * (1 - phi), (phi * phi - phi) ** 7) == (QuadraticElement.from_rational(-1),
                                                         QuadraticElement.from_rational(1))
    assert calls == []
    assert quadratic_roots(2, 6, 1) == (QuadraticElement.make(Fraction(-3, 2), Fraction(1, 2), 7),
                                        QuadraticElement.make(Fraction(-3, 2), Fraction(-1, 2), 7))
    assert calls == [28]     # the discriminant; make() finds 7, cached when values were built


def test_bounds_factors_each_integer_once(monkeypatch):
    # the quadratic conjugates of heights.log_height's ladder share their
    # discriminants: 67 factor_integer calls on 44 integers before the caches
    from recdiff import independence, quadratic, spectral
    from recdiff.cli import dispatch

    spectral._cached_analysis.cache_clear()
    quadratic_roots.cache_clear()
    square_free_core.cache_clear()
    calls = []

    def spy(n):
        calls.append(n)
        return factor_integer(n)

    monkeypatch.setattr(quadratic, "factor_integer", spy)
    monkeypatch.setattr(independence, "factor_integer", spy)
    assert dispatch("bounds --seq-u fib --seq-v pow2 --no-header".split()) == 0
    assert len(calls) == len(set(calls)) <= 44
