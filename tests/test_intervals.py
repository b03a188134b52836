import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdiff.intervals import (
    IntervalField,
    certainly_greater,
    certainly_le,
    certainly_less,
    contains,
    contains_zero,
    is_disjoint,
    lower_float,
    midpoint_float,
    poly_eval_box,
    refinement_precisions,
    upper_float,
    width_float,
)

F = IntervalField(128)


def test_sqrt_two_enclosure():
    s = F.sqrt(F.real(2))
    assert contains(s * s, 2) or contains_zero(s * s - F.real(2))
    assert lower_float(s) <= 2 ** 0.5 <= upper_float(s)
    assert width_float(s) < 1e-35


def test_fraction_enclosure():
    third = F.real(Fraction(1, 3))
    assert contains(third * 3, 1)
    assert contains((F.real(Fraction(3, 2)) ** 10), Fraction(59049, 1024))


def test_constants():
    assert 3.14159 < midpoint_float(F.pi()) < 3.1416
    assert 2.71828 < midpoint_float(F.e()) < 2.71829


def test_three_valued_comparisons():
    assert certainly_less(F.real(1), F.real(2))
    assert not certainly_less(F.real(2), F.real(2))
    overlap_a = F.from_endpoints(F.real(1), F.real(3))
    overlap_b = F.from_endpoints(F.real(2), F.real(4))
    assert not certainly_less(overlap_a, overlap_b)   # undecided, not a certificate
    assert not certainly_greater(overlap_a, overlap_b)
    assert certainly_le(F.real(2), F.real(2))
    assert is_disjoint(F.from_endpoints(F.real(0), F.real(1)),
                       F.from_endpoints(F.real(2), F.real(3)))


def test_complex_box_arithmetic():
    z = F.box(3, 4)
    assert contains(z.modulus(), 5)
    w = F.box(1, 1)
    sq = w * w
    assert contains(sq.re, 0) and contains(sq.im, 2)
    # division round trip
    q = z / w
    back = q * w
    assert contains(back.re, 3) and contains(back.im, 4)
    with pytest.raises(ZeroDivisionError):
        z / F.box(0, 0)


def test_complex_box_powers():
    z = F.box(2, 0)
    assert contains((z ** 10).re, 1024)
    assert contains((z ** -2).re, Fraction(1, 4))
    assert contains((z ** 0).re, 1)


def test_box_geometry():
    big = F.box_from_intervals(F.from_endpoints(F.real(0), F.real(1)),
                               F.from_endpoints(F.real(-1), F.real(1)))
    small = F.box(Fraction(1, 2))
    assert small.is_interior_of(big)
    far = F.box(5)
    assert far.is_disjoint_from(big)
    assert not small.is_disjoint_from(big)


def test_poly_eval_box():
    # X^2 - X - 1 at 1/2 is -5/4
    val = poly_eval_box([1, -1, -1], F.box(Fraction(1, 2)))
    assert contains(val.re, Fraction(-5, 4))
    assert contains_zero(val.im)


def test_refinement_schedule(monkeypatch):
    monkeypatch.setenv("RECDIFF_PRECISION_BITS", "1000")
    assert list(refinement_precisions(128)) == [128, 256, 512, 1000]
    monkeypatch.setenv("RECDIFF_PRECISION_BITS", "4096")
    assert list(refinement_precisions(4096)) == [4096]


@settings(max_examples=150, deadline=None)
@given(
    a=st.fractions(min_value=-100, max_value=100),
    b=st.fractions(min_value=-100, max_value=100),
)
def test_enclosure_random(a, b):
    from recdiff.intervals import interval_inf_fraction, interval_sup_fraction

    x, y = F.real(a), F.real(b)
    for interval, exact in ((x * y, a * b), (x + y, a + b), (x - y, a - b)):
        assert interval_inf_fraction(interval) <= exact <= interval_sup_fraction(interval)


def test_precision_cap_env(monkeypatch):
    from recdiff.intervals import precision_cap
    monkeypatch.delenv("RECDIFF_PRECISION_BITS", raising=False)
    assert precision_cap() == 4096
    monkeypatch.setenv("RECDIFF_PRECISION_BITS", "512")
    assert precision_cap() == 512
    monkeypatch.setenv("RECDIFF_PRECISION_BITS", "junk")
    assert precision_cap() == 4096


def _interval(field, rng, straddle=False):
    """A random interval with full-precision endpoints; straddling 0 on request."""
    a = field.real(Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6))) / 7
    if straddle:
        return field.from_endpoints(-abs(a.a) - 1, abs(a.b) + 2)
    return a if rng.random() < 0.3 else field.from_endpoints(a.a, (a + field.real(1) / 3).b)


@pytest.mark.parametrize("prec", [64, 256, 512])
def test_box_arithmetic_equals_mpmath_operators(prec):
    # the raw-tuple ComplexBox operations give the endpoints that mpmath's
    # interval operators give, also where x**2 and x*x differ (0 inside x)
    field = IntervalField(prec)
    rng = random.Random(prec)
    straddling = field.from_endpoints(field.real(-1), field.real(2))
    assert (straddling * straddling)._mpi_ != (straddling ** 2)._mpi_
    for trial in range(60):
        x = field.box_from_intervals(_interval(field, rng, trial % 3 == 0),
                                     _interval(field, rng, trial % 4 == 0))
        y = field.box_from_intervals(_interval(field, rng, trial % 5 == 0),
                                     field.real(0) if trial % 7 == 0 else _interval(field, rng))
        c = rng.randint(-10 ** 30, 10 ** 30)
        pairs = [
            ((x + y).re, x.re + y.re), ((x + y).im, x.im + y.im),
            ((x + c).re, x.re + c), ((x + c).im, x.im + 0),
            ((x * y).re, x.re * y.re - x.im * y.im),
            ((x * y).im, x.re * y.im + x.im * y.re),
            ((x * c).re, x.re * c - x.im * 0), ((x * c).im, x.re * 0 + x.im * c),
            ((x - y).re, x.re + -y.re),
            (x.abs_squared(), x.re ** 2 + x.im ** 2),
            (x.modulus(), field.ctx.sqrt(x.re ** 2 + x.im ** 2)),
        ]
        for got, want in pairs:
            assert got._mpi_ == want._mpi_


@pytest.mark.parametrize("prec", [64, 256, 512])
def test_real_and_contains_zero_equal_mpmath_conversion(prec):
    field = IntervalField(prec)
    for n in (0, 1, -7, 2 ** 70 + 1, -(3 ** 400) - 2, 10 ** 200 + 17):
        assert field.real(n)._mpi_ == field.ctx.mpf(n)._mpi_
        q = Fraction(n, 3 ** 50 + 2)
        assert field.real(q)._mpi_ == (field.ctx.mpf(q.numerator) / field.ctx.mpf(q.denominator))._mpi_
    for lo, hi in ((-1, 1), (0, 0), (0, 3), (-3, 0), (1, 2), (-2, -1)):
        x = field.from_endpoints(field.real(lo), field.real(hi))
        assert contains_zero(x) == bool(x.a <= 0 and 0 <= x.b)
