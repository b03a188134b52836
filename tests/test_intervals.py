import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, mpi_div, mpi_mul, round_ceiling, round_floor

from recdiff.intervals import (
    _ZERO,
    IntervalField,
    ball_add,
    ball_from_mpi,
    ball_mul,
    ball_neg,
    ball_to_mpi,
    certainly_greater,
    certainly_le,
    certainly_less,
    contains,
    contains_zero,
    interval_inf_fraction,
    interval_sup_fraction,
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


@settings(max_examples=150, deadline=None)
@given(
    prec=st.integers(min_value=16, max_value=2048),
    ends=st.lists(st.fractions(min_value=-10 ** 6, max_value=10 ** 6), min_size=4, max_size=4),
)
def test_product_of_real_boxes_is_real(prec, ends):
    # two boxes with the point 0 as imaginary part multiply to the point 0
    # there, and to mpi_mul of their real parts
    field = IntervalField(prec)
    x, y = (field.box_from_intervals(field.from_endpoints(field.real(min(pair)).a,
                                                          field.real(max(pair)).b),
                                     field.real(0))
            for pair in (ends[:2], ends[2:]))
    product = x * y
    assert product.im._mpi_ == _ZERO
    assert product.re._mpi_ == mpi_mul(x.re._mpi_, y.re._mpi_, prec)


def endpoints(box):
    return [f(part) for part in (box.re, box.im)
            for f in (interval_inf_fraction, interval_sup_fraction)]


def _on_axis(field, lo, hi):
    return field.box_from_intervals(field.from_endpoints(field.real(lo), field.real(hi)),
                                    field.real(0))


@settings(max_examples=150, deadline=None)
@given(
    prec=st.integers(min_value=16, max_value=2048),
    ends=st.lists(st.fractions(min_value=-10 ** 6, max_value=10 ** 6), min_size=4, max_size=4),
)
def test_quotient_of_real_boxes_is_the_interval_quotient(prec, ends):
    # two boxes on the real axis divide to mpi_div of their real parts and
    # to the point 0 as imaginary part
    field = IntervalField(prec)
    x, y = (field.box_from_intervals(field.from_endpoints(field.real(min(pair)).a,
                                                          field.real(max(pair)).b),
                                     field.real(0))
            for pair in (ends[:2], ends[2:]))
    assume(not contains_zero(y.re))
    quotient = x / y
    assert quotient.im._mpi_ == _ZERO
    assert quotient.re._mpi_ == mpi_div(x.re._mpi_, y.re._mpi_, prec)


@pytest.mark.parametrize("lo,hi", [(-1, 2), (0, 3), (-3, 0), (0, 0)])
def test_a_real_divisor_holding_zero_raises(lo, hi):
    # mpi_div alone would return (-inf, inf) here
    with pytest.raises(ZeroDivisionError):
        _on_axis(F, 1, 2) / _on_axis(F, lo, hi)


def test_a_quotient_with_a_non_real_operand_stays_planar():
    # (1 + i) / [2, 4] is x conj(y) / |y|^2 = [2, 4] (1 + i) / [4, 16], wider
    # than the interval quotient 1 / [2, 4] = [1/4, 1/2] of its real part
    y = _on_axis(F, 2, 4)
    assert endpoints(_on_axis(F, 1, 1) / y) == [Fraction(1, 4), Fraction(1, 2), 0, 0]
    assert endpoints(F.box(1, 1) / y) == [Fraction(1, 8), 1, Fraction(1, 8), 1]
    rng = random.Random(7)
    for trial in range(60):
        x = F.box_from_intervals(_interval(F, rng), F.real(0) if trial % 4 == 0
                                 else _interval(F, rng, trial % 3 == 0))
        y = F.box_from_intervals(_interval(F, rng, trial % 5 == 0),
                                 F.real(0) if trial % 2 else _interval(F, rng))
        if x.im._mpi_ == _ZERO == y.im._mpi_ or contains_zero(y.abs_squared()):
            continue
        num, den = x * y.conjugate(), y.abs_squared()
        assert ((x / y).re._mpi_, (x / y).im._mpi_) == ((num.re / den)._mpi_, (num.im / den)._mpi_)


def test_interior_on_the_real_axis_follows_the_real_parts():
    # the real interval Newton test: a box on the axis inside another one's
    # real part is interior, although its point 0 is not inside the other's
    big = _on_axis(F, 0, 1)
    assert _on_axis(F, Fraction(1, 4), Fraction(1, 2)).is_interior_of(big)
    assert not _on_axis(F, 0, Fraction(1, 2)).is_interior_of(big)
    assert not _on_axis(F, Fraction(1, 2), 1).is_interior_of(big)
    # a box off the axis keeps the planar test
    plane = F.box_from_intervals(big.re, F.from_endpoints(F.real(0), F.real(1)))
    assert not _on_axis(F, Fraction(1, 4), Fraction(1, 2)).is_interior_of(plane)
    assert not F.box(Fraction(1, 2), Fraction(1, 2)).is_interior_of(big)
    assert F.box(Fraction(1, 2), Fraction(1, 2)).is_interior_of(plane)


def _dyadic(man, exp):
    return Fraction(man) * Fraction(2) ** exp


def _ends(ball):
    """The exact ends of a ball (m, r, e)."""
    m, r, e = ball
    return _dyadic(m - r, e), _dyadic(m + r, e)


def _raw_ends(x):
    """The exact ends of a raw interval tuple."""
    return tuple(_dyadic(-man if sign else man, exp) for sign, man, exp, _ in x)


_balls = st.tuples(st.integers(-2 ** 1100, 2 ** 1100), st.integers(0, 2 ** 1100),
                   st.integers(-3000, 3000))
_small_balls = st.tuples(st.integers(-2 ** 40, 2 ** 40), st.integers(0, 3),
                         st.integers(-3000, 3000))


@settings(max_examples=200, deadline=None)
@given(prec=st.integers(64, 1024), x=st.one_of(_balls, _small_balls),
       y=st.one_of(_balls, _small_balls))
def test_ball_operations_enclose_the_exact_results(prec, x, y):
    # a product encloses the four products of the ends, which bound the
    # exact product set, and keeps at most prec bits; a sum and a negation
    # are exact
    (xl, xh), (yl, yh) = _ends(x), _ends(y)
    product = ball_mul(x, y, prec)
    lo, hi = _ends(product)
    assert all(lo <= u * v <= hi for u in (xl, xh) for v in (yl, yh))
    assert (abs(product[0]) | product[1]).bit_length() <= prec
    assert _ends(ball_add(x, y)) == (xl + yl, xh + yh)
    assert _ends(ball_neg(x)) == (-xh, -xl)


@settings(max_examples=200, deadline=None)
@given(prec=st.integers(64, 1024), ball=st.one_of(_balls, _small_balls),
       mans=st.lists(st.integers(-2 ** 1024, 2 ** 1024), min_size=2, max_size=2),
       exps=st.lists(st.integers(-3000, 3000), min_size=2, max_size=2))
def test_ball_conversions_enclose_exactly(prec, ball, mans, exps):
    # a raw interval of prec-bit ends becomes the ball of exactly those ends;
    # a ball becomes the raw interval of its ends rounded outward to prec bits
    ends = sorted((from_man_exp(m, e, prec, round_floor) for m, e in zip(mans, exps)),
                  key=lambda end: _raw_ends((end,))[0])
    raw = tuple(ends)
    assert _ends(ball_from_mpi(raw)) == _raw_ends(raw)
    assert _ends(ball_from_mpi((raw[0], raw[0]))) == (_raw_ends(raw)[0],) * 2
    m, r, e = ball
    lo, hi = ball_to_mpi(ball, prec)
    assert lo == from_man_exp(m - r, e, prec, round_floor)
    assert hi == from_man_exp(m + r, e, prec, round_ceiling)
    (low, high), (exact_low, exact_high) = _raw_ends((lo, hi)), _ends(ball)
    assert low <= exact_low and exact_high <= high
    assert lo[3] <= prec and hi[3] <= prec


def test_an_infinite_end_has_no_ball():
    inf = IntervalField(64).ctx.inf._mpi_
    with pytest.raises(ValueError):
        ball_from_mpi(inf)


@pytest.mark.parametrize("x, y", [
    ((0, 1, 0), (0, 2 ** 65 - 1, 0)),               # the radius rounds up to 2^64
    ((-(2 ** 65 - 1), 0, 0), (1, 0, 0)),            # the midpoint rounds down to -2^64
    ((2 ** 65 - 1, 0, 0), (-1, 1, 0)),              # both
])
def test_a_rounding_carry_keeps_prec_bits(x, y):
    # rounding a product to 64 bits can carry into a 65th; it is cut once more
    (xl, xh), (yl, yh) = _ends(x), _ends(y)
    product = ball_mul(x, y, 64)
    lo, hi = _ends(product)
    assert all(lo <= u * v <= hi for u in (xl, xh) for v in (yl, yh))
    assert (abs(product[0]) | product[1]).bit_length() <= 64


@pytest.mark.parametrize("prec", [64, 256, 512, 1024])
def test_exact_balls_stay_exact(prec):
    # powers of 2 keep radius 0 at every size, powers of 3 while they fit
    # in prec bits; the first power of 3 that does not fit gets a radius
    two = three = (1, 0, 0)
    for n in range(1, 2 * prec):
        two, three = ball_mul(two, (2, 0, 0), prec), ball_mul(three, (3, 0, 0), prec)
        assert two[1] == 0 and _ends(two) == (2 ** n, 2 ** n)
        if (3 ** n).bit_length() <= prec:
            assert three == (3 ** n, 0, 0)
        else:
            assert three[1] > 0 and _ends(three)[0] < 3 ** n < _ends(three)[1]
            break
