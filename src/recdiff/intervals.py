"""Certified interval arithmetic: outward-rounded real intervals and complex boxes.

Real intervals are mpmath ``iv`` numbers from a private context (no global
precision state is touched).  Complex values are axis-aligned boxes (a real
interval for each of the real and imaginary parts); every arithmetic
operation encloses the exact result.  ``ComplexBox`` adds, multiplies and
takes moduli on mpmath's raw interval tuples at the field's precision, in
the order that mpmath's operators would apply them, so every endpoint is the
one the interval objects would give, without an object per intermediate
step; ``IntervalField.real`` rounds integers and fractions the way mpmath's
conversion does, without its generic dispatch.  A box whose imaginary part
is the point 0 lies on the real axis: the quotient of two such boxes is the
interval quotient of their real parts, and one is interior to another when
its real part is, so a box Newton on the axis is the real interval Newton
method.  Other quotients multiply by the conjugate and divide by the
squared modulus.  Comparisons are
three-valued: helpers below return True only when the relation holds for
*every* point of the operands, so a True answer is a certificate.

A ball ``(m, r, e)``, with integers m and r >= 0, is the real interval
[(m - r) 2^e, (m + r) 2^e] (midpoint-radius arithmetic, as in Arb).  Balls
carry a hot loop at one precision on plain integers: a product keeps at most
``prec`` bits, rounds its midpoint once and adds that rounding to its
radius only when a nonzero bit was dropped, so powers of 2 or 3 stay exact
while they fit; a sum aligns exponents exactly and does not round.  They
convert from and to raw interval tuples at the ends of such a loop.
"""

from __future__ import annotations

import functools
import os
from fractions import Fraction

import mpmath
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import (
    from_int,
    from_man_exp,
    fzero,
    mpf_le,
    mpi_add,
    mpi_div,
    mpi_mul,
    mpi_pow_int,
    mpi_sqrt,
    mpi_sub,
    round_ceiling,
    round_floor,
)

from .errors import PrecisionExhausted

DEFAULT_PRECISION_CAP = 4096
_ZERO = (fzero, fzero)      # the point interval 0 as a raw tuple


def precision_cap() -> int:
    """Precision ceiling in bits; overridable via RECDIFF_PRECISION_BITS."""
    raw = os.environ.get("RECDIFF_PRECISION_BITS")
    if raw:
        try:
            value = int(raw)
        except ValueError:
            return DEFAULT_PRECISION_CAP
        if value >= 16:
            return value
    return DEFAULT_PRECISION_CAP


class IntervalField:
    """A fixed-precision interval arithmetic context."""

    def __init__(self, prec: int):
        if prec < 1:
            raise ValueError("precision must be at least 1 bit, got %r" % (prec,))
        ctx = MPIntervalContext()
        ctx.prec = prec
        self.ctx = ctx
        self.prec = prec

    # -- construction -------------------------------------------------

    def real(self, x):
        """Enclose x (int, Fraction, str, mpf, or interval) as a real interval."""
        if type(x) is int:
            return self._integer(x)
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return self._integer(x.numerator)
            return self.ctx.make_mpf(mpi_div(self._integer(x.numerator)._mpi_,
                                             self._integer(x.denominator)._mpi_, self.prec))
        return self.ctx.mpf(x)

    def _integer(self, n: int):
        """``ctx.mpf(n)``: n rounded down and up at the field's precision,
        without mpmath's generic conversion."""
        prec = self.prec
        return self.ctx.make_mpf((from_int(n, prec, round_floor),
                                  from_int(n, prec, round_ceiling)))

    def from_endpoints(self, a, b):
        return self.ctx.mpf([a, b])

    def box(self, re, im=0) -> "ComplexBox":
        return ComplexBox(self, self.real(re), self.real(im))

    def box_from_intervals(self, re, im) -> "ComplexBox":
        return ComplexBox(self, re, im)

    # -- elementary functions (outward rounded by the iv context) -----

    def sqrt(self, x):
        return self.ctx.sqrt(x)

    def log(self, x):
        return self.ctx.log(x)

    def pi(self):
        return +self.ctx.pi

    def e(self):
        return +self.ctx.e


@functools.lru_cache(maxsize=None)
def _field_at(prec: int) -> IntervalField:
    """One shared IntervalField per precision, for callers at a fixed
    precision.  Sharing is safe: no code sets a field's precision after
    construction, and the interval context's arithmetic, ln, sqrt and
    constants read it without changing it."""
    return IntervalField(prec)


# -- certified predicates on real intervals ---------------------------

def endpoint_fraction(point) -> Fraction:
    """Exact dyadic value of a point interval endpoint."""
    sign, man, exp, _ = point._mpi_[0]
    man = int(man)
    value = Fraction(-man if sign else man)
    return value * Fraction(2) ** int(exp)


def interval_inf_fraction(x) -> Fraction:
    return endpoint_fraction(x.a)


def interval_sup_fraction(x) -> Fraction:
    return endpoint_fraction(x.b)


def midpoint_float(x) -> float:
    return float(mpmath.mpf(x.mid._mpi_[0]))


def lower_float(x) -> float:
    return float(mpmath.mpf(x.a._mpi_[0]))


def upper_float(x) -> float:
    return float(mpmath.mpf(x.b._mpi_[0]))


def width_float(x) -> float:
    return float(mpmath.mpf(x.delta._mpi_[1]))


def certainly_less(x, y) -> bool:
    return bool(x.b < y.a)


def certainly_le(x, y) -> bool:
    return bool(x.b <= y.a)


def certainly_greater(x, y) -> bool:
    return bool(x.a > y.b)


def contains(x, value) -> bool:
    """Certified containment; may return False on borderline rounding."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            value = value.numerator
        else:
            num, den = value.numerator, value.denominator
            return bool((x.a * den).b <= num and num <= (x.b * den).a)
    return bool(x.a <= value and value <= x.b)


def contains_zero(x) -> bool:
    """``contains(x, 0)``, read from the raw endpoints."""
    lo, hi = x._mpi_
    return mpf_le(lo, fzero) and mpf_le(fzero, hi)


def is_disjoint(x, y) -> bool:
    return bool(x.b < y.a or y.b < x.a)


def is_subset(x, y) -> bool:
    """x contained in y (non-strict)."""
    return bool(y.a <= x.a and x.b <= y.b)


def is_interior(x, y) -> bool:
    """x contained in the interior of y."""
    return bool(y.a < x.a and x.b < y.b)


def intersect(field: IntervalField, x, y):
    if is_disjoint(x, y):
        raise ValueError("empty intersection")
    lo = x.a if x.a >= y.a else y.a
    hi = x.b if x.b <= y.b else y.b
    return field.from_endpoints(lo, hi)


class ComplexBox:
    """Axis-aligned rectangle {re + i*im} with certified interval components."""

    __slots__ = ("field", "re", "im")

    def __init__(self, field: IntervalField, re, im):
        self.field = field
        self.re = re
        self.im = im

    def __add__(self, other):
        other = self._coerce(other)
        f = self.field
        prec, make = f.prec, f.ctx.make_mpf
        return ComplexBox(f, make(mpi_add(self.re._mpi_, other.re._mpi_, prec)),
                          make(mpi_add(self.im._mpi_, other.im._mpi_, prec)))

    __radd__ = __add__

    def __neg__(self):
        return ComplexBox(self.field, -self.re, -self.im)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        f = self.field
        prec, make = f.prec, f.ctx.make_mpf
        a, b, c, d = self.re._mpi_, self.im._mpi_, other.re._mpi_, other.im._mpi_
        if b == _ZERO:      # a product with the point 0 is 0 and moves no endpoint
            im = _ZERO if d == _ZERO else mpi_mul(a, d, prec)
            return ComplexBox(f, make(mpi_mul(a, c, prec)), make(im))
        if d == _ZERO:
            return ComplexBox(f, make(mpi_mul(a, c, prec)), make(mpi_mul(b, c, prec)))
        re = mpi_sub(mpi_mul(a, c, prec), mpi_mul(b, d, prec), prec)
        im = mpi_add(mpi_mul(a, d, prec), mpi_mul(b, c, prec), prec)
        return ComplexBox(f, make(re), make(im))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if self.im._mpi_ == _ZERO == other.im._mpi_:     # on the real axis: the interval quotient
            if contains_zero(other.re):
                raise ZeroDivisionError("divisor box contains zero")
            f = self.field
            return ComplexBox(f, f.ctx.make_mpf(mpi_div(self.re._mpi_, other.re._mpi_, f.prec)),
                              self.im)
        den = other.abs_squared()
        if contains_zero(den):
            raise ZeroDivisionError("divisor box contains zero")
        num = self * other.conjugate()
        return ComplexBox(self.field, num.re / den, num.im / den)

    def __pow__(self, n: int):
        if n < 0:
            return self.field.box(1) / self.__pow__(-n)
        result = self.field.box(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _coerce(self, other):
        if isinstance(other, ComplexBox):
            return other
        return self.field.box(other)

    def conjugate(self):
        return ComplexBox(self.field, self.re, -self.im)

    def abs_squared(self):
        return self.field.ctx.make_mpf(self._abs_squared())

    def modulus(self):
        return self.field.ctx.make_mpf(mpi_sqrt(self._abs_squared(), self.field.prec))

    def _abs_squared(self):
        prec = self.field.prec
        return mpi_add(mpi_pow_int(self.re._mpi_, 2, prec),
                       mpi_pow_int(self.im._mpi_, 2, prec), prec)

    def contains_zero(self) -> bool:
        return contains_zero(self.re) and contains_zero(self.im)

    def is_interior_of(self, other: "ComplexBox") -> bool:
        # two boxes on the real axis: interior on the axis (real interval Newton)
        return is_interior(self.re, other.re) and (
            self.im._mpi_ == _ZERO == other.im._mpi_ or is_interior(self.im, other.im))

    def is_disjoint_from(self, other: "ComplexBox") -> bool:
        return is_disjoint(self.re, other.re) or is_disjoint(self.im, other.im)

    def intersect(self, other: "ComplexBox") -> "ComplexBox":
        f = self.field
        return ComplexBox(f, intersect(f, self.re, other.re), intersect(f, self.im, other.im))

    def midpoint_box(self) -> "ComplexBox":
        return ComplexBox(self.field, +self.re.mid, +self.im.mid)

    def width_float(self) -> float:
        return max(width_float(self.re), width_float(self.im))

    def __repr__(self):
        return "ComplexBox(%s, %s)" % (self.re, self.im)


# -- integer balls ---------------------------------------------------------

def ball_from_mpi(x):
    """The ball enclosing exactly the raw finite interval tuple ``x``."""
    lo, hi = x
    (s1, m1, e1, b1), (s2, m2, e2, b2) = lo, hi
    if b1 < 0 or b2 < 0:
        raise ValueError("an infinite or nan endpoint has no ball")
    if lo == hi:
        return (-m1 if s1 else m1), 0, e1
    e = min(e1, e2) - 1         # both ends even at 2^e: midpoint and radius are exact
    a, b = (-m1 if s1 else m1) << (e1 - e), (-m2 if s2 else m2) << (e2 - e)
    return (a + b) >> 1, (b - a) >> 1, e


def ball_to_mpi(x, prec):
    """The raw interval tuple of ``x``, its ends rounded outward to ``prec`` bits."""
    m, r, e = x
    return (from_man_exp(m - r, e, prec, round_floor),
            from_man_exp(m + r, e, prec, round_ceiling))


def ball_mul(x, y, prec):
    """x y, its midpoint and radius cut to ``prec`` bits: the midpoint is
    rounded down and the radius up, plus one unit when the midpoint lost a
    nonzero bit, and once more by one bit when that rounding carried either
    past ``prec`` bits."""
    a, ra, ea = x
    b, rb, eb = y
    m, e = a * b, ea + eb
    r = abs(a) * rb + ra * abs(b) + ra * rb if ra or rb else 0
    s = (abs(m) | r).bit_length() - prec
    if s > 0:
        r = -(-r >> s) + (m & ((1 << s) - 1) != 0)
        m >>= s
        e += s
        if (abs(m) | r).bit_length() > prec:     # the rounding carried into bit prec
            r = -(-r >> 1) + (m & 1)
            m >>= 1
            e += 1
    return m, r, e


def ball_add(x, y):
    """x + y, exactly."""
    a, ra, ea = x
    b, rb, eb = y
    if ea > eb:
        d = ea - eb
        return (a << d) + b, (ra << d) + rb, eb
    d = eb - ea
    return a + (b << d), ra + (rb << d), ea


def ball_neg(x):
    m, r, e = x
    return -m, r, e


def poly_eval_box(coeffs, z: ComplexBox) -> ComplexBox:
    """Horner evaluation of an integer-coefficient polynomial (highest first)."""
    acc = z.field.box(coeffs[0])
    for c in coeffs[1:]:
        acc = acc * z + c
    return acc


def refinement_precisions(start: int = 128):
    """Doubling precision schedule up to the cap (cap always included)."""
    if start < 1:
        raise ValueError("precision must be at least 1 bit, got %r" % (start,))
    cap = precision_cap()
    bits = start
    while bits < cap:
        yield bits
        bits *= 2
    yield cap


def ladder(start: int, attempt, message: str):
    """Climb the precision ladder until ``attempt`` makes a certified decision.

    Every certified decision in the package climbs this one ladder.  It runs
    ``attempt(_field_at(bits))``, the one shared field per precision, over
    ``refinement_precisions(start)``:
    bits double from ``start`` and the last rung is exactly the cap
    (RECDIFF_PRECISION_BITS, default 4096).  The first result
    that is not None is returned; any other value, False included, is a
    decision.  When every rung fails, PrecisionExhausted(message) is raised
    with ``bits`` set to the last rung tried.
    """
    for bits in refinement_precisions(start):
        result = attempt(_field_at(bits))
        if result is not None:
            return result
    raise PrecisionExhausted(message, bits=bits)
