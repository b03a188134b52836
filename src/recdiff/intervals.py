"""Certified interval arithmetic: outward-rounded real intervals and complex boxes.

Real intervals are mpmath ``iv`` numbers from a private context (no global
precision state is touched).  Complex values are axis-aligned boxes (a real
interval for each of the real and imaginary parts); every arithmetic
operation encloses the exact result.  ``ComplexBox`` adds, multiplies and
takes moduli on mpmath's raw interval tuples at the field's precision, in
the order that mpmath's operators would apply them, so every endpoint is the
one the interval objects would give, without an object per intermediate
step; ``IntervalField.real`` rounds integers and fractions the way mpmath's
conversion does, without its generic dispatch.  Comparisons are
three-valued: helpers below return True only when the relation holds for
*every* point of the operands, so a True answer is a certificate.
"""

from __future__ import annotations

import os
from fractions import Fraction

import mpmath
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import (
    from_int,
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
            return ComplexBox(f, make(mpi_mul(a, c, prec)), make(mpi_mul(a, d, prec)))
        if d == _ZERO:
            return ComplexBox(f, make(mpi_mul(a, c, prec)), make(mpi_mul(b, c, prec)))
        re = mpi_sub(mpi_mul(a, c, prec), mpi_mul(b, d, prec), prec)
        im = mpi_add(mpi_mul(a, d, prec), mpi_mul(b, c, prec), prec)
        return ComplexBox(f, make(re), make(im))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
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
        return is_interior(self.re, other.re) and is_interior(self.im, other.im)

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


def poly_eval_box(coeffs, z: ComplexBox) -> ComplexBox:
    """Horner evaluation of an integer-coefficient polynomial (highest first)."""
    acc = z.field.box(coeffs[0])
    for c in coeffs[1:]:
        acc = acc * z + c
    return acc


def poly_eval_real(field: IntervalField, coeffs, x):
    acc = field.real(coeffs[0])
    for c in coeffs[1:]:
        acc = acc * x + field.real(c)
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
    ``attempt(IntervalField(bits))`` over ``refinement_precisions(start)``:
    bits double from ``start`` and the last rung is exactly the cap
    (RECDIFF_PRECISION_BITS, default 4096).  The first result
    that is not None is returned; any other value, False included, is a
    decision.  When every rung fails, PrecisionExhausted(message) is raised
    with ``bits`` set to the last rung tried.
    """
    for bits in refinement_precisions(start):
        result = attempt(IntervalField(bits))
        if result is not None:
            return result
    raise PrecisionExhausted(message, bits=bits)
