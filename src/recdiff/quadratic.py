"""Exact arithmetic in Q and in quadratic fields Q(sqrt(d)).

Elements are stored as a + b*sqrt(d) with rational a, b and a squarefree
integer d (d may be negative; d = 1 encodes a plain rational with b folded
into a).  Everything here is exact Fraction arithmetic; these elements feed
the heights module (exact minimal polynomials of compound values) and the
zero-detection paths in the linear-form machinery.

``factor_integer`` is exact by trial division for the small integers met
here and hands only a cofactor with no prime factor below its bound to
sympy, so sympy is not loaded on that path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from ._zpoly import primitive
from .errors import UnsupportedDegree

_TRIAL_BOUND = 1 << 16      # trial division is exact below _TRIAL_BOUND ** 2


def factor_integer(n: int) -> dict:
    """Prime factorisation {p: e} of n >= 1, as ``sympy.factorint`` gives it.

    Trial division stops once d * d > n, when the cofactor left is 1 or a
    prime; a cofactor left at the bound goes to ``sympy.factorint``.
    """
    factors = {}
    d = 2
    while d * d <= n:
        if d >= _TRIAL_BOUND:
            from sympy import factorint

            for p, e in factorint(n).items():
                factors[int(p)] = int(e)
            return factors
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors[d] = e
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = 1
    return factors


@functools.lru_cache(maxsize=256)
def square_free_core(n: int):
    """n = core * square^2 with core squarefree; returns (core, square)."""
    if n == 0:
        return 0, 1
    sign = -1 if n < 0 else 1
    core, square = sign, 1
    for p, e in factor_integer(abs(n)).items():
        if e % 2:
            core *= p
        square *= p ** (e // 2)
    return core, square


@dataclass(frozen=True)
class QuadraticElement:
    """make() brings outside input to one normal form (a rational has b == 0
    and d == 1), so == is exact equality.  Arithmetic on normal-form elements
    keeps it without factoring d again."""

    a: Fraction
    b: Fraction
    d: int

    @staticmethod
    def make(a, b=0, d=1) -> "QuadraticElement":
        a, b = Fraction(a), Fraction(b)
        if b == 0 or d == 1:
            if d == 1:
                a, b = a + b, Fraction(0)
            else:
                b = Fraction(0)
            return QuadraticElement(a, b, 1)
        if d == 0:
            return QuadraticElement(a, Fraction(0), 1)
        core, square = square_free_core(d)
        if core == 1:
            return QuadraticElement(a + b * square, Fraction(0), 1)
        return QuadraticElement(a, b * square, core)

    @staticmethod
    def _normal(a: Fraction, b: Fraction, d: int) -> "QuadraticElement":
        """a + b sqrt(d) for a squarefree d, b == 0 folded to a rational."""
        return QuadraticElement(a, b, d) if b else QuadraticElement(a, Fraction(0), 1)

    @staticmethod
    def from_rational(x) -> "QuadraticElement":
        return QuadraticElement.make(Fraction(x))

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def _check_field(self, other: "QuadraticElement"):
        if self.d != other.d and not self.is_rational and not other.is_rational:
            raise UnsupportedDegree(
                "mixed quadratic fields Q(sqrt(%d)) and Q(sqrt(%d))" % (self.d, other.d))
        return self.d if not self.is_rational else other.d

    def __add__(self, other):
        other = _coerce(other)
        d = self._check_field(other)
        return QuadraticElement._normal(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticElement(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        d = self._check_field(other)
        a = self.a * other.a + d * self.b * other.b
        b = self.a * other.b + self.b * other.a
        return QuadraticElement._normal(a, b, d)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadraticElement":
        return QuadraticElement(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm a^2 - d b^2 (equals the square for rationals)."""
        return self.a * self.a - self.d * self.b * self.b

    def inverse(self) -> "QuadraticElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero element")
        return QuadraticElement._normal(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = QuadraticElement.from_rational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def minimal_polynomial(self) -> tuple:
        """Primitive integer coefficients, highest degree first, leading > 0."""
        if self.is_rational:
            num, den = self.a.numerator, self.a.denominator
            return (den, -num)
        tr = 2 * self.a          # X^2 - tr X + norm
        nm = self.norm()
        w = tr.denominator * nm.denominator // gcd(tr.denominator, nm.denominator)
        return primitive((w, int(-tr * w), int(nm * w)))

    def box(self, field):
        """Certified enclosure as a ComplexBox (imaginary for d < 0)."""
        a = field.real(self.a)
        if self.b == 0:
            return field.box_from_intervals(a, field.real(0))
        root = field.sqrt(field.real(abs(self.d)))
        part = field.real(self.b) * root
        if self.d > 0:
            return field.box_from_intervals(a + part, field.real(0))
        return field.box_from_intervals(a, part)

    def __repr__(self):
        if self.is_rational:
            return "QuadraticElement(%s)" % self.a
        return "QuadraticElement(%s + %s*sqrt(%d))" % (self.a, self.b, self.d)


def _coerce(x) -> QuadraticElement:
    if isinstance(x, QuadraticElement):
        return x
    return QuadraticElement.from_rational(x)


@functools.lru_cache(maxsize=256)      # the elements are frozen: callers share them
def quadratic_roots(a: int, b: int, c: int):
    """Both roots of a X^2 + b X + c as exact elements, '+sqrt' branch first."""
    if a == 0:
        raise ValueError("not a quadratic")
    disc = b * b - 4 * a * c
    core, square = square_free_core(disc)
    if disc == 0:
        r = QuadraticElement.from_rational(Fraction(-b, 2 * a))
        return r, r
    if core == 1:  # rational roots
        plus = QuadraticElement.from_rational(Fraction(-b + square, 2 * a))
        minus = QuadraticElement.from_rational(Fraction(-b - square, 2 * a))
        return plus, minus
    half = Fraction(1, 2 * a)
    plus = QuadraticElement._normal(Fraction(-b, 2 * a), square * half, core)
    minus = QuadraticElement._normal(Fraction(-b, 2 * a), -square * half, core)
    return plus, minus
