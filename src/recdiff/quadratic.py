"""Exact arithmetic in Q and in quadratic fields Q(sqrt(d)).

Elements are stored as a + b*sqrt(d) with rational a, b and a non-square
integer d (d may be negative; d = 1 encodes a plain rational with b folded
into a).  Everything here is exact Fraction arithmetic; these elements feed
the heights module (exact minimal polynomials of compound values) and the
zero-detection paths in the linear-form machinery.

Nothing here factors an integer: d is kept as given, and a square d
folds to a rational.  One field has many d, and ==, hash and the field
checks of arithmetic compare values, not d.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from ._zpoly import primitive
from .errors import UnsupportedDegree


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, by integer Newton steps from a
    power of two above the root (floats would overflow past 1e308)."""
    if n < 2 or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


@dataclass(frozen=True, eq=False)
class QuadraticElement:
    """make() brings outside input to a normal form: a rational has b == 0
    and d == 1, an irrational a non-square d.  A field has many d, so == and
    hash read the value's key (a, b^2 d, b > 0), and arithmetic rewrites the
    other operand's b into self's d."""

    a: Fraction
    b: Fraction
    d: int

    @staticmethod
    def make(a, b=0, d=1) -> "QuadraticElement":
        a, b = Fraction(a), Fraction(b)
        if b and d >= 0 and (root := isqrt(d)) ** 2 == d:      # sqrt(d) = root is rational
            a, b = a + b * root, Fraction(0)
        return QuadraticElement._normal(a, b, d)

    @staticmethod
    def _normal(a: Fraction, b: Fraction, d: int) -> "QuadraticElement":
        """a + b sqrt(d) for a non-square d, b == 0 folded to a rational."""
        return QuadraticElement(a, b, d) if b else QuadraticElement(a, Fraction(0), 1)

    @staticmethod
    def from_rational(x) -> "QuadraticElement":
        return QuadraticElement.make(Fraction(x))

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def _key(self) -> tuple:
        return self.a, self.b * self.b * self.d, self.b > 0

    def __eq__(self, other):
        return isinstance(other, QuadraticElement) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def shares_field(self, other: "QuadraticElement") -> bool:
        """Both are irrational and lie in one field: d1 d2 is a positive square."""
        product = self.d * other.d
        return (not self.is_rational and not other.is_rational and product > 0
                and isqrt(product) ** 2 == product)

    def _check_field(self, other: "QuadraticElement"):
        """(d, b') with other = other.a + b' sqrt(d) and d self's d (other's
        when self is rational): sqrt(d2) = isqrt(d1 d2) / |d1| sqrt(d1)."""
        if self.is_rational or other.is_rational or self.d == other.d:
            return (other.d if self.is_rational else self.d), other.b
        if not self.shares_field(other):
            raise UnsupportedDegree(
                "mixed quadratic fields Q(sqrt(%d)) and Q(sqrt(%d))" % (self.d, other.d))
        return self.d, other.b * isqrt(self.d * other.d) / abs(self.d)

    def __add__(self, other):
        other = _coerce(other)
        d, b = self._check_field(other)
        return QuadraticElement._normal(self.a + other.a, self.b + b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticElement(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        d, b = self._check_field(other)
        return QuadraticElement._normal(self.a * other.a + d * self.b * b,
                                        self.a * b + self.b * other.a, d)

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
    return tuple(QuadraticElement.make(Fraction(-b, 2 * a), Fraction(sign, 2 * a), disc)
                 for sign in (1, -1))
