"""Logarithmic (Weil) heights from minimal polynomials, plus the empirical
height-constant probe over power quotients.

h(gamma) = (1/d) (log|a_d| + sum_i log max(1, |gamma_i|)) over the conjugates.
Heights come back as certified intervals; compound values (alpha^n / beta^m)
are evaluated exactly in Q or a quadratic field and rejected beyond that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from sympy import Poly, Symbol, integer_nthroot

from ._roots import factor_integer_poly, isolate_factor_roots
from .errors import PrecisionExhausted, UnsupportedDegree
from .intervals import (
    IntervalField,
    certainly_greater,
    certainly_le,
    ladder,
    midpoint_float,
    width_float,
)
from .quadratic import QuadraticElement

_X = Symbol("X")


@dataclass(eq=False)
class AlgebraicNumber:
    """An algebraic number given by its primitive minimal polynomial and a
    selected root enclosure.  Irreducibility is verified by exact
    factorisation at construction time.
    """

    min_poly: tuple
    root_box: object          # ComplexBox enclosing the selected root
    degree: int
    exact: QuadraticElement | None = None
    label: str = ""

    @staticmethod
    def from_rational(value, label="") -> "AlgebraicNumber":
        value = Fraction(value)
        q = QuadraticElement.from_rational(value)
        field = IntervalField(64)
        return AlgebraicNumber(q.minimal_polynomial(), q.box(field), 1, q,
                               label or str(value))

    @staticmethod
    def from_integer(value, label="") -> "AlgebraicNumber":
        return AlgebraicNumber.from_rational(Fraction(value), label)

    @staticmethod
    def from_quadratic(value: QuadraticElement, label="") -> "AlgebraicNumber":
        if value.is_rational:
            return AlgebraicNumber.from_rational(value.a, label)
        field = IntervalField(128)
        return AlgebraicNumber(value.minimal_polynomial(), value.box(field), 2,
                               value, label)

    @staticmethod
    def from_min_poly(coeffs, root_index: int = 0, label="") -> "AlgebraicNumber":
        coeffs = tuple(int(c) for c in coeffs)
        factors = factor_integer_poly(coeffs)
        if len(factors) != 1 or factors[0][1] != 1 or len(factors[0][0]) != len(coeffs):
            raise ValueError("minimal polynomial must be irreducible over Q")
        coeffs = factors[0][0]
        field = IntervalField(192)
        roots = isolate_factor_roots(field, coeffs)
        if roots is None:
            raise PrecisionExhausted("cannot isolate the selected root")
        roots.sort(key=lambda r: (-midpoint_float(r.box.re), -midpoint_float(r.box.im)))
        picked = roots[root_index]
        return AlgebraicNumber(coeffs, picked.box, len(coeffs) - 1, picked.exact, label)

    def conjugates(self, field: IntervalField):
        return isolate_factor_roots(field, self.min_poly)


def _is_reciprocal(coeffs) -> bool:
    rev = tuple(reversed(coeffs))
    return coeffs == rev or coeffs == tuple(-c for c in rev)


def _is_cyclotomic(coeffs) -> bool:
    return bool(Poly(list(coeffs), _X).is_cyclotomic)


def _unit_circle_exact(field, roots, idx) -> bool:
    """|root| = 1 exactly: for a reciprocal polynomial, the inversion partner
    of the root coincides with its conjugation partner."""
    box = roots[idx].box
    if box.contains_zero():
        return False
    inv = field.box(1) / box
    conj = box.conjugate()
    inv_hits = [j for j, r in enumerate(roots) if not inv.is_disjoint_from(r.box)]
    conj_hits = [j for j, r in enumerate(roots) if not conj.is_disjoint_from(r.box)]
    return len(inv_hits) == 1 and len(conj_hits) == 1 and inv_hits[0] == conj_hits[0]


def log_height(gamma: AlgebraicNumber, target_width: float = 2.0 ** -64,
               start_bits: int = 192):
    """Certified interval for h(gamma) in natural-log units."""
    coeffs = gamma.min_poly
    d = gamma.degree
    cyclotomic = _is_cyclotomic(coeffs)
    reciprocal = _is_reciprocal(coeffs)

    def attempt(field):
        roots = gamma.conjugates(field)
        if roots is None:
            return None
        total = field.log(field.real(abs(coeffs[0])))
        for idx, r in enumerate(roots):
            m = r.box.modulus()
            if certainly_greater(m, field.real(1)):
                total = total + field.log(m)
            elif certainly_le(m, field.real(1)):
                continue            # max term is exactly 0
            elif cyclotomic:
                continue            # all conjugates on the unit circle
            elif reciprocal and not r.is_real and _unit_circle_exact(field, roots, idx):
                continue
            else:
                return None
        h = total / d
        return h if width_float(h) <= target_width else None

    return ladder(start_bits, attempt, "height of %s not resolved at the precision cap"
                  % (gamma.label or gamma.min_poly,))


def rational_quotient_height(p_value, q_value) -> float:
    """Exact h(p/q) = log max(|num|, den) after full reduction."""
    q_value = Fraction(q_value)
    if q_value == 0:
        raise ZeroDivisionError("q(m) evaluated to zero")
    value = Fraction(p_value) / q_value
    return _log_int(max(abs(value.numerator), value.denominator))


def _log_int(n: int) -> float:
    if n <= 1:
        return 0.0
    return math.log(n)


def _ratio_log_over(height_arg: int, k: int) -> float:
    """log(height_arg)/k, via the exact k-th root when one exists."""
    if height_arg <= 1:
        return 0.0
    root, is_exact = integer_nthroot(height_arg, k)
    if is_exact:
        return math.log(int(root))
    return math.log(height_arg) / k


def exact_power_quotient(alpha: AlgebraicNumber, beta: AlgebraicNumber,
                         n: int, m: int) -> QuadraticElement:
    """alpha^n / beta^m exactly; UnsupportedDegree outside Q and quadratic fields."""
    if alpha.exact is None or beta.exact is None:
        raise UnsupportedDegree(
            "exact compound heights need degree <= 2 inputs")
    return (alpha.exact ** n) / (beta.exact ** m)     # raises on mixed fields


def compound_height(value: QuadraticElement) -> float:
    """h of an exact rational or quadratic value, as a float."""
    if value.is_rational:
        v = value.a
        return _log_int(max(abs(v.numerator), v.denominator))
    gamma = AlgebraicNumber.from_quadratic(value)
    return midpoint_float(log_height(gamma))


@dataclass(eq=False)
class HeightProbeResult:
    """Empirical witnesses for the two height lemmas (labelled empirical:
    these are observed extrema over a finite grid, not proved constants)."""

    c0_emp: float
    c_emp: float | None
    range_bound: int
    rows: tuple               # (n, m, height, ratio)
    argmin: tuple


def height_constant_probe(alpha: AlgebraicNumber, beta: AlgebraicNumber,
                          range_bound: int, p_poly=None, q_poly=None,
                          assume_independent: bool = False) -> HeightProbeResult:
    """Scan h(alpha^n/beta^m)/max(n,m) over the grid 1 <= n,m <= range_bound.

    c0_emp is the sampled minimum (a positive witness when the pair is
    multiplicatively independent).  When rational coefficient polynomials
    p, q are supplied, c_emp is the sampled maximum of
    h(p(n)/q(m)) / log max(n,m) over n,m >= 2.
    """
    if range_bound < 1:
        raise ValueError("range_bound must be >= 1")
    if not assume_independent:
        from .independence import multiplicative_independence
        verdict = multiplicative_independence(alpha, beta)
        if verdict.status == "dependent":
            raise ValueError(
                "probe requires multiplicatively independent inputs; "
                "found relation alpha^%d = beta^%d" % (verdict.n, verdict.m))
    rows = []
    c0, argmin = None, None
    for n in range(1, range_bound + 1):
        for m in range(1, range_bound + 1):
            value = exact_power_quotient(alpha, beta, n, m)
            k = max(n, m)
            if value.is_rational:
                v = value.a
                height_arg = max(abs(v.numerator), v.denominator)
                ratio = _ratio_log_over(height_arg, k)
                h = ratio * k
            else:
                h = compound_height(value)
                ratio = h / k
            rows.append((n, m, h, ratio))
            if c0 is None or ratio < c0:
                c0, argmin = ratio, (n, m)
    c_emp = None
    if p_poly is not None and q_poly is not None and range_bound >= 2:
        c_emp = 0.0
        for n in range(2, range_bound + 1):
            for m in range(2, range_bound + 1):
                h = rational_quotient_height(_poly_at(p_poly, n), _poly_at(q_poly, m))
                c_emp = max(c_emp, h / math.log(max(n, m)))
    return HeightProbeResult(c0, c_emp, range_bound, tuple(rows), argmin)


def _poly_at(coeffs, n):
    """Evaluate a rational-coefficient polynomial (low degree first) at n."""
    acc = Fraction(0)
    for c in reversed(list(coeffs)):
        acc = acc * n + Fraction(c)
    return acc
