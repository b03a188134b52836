"""Logarithmic (Weil) heights from minimal polynomials, plus the empirical
height-growth probe C0 over power quotients.

h(gamma) = (1/d) (log|a_d| + sum_i log max(1, |gamma_i|)) over the conjugates.
Heights come back as certified intervals; compound values (alpha^n / beta^m)
are evaluated exactly in Q or a quadratic field and rejected beyond that.
A conjugate on the unit circle adds nothing to h.  The roots +-1 are exact
points, and a non-real root of a reciprocal polynomial is proved to lie on
the circle when its inversion and conjugation partners coincide; this covers
every root of unity but +-1, since an irreducible polynomial with a non-real
root on the circle is reciprocal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._roots import AlgebraicNumber, only_root_meeting
from .errors import UnsupportedDegree
from .independence import multiplicative_independence
from .intervals import (
    certainly_greater,
    certainly_le,
    ladder,
    midpoint_float,
    width_float,
)
from .quadratic import QuadraticElement, _integer_root

_HEIGHT_WIDTH = 2.0 ** -64      # log_height climbs the ladder until h is this narrow
_HEIGHT_START_BITS = 192


def _is_reciprocal(coeffs) -> bool:
    rev = tuple(reversed(coeffs))
    return coeffs == rev or coeffs == tuple(-c for c in rev)


def _unit_circle_exact(field, roots, idx) -> bool:
    """|root| = 1 exactly: for a reciprocal polynomial, the inversion partner
    of the root coincides with its conjugation partner."""
    box = roots[idx].box
    if box.contains_zero():
        return False
    j = only_root_meeting(field.box(1) / box, roots)
    return j is not None and j == only_root_meeting(box.conjugate(), roots)


def log_height(gamma: AlgebraicNumber):
    """Certified interval for h(gamma) in natural-log units, at most 2^-64 wide."""
    coeffs = gamma.min_poly
    d = gamma.degree
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
            elif reciprocal and not r.is_real and _unit_circle_exact(field, roots, idx):
                continue
            else:
                return None
        h = total / d
        return h if width_float(h) <= _HEIGHT_WIDTH else None

    return ladder(_HEIGHT_START_BITS, attempt, "height of %s not resolved at the precision cap"
                  % (gamma.label or gamma.min_poly,))


def _ratio_log_over(height_arg: int, k: int) -> float:
    """log(height_arg)/k, via the exact k-th root when one exists (0.0 at 1)."""
    root = _integer_root(height_arg, k)
    if root ** k == height_arg:
        return math.log(root)
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
        return math.log(max(abs(v.numerator), v.denominator))      # >= 1
    gamma = AlgebraicNumber.from_quadratic(value)
    return midpoint_float(log_height(gamma))


@dataclass(eq=False)
class HeightProbeResult:
    """Empirical witness C0 for the height-growth lemma (labelled empirical:
    it is the observed minimum over a finite grid, not a proved constant)."""

    c0_emp: float
    range_bound: int
    rows: tuple               # (n, m, height, ratio)
    argmin: tuple


def height_constant_probe(alpha: AlgebraicNumber, beta: AlgebraicNumber,
                          range_bound: int,
                          assume_independent: bool = False) -> HeightProbeResult:
    """Scan h(alpha^n/beta^m)/max(n,m) over the grid 1 <= n,m <= range_bound.

    c0_emp is the sampled minimum (a positive witness when the pair is
    multiplicatively independent).
    """
    if range_bound < 1:
        raise ValueError("range_bound must be >= 1")
    if not assume_independent:
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
    return HeightProbeResult(c0, range_bound, tuple(rows), argmin)
