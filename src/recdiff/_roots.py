"""Certified isolation of the roots of integer polynomials.

Factorisation into irreducibles is exact integer code, one path for every
degree: Yun's square-free split and big-prime Berlekamp–Zassenhaus from
``_zpoly``.  Linear and quadratic factors get exact roots.  A higher-degree
factor starts from isolating regions with exact rational corners, and one
interval Newton step, ``_newton_refine_box``, refines each one and certifies
that its final box holds exactly one root.  The precision rung sets eps =
2^-eps_bits, eps_bits = max(32, min(prec // 4, 256)), and the real roots
start from the intervals at eps of ``_zpoly.real_root_intervals``, a port of
sympy 1.14's real-only VAS isolation that gives sympy's intervals exactly,
as boxes on the real axis, where ``ComplexBox`` makes Newton the real
interval Newton method.

The non-real roots come from ``polyroots`` in
a private mpmath context at max(128, eps_bits) bits, with precision and
steps scaled to the size of the roots, seeds each root above the real axis,
in a rectangle at most half as wide as its distance to the axis, and Newton
refines a box around each seed to a width of 2^-(prec - 32).  The seeds
climb with the rung.  (degree - real roots) / 2 disjoint boxes above the
axis hold every non-real root, also those on Re = 0, as for x^4 + 3x^2 + 1,
and their mirror images are the roots below it.  There is no other path and
no retry: Newton certifies every box.

Factorisations and seeds (per factor and bits) sit in LRU caches of
``_CACHE_SIZE`` entries each.

Every root is an ``AlgebraicNumber``, the one record that the spectral,
heights, independence and Matveev layers share.  Nothing here loads sympy.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

from mpmath.ctx_mp import MPContext
from mpmath.libmp import to_rational

from .intervals import (
    ComplexBox,
    IntervalField,
    _field_at,
    ladder,
    midpoint_float,
    poly_eval_box,
)
from ._zpoly import derivative as _derivative
from ._zpoly import factor_square_free, real_root_intervals, square_free, strip
from .quadratic import QuadraticElement, quadratic_roots

_CACHE_SIZE = 256          # polynomials kept by each cache; least recently used go first


@dataclass(eq=False)
class AlgebraicNumber:
    """An algebraic number: its minimal polynomial and a certified box that
    holds it and no other root of that polynomial (``from_min_poly`` checks
    irreducibility by exact factorisation)."""

    min_poly: tuple            # primitive integer coeffs, highest first, leading > 0
    box: ComplexBox
    is_real: bool
    exact: QuadraticElement | None = None   # present when the degree is <= 2
    label: str = ""
    multiplicity: int = 1      # as a root of a characteristic polynomial

    @property
    def degree(self) -> int:
        return len(self.min_poly) - 1

    def modulus(self):
        return self.box.modulus()

    def exact_modulus_squared(self) -> Fraction | None:
        """|value|^2 when it is exactly known as a rational, else None."""
        v = self.exact
        if v is None:
            return None
        if v.is_rational:
            return v.a * v.a
        if v.d < 0:
            return v.norm()     # complex conjugate equals field conjugate
        if v.a == 0:
            return v.d * v.b * v.b
        return None

    @staticmethod
    def from_rational(value, label="") -> "AlgebraicNumber":
        value = Fraction(value)
        q = QuadraticElement.from_rational(value)
        return AlgebraicNumber(q.minimal_polynomial(), q.box(_field_at(64)), True, q,
                               label or str(value))

    @staticmethod
    def from_quadratic(value: QuadraticElement, label="") -> "AlgebraicNumber":
        if value.is_rational:
            return AlgebraicNumber.from_rational(value.a, label)
        return AlgebraicNumber(value.minimal_polynomial(), value.box(_field_at(128)),
                               value.d > 0, value, label)

    @staticmethod
    def from_min_poly(coeffs, root_index: int = 0, label="") -> "AlgebraicNumber":
        coeffs = tuple(int(c) for c in coeffs)
        factors = factor_integer_poly(coeffs)
        if len(factors) != 1 or factors[0][1] != 1 or len(factors[0][0]) != len(coeffs):
            raise ValueError("minimal polynomial must be irreducible over Q")
        roots = ladder(192, lambda field: isolate_factor_roots(field, factors[0][0]),
                       "cannot isolate the selected root")
        roots.sort(key=lambda r: (-midpoint_float(r.box.re), -midpoint_float(r.box.im)))
        return replace(roots[root_index], label=label)

    def conjugates(self, field: IntervalField):
        return isolate_factor_roots(field, self.min_poly)


def factor_integer_poly(coeffs) -> list:
    """Irreducible factors over Q with multiplicities: [(int coeffs, mult)]."""
    return list(_factor(tuple(int(c) for c in coeffs)))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _factor(coeffs: tuple) -> tuple:
    coeffs = strip(coeffs)
    if len(coeffs) <= 1:
        return ()
    return tuple(sorted((g, mult) for part, mult in square_free(coeffs)
                        for g in factor_square_free(part)))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _seed_rectangles(coeffs: tuple, bits: int) -> tuple:
    """Rectangles around the ``polyroots`` seeds at ``bits`` bits of the roots
    above the real axis, each seed converted exactly; () when it does not
    converge.  Its stop test is absolute, so with 2^-(L+1) < |root| < 2^(L+1)
    it runs 2L bits finer, 2L bits further and 2L steps longer.  A half-width
    of 2^-20 max(|Re z|, Im z), cut to half the distance to the axis, scales
    with the root and keeps each rectangle off the axis."""
    size = max(map(abs, coeffs)).bit_length()      # L above, by Cauchy's bound
    ctx = MPContext()
    ctx.prec = bits + 2 * size
    try:
        roots = ctx.polyroots(coeffs, maxsteps=50 + 2 * size, extraprec=10 + 2 * size)
    except ctx.NoConvergence:
        return ()
    rects = []
    for z in roots:
        if z.imag > 0:
            re, im = (Fraction(*to_rational(part._mpf_)) for part in (z.real, z.imag))
            h = min(max(abs(re), im) / 2 ** 20, im / 2)
            rects.append((re - h, re + h, im - h, im + h))
    return tuple(rects)


def _rect_box(field, rect) -> ComplexBox:
    re_lo, re_hi, im_lo, im_hi = rect
    return field.box_from_intervals(
        field.from_endpoints(field.real(re_lo), field.real(re_hi)),
        field.from_endpoints(field.real(im_lo), field.real(im_hi)))


def _seed_boxes(coeffs, pairs, bits, field):
    """Certified Newton boxes of width <= 2^-(field.prec - 32) around the seeds
    at ``bits`` bits, in the (re, im) order of the seeds; None unless there are
    ``pairs`` of them, all above the real axis and no two meeting."""
    seeds = _seed_rectangles(tuple(coeffs), bits)
    if len(seeds) != pairs:
        return None
    dcoeffs, target = _derivative(coeffs), 2.0 ** (32 - field.prec)
    boxes = [_newton_refine_box(coeffs, dcoeffs, _rect_box(field, rect), target)
             for rect in sorted(seeds, key=lambda r: (r[0] + r[1], r[2] + r[3]))]
    if None in boxes or not all(b.im.a > 0 for b in boxes) or not all(
            a.is_disjoint_from(b) for a, b in itertools.combinations(boxes, 2)):
        return None
    return boxes


def _newton_refine_box(coeffs, dcoeffs, box, target):
    certified = False
    for _ in range(64):
        fp = poly_eval_box(dcoeffs, box)
        if fp.contains_zero():
            return None
        mid = box.midpoint_box()
        fm = poly_eval_box(coeffs, mid)
        N = mid - fm / fp
        if N.is_disjoint_from(box):
            return None
        if N.is_interior_of(box):
            certified = True
        box = N.intersect(box)
        if certified and box.width_float() <= target:
            return box
    return box if certified else None


def isolate_factor_roots(field: IntervalField, coeffs):
    """All roots of one irreducible integer polynomial, certified.

    The rung sets eps = 2^-eps_bits, eps_bits = max(32, min(field.prec // 4,
    256)).  One Newton, ``_newton_refine_box``, refines the real and the
    non-real boxes: each real root from its eps-interval, a box on the real
    axis, to a width of at most 2^-max(32, field.prec // 2); the non-real
    roots above the axis from the seed boxes at max(128, eps_bits) bits, and
    their mirror images are the roots below it.  Returns a list of
    AlgebraicNumber or None when certification fails at this precision
    (caller refines).  Complex roots appear as conjugate pairs.
    """
    coeffs = [int(c) for c in coeffs]
    deg = len(coeffs) - 1
    if deg < 1:
        raise ValueError("constant polynomial has no roots")
    min_poly = tuple(coeffs if coeffs[0] > 0 else [-c for c in coeffs])

    if deg == 1:
        value = QuadraticElement.from_rational(Fraction(-coeffs[1], coeffs[0]))
        return [AlgebraicNumber(min_poly, value.box(field), True, value)]
    if deg == 2:
        return [AlgebraicNumber(min_poly, val.box(field), val.d > 0 or val.is_rational, val)
                for val in quadratic_roots(*coeffs)]

    eps_bits = max(32, min(field.prec // 4, 256))
    target = 2.0 ** (-max(32, field.prec // 2))
    dcoeffs = _derivative(coeffs)
    roots = []
    for lo, hi in real_root_intervals(coeffs, eps_bits):
        box = _newton_refine_box(coeffs, dcoeffs, _rect_box(field, (lo, hi, 0, 0)), target)
        if box is None:
            return None
        roots.append(AlgebraicNumber(min_poly, box, True))
    if len(roots) < deg:
        upper = _seed_boxes(coeffs, (deg - len(roots)) // 2, max(128, eps_bits), field)
        if upper is None:
            return None
        roots += [AlgebraicNumber(min_poly, box, False)
                  for u in upper for box in (u.conjugate(), u)]
    return roots


def only_root_meeting(box: ComplexBox, roots):
    """The index of the one root of ``roots`` whose box meets ``box``; None
    when no root's box or more than one meets it."""
    hits = [j for j, r in enumerate(roots) if not box.is_disjoint_from(r.box)]
    return hits[0] if len(hits) == 1 else None


def all_pairwise_disjoint(roots) -> bool:
    return all(a.box.is_disjoint_from(b.box) for a, b in itertools.combinations(roots, 2))
