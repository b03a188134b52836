"""Certified isolation of the roots of integer polynomials.

Factorisation into irreducibles is exact: content, discriminant and
``math.isqrt`` for degree <= 2, sympy over ZZ above.  Linear and quadratic
factors get exact roots.  A higher-degree factor starts from
isolating rectangles with exact rational corners, and an interval Newton
step refines each one and certifies that its final box holds exactly one
root.  The real roots start from sympy's real-only intervals at the eps the
caller asks for.

The non-real roots never meet sympy's complex isolation.  ``polyroots`` in
a private mpmath context, with precision and steps scaled to the size of the
roots, seeds each root above the real axis, in a rectangle at most half as
wide as its distance to the axis, and Newton certifies a box around each
seed.  (degree - real roots) / 2 disjoint boxes above the axis
hold every non-real root.  From 64-bit seeds, once per factor, each box fixes
the eps-rectangle that sympy's ``Poly.intervals(all=True, eps)`` would return,
because sympy's bisection splits every rectangle at its midpoint, so the
cell that holds a root depends only on where the root lies; Newton refines
that rectangle to the box the sympy call would have led to.  Where this
replay is uncertain (a box on a split line or on the real axis, as for the
roots of x^4 + 3x^2 + 1 on Re = 0, or another root's box touching the final
cell), the seeds are taken again at max(128, eps_bits) bits, so they climb
with the rung; their own boxes, refined to near the precision floor, and
the mirror images of those are the roots.  There is no other fallback and
no retry: Newton certifies every box.

Factorisations, seeds (per factor and bits) and rebuilt rectangles sit in
LRU caches of ``_CACHE_SIZE`` entries each.

Every root is an ``AlgebraicNumber``, the one record that the spectral,
heights, independence and Matveev layers share.

sympy is imported only inside the functions that handle degree >= 3, so a
process that meets only factors of degree <= 2 never loads it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, isqrt

from mpmath.ctx_mp import MPContext
from mpmath.libmp import to_rational

from .errors import PrecisionExhausted
from .intervals import (
    ComplexBox,
    IntervalField,
    contains_zero,
    interval_inf_fraction,
    interval_sup_fraction,
    intersect,
    is_interior,
    midpoint_float,
    poly_eval_real,
    poly_eval_box,
    width_float,
)
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
        return AlgebraicNumber(q.minimal_polynomial(), q.box(IntervalField(64)), True, q,
                               label or str(value))

    @staticmethod
    def from_quadratic(value: QuadraticElement, label="") -> "AlgebraicNumber":
        if value.is_rational:
            return AlgebraicNumber.from_rational(value.a, label)
        return AlgebraicNumber(value.minimal_polynomial(), value.box(IntervalField(128)),
                               value.d > 0, value, label)

    @staticmethod
    def from_min_poly(coeffs, root_index: int = 0, label="") -> "AlgebraicNumber":
        coeffs = tuple(int(c) for c in coeffs)
        factors = factor_integer_poly(coeffs)
        if len(factors) != 1 or factors[0][1] != 1 or len(factors[0][0]) != len(coeffs):
            raise ValueError("minimal polynomial must be irreducible over Q")
        roots = isolate_factor_roots(IntervalField(192), factors[0][0])
        if roots is None:
            raise PrecisionExhausted("cannot isolate the selected root")
        roots.sort(key=lambda r: (-midpoint_float(r.box.re), -midpoint_float(r.box.im)))
        return replace(roots[root_index], label=label)

    def conjugates(self, field: IntervalField):
        return isolate_factor_roots(field, self.min_poly)


def factor_integer_poly(coeffs) -> list:
    """Irreducible factors over Q with multiplicities: [(int coeffs, mult)]."""
    return list(_factor(tuple(int(c) for c in coeffs)))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _factor(coeffs: tuple) -> tuple:
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    if len(coeffs) <= 3:
        return _factor_low_degree(coeffs)
    from sympy import Poly, Symbol

    _, factors = Poly(list(coeffs), Symbol("X"), domain="ZZ").factor_list()
    out = []
    for g, mult in factors:
        gc = [int(c) for c in g.all_coeffs()]
        if gc[0] < 0:
            gc = [-c for c in gc]
        out.append((tuple(gc), int(mult)))
    return tuple(sorted(out))


def _primitive(coeffs) -> tuple:
    """coeffs over their content, leading coefficient made positive."""
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    if coeffs[0] < 0:
        g = -g
    return tuple(c // g for c in coeffs)


def _factor_low_degree(coeffs: tuple) -> tuple:
    """``_factor`` of a polynomial of degree <= 2 without sympy: a quadratic
    splits exactly when its discriminant is a perfect square."""
    if len(coeffs) <= 1:
        return ()
    coeffs = _primitive(coeffs)
    if len(coeffs) == 2:
        return ((coeffs, 1),)
    a, b, c = coeffs
    disc = b * b - 4 * a * c
    root = isqrt(disc) if disc >= 0 else -1
    if root * root != disc:
        return ((coeffs, 1),)
    linear = [_primitive((2 * a, b - s)) for s in (root, -root)]
    if disc == 0:
        return ((linear[0], 2),)
    return tuple(sorted((f, 1) for f in linear))


def _fraction(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


def _sympy_intervals(coeffs, eps_bits):
    """Sympy's real isolating intervals at eps, corners left as QQ numbers."""
    from sympy import QQ, Poly, Symbol

    return Poly(list(coeffs), Symbol("X"), domain="ZZ").rep.intervals(eps=QQ(1, 2 ** eps_bits))


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


def _sympy_cell(root, others, bound, eps):
    """The cell in which sympy's bisection stops for ``root``; None if uncertain.

    Sympy halves [-B, B] x [0, B] at the midpoint, vertically when the cell
    is wider than tall, and keeps the first cell narrower than eps both ways
    that holds one root.  Every box is (re_lo, re_hi, im_lo, im_hi).
    """
    re_lo, re_hi, im_lo, im_hi = root
    if im_lo <= 0:
        return None
    u, v, w, h = -bound, Fraction(0), 2 * bound, bound     # south-west corner, size
    while True:
        if w > h:
            w /= 2
            mid = u + w
            if re_lo > mid:
                u = mid
            elif re_hi >= mid:
                return None
        else:
            h /= 2
            mid = v + h
            if im_lo > mid:
                v = mid
            elif im_hi >= mid:
                return None
        if w < eps and h < eps:
            s, t = u + w, v + h
            shared = False
            for o in others:
                if o is root or o[1] < u or o[0] > s or o[3] < v or o[2] > t:
                    continue
                if not (u < o[0] and o[1] < s and v < o[2] and o[3] < t):
                    return None
                shared = True
            if not shared:
                return None if v == 0 else (u, s, v, t)


def _seed_boxes(coeffs, pairs, bits, field, target):
    """Certified Newton boxes of width <= target around the seeds at ``bits``
    bits, ordered by the (re, im) of the seed; None unless there are ``pairs`` of them, all above
    the real axis and no two meeting."""
    seeds = _seed_rectangles(tuple(coeffs), bits)
    if len(seeds) != pairs:
        return None
    boxes = [_newton_refine_box(coeffs, _derivative(coeffs), _rect_box(field, rect), target)
             for rect in sorted(seeds, key=lambda r: (r[0] + r[1], r[2] + r[3]))]
    if None in boxes or not all(b.im.a > 0 for b in boxes) or not all(
            a.is_disjoint_from(b) for a, b in itertools.combinations(boxes, 2)):
        return None
    return boxes


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _rebuilt_rectangles(coeffs: tuple, eps_bits, pairs):
    """Sympy's eps-rectangles of the non-real roots, rebuilt from certified Newton
    boxes around the seeds of the ``pairs`` roots above the real axis, in
    sympy's order; None when uncertain.  The boxes need only be far narrower
    than eps, so Newton runs at 2 eps_bits + 32 bits, once per (factor, eps)."""
    certified = _seed_boxes(coeffs, pairs, 64, IntervalField(2 * eps_bits + 32),
                            2.0 ** -(eps_bits + 16))
    if certified is None:
        return None
    boxes = [(interval_inf_fraction(b.re), interval_sup_fraction(b.re),
              interval_inf_fraction(b.im), interval_sup_fraction(b.im)) for b in certified]
    others = boxes + [(a, b, -d, -c) for a, b, c, d in boxes]
    bound = 2 * max(Fraction(abs(c), abs(coeffs[0])) for c in coeffs)
    eps = Fraction(1, 2 ** eps_bits)
    cells = [_sympy_cell(root, others, bound, eps) for root in boxes]
    if None in cells:
        return None
    rects = []
    for u, s, v, t in sorted(cells, key=lambda c: (c[0], c[2])):
        rects += [(u, s, -t, -v), (u, s, v, t)]
    return tuple(rects)


def _derivative(coeffs):
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def _newton_refine_real(field, coeffs, dcoeffs, lo, hi, target):
    """Certified refinement of a real isolating interval; None if not certified."""
    X = field.from_endpoints(field.real(lo), field.real(hi))
    certified = False
    for _ in range(64):
        fp = poly_eval_real(field, dcoeffs, X)
        if contains_zero(fp):
            return None
        mid = +X.mid
        fm = poly_eval_real(field, coeffs, mid)
        N = mid - fm / fp
        if N.b < X.a or X.b < N.a:
            return None
        if is_interior(N, X):
            certified = True
        X = intersect(field, N, X)
        if certified and width_float(X) <= target:
            return X
    return X if certified else None


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


def isolate_factor_roots(field: IntervalField, coeffs, eps_bits=32):
    """All roots of one irreducible integer polynomial, certified.

    Each box is refined from its eps-rectangle (eps = 2^-eps_bits) or seed
    to a width of at most 2^-max(32, field.prec // 2).  Returns a list of
    AlgebraicNumber or None when certification fails at this precision
    (caller refines).  Complex roots appear as conjugate pairs.
    """
    coeffs = [int(c) for c in coeffs]
    deg = len(coeffs) - 1
    if deg < 1:
        raise ValueError("constant polynomial has no roots")
    target = 2.0 ** (-max(32, field.prec // 2))
    min_poly = tuple(coeffs if coeffs[0] > 0 else [-c for c in coeffs])

    if deg == 1:
        value = QuadraticElement.from_rational(Fraction(-coeffs[1], coeffs[0]))
        return [AlgebraicNumber(min_poly, value.box(field), True, value)]
    if deg == 2:
        return [AlgebraicNumber(min_poly, val.box(field), val.d > 0 or val.is_rational, val)
                for val in quadratic_roots(*coeffs)]

    dcoeffs = _derivative(coeffs)
    roots = []
    for (lo, hi), _mult in _sympy_intervals(coeffs, eps_bits):
        lo, hi = sorted((_fraction(lo), _fraction(hi)))
        refined = _newton_refine_real(field, coeffs, dcoeffs, lo, hi, target)
        if refined is None:
            return None
        roots.append(AlgebraicNumber(min_poly, field.box_from_intervals(refined, field.real(0)),
                                     True))
    if len(roots) < deg:
        pairs = (deg - len(roots)) // 2
        rects = _rebuilt_rectangles(tuple(coeffs), eps_bits, pairs)
        if rects is None:       # the seeds at the rung's bits, refined near its floor
            upper = _seed_boxes(coeffs, pairs, max(128, eps_bits), field, 2.0 ** (32 - field.prec))
            boxes = None if upper is None else [b for u in upper for b in (u.conjugate(), u)]
        else:
            boxes = [_newton_refine_box(coeffs, dcoeffs, _rect_box(field, rect), target)
                     for rect in rects]
        if boxes is None or None in boxes:
            return None
        roots += [AlgebraicNumber(min_poly, box, False) for box in boxes]
    return roots


def all_pairwise_disjoint(roots) -> bool:
    return all(a.box.is_disjoint_from(b.box) for a, b in itertools.combinations(roots, 2))
