"""Certified isolation of the roots of integer polynomials.

Factorisation into irreducibles is exact (sympy over ZZ).  Linear and
quadratic factors get exact roots.  A higher-degree factor starts from
isolating rectangles with exact rational corners, and an interval Newton
step refines each one and certifies that its final box holds exactly one
root.  The real roots start from sympy's real-only intervals at the eps the
caller asks for.

The non-real roots start from the rectangles that sympy's
``Poly.intervals(all=True, eps)`` would return, without paying for its
bisection at a fine eps.  Each factor is isolated once per process at the
coarse eps 2^-8.  Newton takes each coarse rectangle to a certified box at
the field's precision, and the box fixes sympy's eps-rectangle, because
sympy's bisection splits every rectangle at its midpoint, so the cell that
holds a root depends only on where the root lies.  A second Newton step
refines that rectangle, so each box is the one the fine sympy call would
have led to.  Whenever the rebuild is uncertain (a coarse Newton step fails,
a box meets a split line, another root's box touches the final cell, or
that cell lies on the real axis), the fine sympy call runs instead.
Correctness never rests on the rebuild: the final Newton step certifies
each box.

Factorisations and coarse isolations are kept in LRU caches of
``_CACHE_SIZE`` polynomials each.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from sympy import Poly, Rational, Symbol
from sympy import im as sym_im
from sympy import re as sym_re

from .intervals import (
    ComplexBox,
    IntervalField,
    contains_zero,
    interval_inf_fraction,
    interval_sup_fraction,
    intersect,
    is_interior,
    poly_eval_real,
    poly_eval_box,
    width_float,
)
from .quadratic import QuadraticElement, quadratic_roots

_X = Symbol("X")
_CACHE_SIZE = 256          # polynomials kept by each cache; least recently used go first
_COARSE_EPS_BITS = 8


@dataclass(eq=False)
class IsolatedRoot:
    box: ComplexBox
    is_real: bool
    min_poly: tuple            # primitive integer coeffs, highest first, leading > 0
    exact: QuadraticElement | None   # present when the factor has degree <= 2


def factor_integer_poly(coeffs) -> list:
    """Irreducible factors over Q with multiplicities: [(int coeffs, mult)]."""
    return list(_factor(tuple(int(c) for c in coeffs)))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _factor(coeffs: tuple) -> tuple:
    _, factors = Poly(list(coeffs), _X, domain="ZZ").factor_list()
    out = []
    for g, mult in factors:
        gc = [int(c) for c in g.all_coeffs()]
        if gc[0] < 0:
            gc = [-c for c in gc]
        out.append((tuple(gc), int(mult)))
    return tuple(sorted(out))


def _fraction(q) -> Fraction:
    return Fraction(int(q.p), int(q.q))


def _sympy_rectangles(coeffs, eps_bits) -> list:
    """Sympy's eps-rectangles of the non-real roots as (re_lo, re_hi, im_lo, im_hi)."""
    poly = Poly(list(coeffs), _X, domain="ZZ")
    _, complex_parts = poly.intervals(all=True, eps=Rational(1, 2 ** eps_bits))
    rects = []
    for (c1, c2), _mult in complex_parts:
        res = [_fraction(sym_re(c)) for c in (c1, c2)]
        ims = [_fraction(sym_im(c)) for c in (c1, c2)]
        rects.append((min(res), max(res), min(ims), max(ims)))
    return rects


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _coarse_rectangles(coeffs: tuple) -> tuple:
    """Coarse sympy rectangles of the roots above the real axis, once per factor."""
    return tuple(r for r in _sympy_rectangles(coeffs, _COARSE_EPS_BITS) if r[3] > 0)


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
    u, s, v, t = -bound, bound, Fraction(0), bound
    while True:
        if s - u > t - v:
            mid = (u + s) / 2
            if re_hi < mid:
                s = mid
            elif re_lo > mid:
                u = mid
            else:
                return None
        else:
            mid = (v + t) / 2
            if im_hi < mid:
                t = mid
            elif im_lo > mid:
                v = mid
            else:
                return None
        if s - u < eps and t - v < eps:
            shared = False
            for o in others:
                if o is root or o[1] < u or o[0] > s or o[3] < v or o[2] > t:
                    continue
                if not (u < o[0] and o[1] < s and v < o[2] and o[3] < t):
                    return None
                shared = True
            if not shared:
                return None if v == 0 else (u, s, v, t)


def _rebuilt_rectangles(field, coeffs, dcoeffs, eps_bits, target):
    """``_sympy_rectangles(coeffs, eps_bits)`` rebuilt from certified Newton
    boxes of the coarse rectangles, in sympy's order; None when uncertain."""
    boxes = []
    for rect in _coarse_rectangles(tuple(coeffs)):
        box = _newton_refine_box(field, coeffs, dcoeffs, _rect_box(field, rect), target)
        if box is None:
            return None
        boxes.append((interval_inf_fraction(box.re), interval_sup_fraction(box.re),
                      interval_inf_fraction(box.im), interval_sup_fraction(box.im)))
    others = boxes + [(a, b, -d, -c) for a, b, c, d in boxes]
    bound = 2 * max(Fraction(abs(c), abs(coeffs[0])) for c in coeffs)
    eps = Fraction(1, 2 ** eps_bits)
    cells = []
    for root in boxes:
        cell = _sympy_cell(root, others, bound, eps)
        if cell is None:
            return None
        cells.append(cell)
    rects = []
    for u, s, v, t in sorted(cells, key=lambda c: (c[0], c[2])):
        rects += [(u, s, -t, -v), (u, s, v, t)]
    return rects


def _derivative(coeffs):
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def _newton_refine_real(field, coeffs, dcoeffs, lo, hi, target, rounds=64):
    """Certified refinement of a real isolating interval; None if not certified."""
    X = field.from_endpoints(field.real(lo), field.real(hi))
    certified = False
    for _ in range(rounds):
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


def _newton_refine_box(field, coeffs, dcoeffs, box, target, rounds=64):
    certified = False
    for _ in range(rounds):
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

    Each box is refined from its eps-rectangle (eps = 2^-eps_bits) to a
    width of at most 2^-max(32, field.prec // 2).  Returns a list of
    IsolatedRoot or None when certification fails at this precision (caller
    refines).  Complex roots appear as conjugate pairs.
    """
    coeffs = [int(c) for c in coeffs]
    deg = len(coeffs) - 1
    if deg < 1:
        raise ValueError("constant polynomial has no roots")
    target = 2.0 ** (-max(32, field.prec // 2))
    min_poly = tuple(coeffs if coeffs[0] > 0 else [-c for c in coeffs])

    if deg == 1:
        value = QuadraticElement.from_rational(Fraction(-coeffs[1], coeffs[0]))
        return [IsolatedRoot(value.box(field), True, min_poly, value)]
    if deg == 2:
        plus, minus = quadratic_roots(*coeffs)
        roots = []
        for val in (plus, minus):
            roots.append(IsolatedRoot(val.box(field), val.d > 0 or val.is_rational,
                                      min_poly, val))
        return roots

    dcoeffs = _derivative(coeffs)
    poly = Poly(coeffs, _X, domain="ZZ")
    roots = []
    for (lo, hi), _mult in poly.intervals(eps=Rational(1, 2 ** eps_bits)):
        lo, hi = _fraction(lo), _fraction(hi)
        if lo > hi:
            lo, hi = hi, lo
        refined = _newton_refine_real(field, coeffs, dcoeffs, lo, hi, target)
        if refined is None:
            return None
        roots.append(IsolatedRoot(field.box_from_intervals(refined, field.real(0)),
                                  True, min_poly, None))
    if len(roots) < deg:
        rects = _rebuilt_rectangles(field, coeffs, dcoeffs, eps_bits, target)
        if rects is None:
            rects = _sympy_rectangles(coeffs, eps_bits)
        for rect in rects:
            refined = _newton_refine_box(field, coeffs, dcoeffs, _rect_box(field, rect),
                                         target)
            if refined is None:
                return None
            roots.append(IsolatedRoot(refined, False, min_poly, None))
    if len(roots) != deg:
        return None
    return roots


def all_pairwise_disjoint(roots) -> bool:
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if not roots[i].box.is_disjoint_from(roots[j].box):
                return False
    return True
