"""Certified isolation of the roots of integer polynomials.

Factorisation into irreducibles is exact (sympy over ZZ).  Linear and
quadratic factors get exact roots; higher-degree factors start from sympy's
exact rational isolating rectangles and are refined with an interval Newton
step, which certifies that each final box contains exactly one root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from sympy import Poly, Rational, Symbol
from sympy import im as sym_im
from sympy import re as sym_re

from .intervals import (
    ComplexBox,
    IntervalField,
    contains_zero,
    intersect,
    is_interior,
    poly_eval_real,
    poly_eval_box,
    width_float,
)
from .quadratic import QuadraticElement, quadratic_roots

_X = Symbol("X")


@dataclass(eq=False)
class IsolatedRoot:
    box: ComplexBox
    is_real: bool
    min_poly: tuple            # primitive integer coeffs, highest first, leading > 0
    exact: QuadraticElement | None   # present when the factor has degree <= 2


def factor_integer_poly(coeffs) -> list:
    """Irreducible factors over Q with multiplicities: [(int coeffs, mult)]."""
    poly = Poly(list(coeffs), _X, domain="ZZ")
    _, factors = poly.factor_list()
    out = []
    for g, mult in factors:
        gc = [int(c) for c in g.all_coeffs()]
        if gc[0] < 0:
            gc = [-c for c in gc]
        out.append((tuple(gc), int(mult)))
    out.sort()
    return out


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


def isolate_factor_roots(field: IntervalField, coeffs, eps_bits=32, width_bits=None):
    """All roots of one irreducible integer polynomial, certified.

    Returns a list of IsolatedRoot or None when certification fails at this
    precision (caller refines).  Complex roots appear as conjugate pairs.
    """
    coeffs = [int(c) for c in coeffs]
    deg = len(coeffs) - 1
    if deg < 1:
        raise ValueError("constant polynomial has no roots")
    if width_bits is None:
        width_bits = max(32, field.prec // 2)
    target = 2.0 ** (-width_bits)
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
    eps = Rational(1, 2 ** eps_bits)
    real_parts, complex_parts = poly.intervals(all=True, eps=eps)
    roots = []
    for (lo, hi), _mult in real_parts:
        lo, hi = Fraction(int(lo.p), int(lo.q)), Fraction(int(hi.p), int(hi.q))
        if lo > hi:
            lo, hi = hi, lo
        refined = _newton_refine_real(field, coeffs, dcoeffs, lo, hi, target)
        if refined is None:
            return None
        roots.append(IsolatedRoot(field.box_from_intervals(refined, field.real(0)),
                                  True, min_poly, None))
    for (c1, c2), _mult in complex_parts:
        res = [Fraction(int(sym_re(c).p), int(sym_re(c).q)) for c in (c1, c2)]
        ims = [Fraction(int(sym_im(c).p), int(sym_im(c).q)) for c in (c1, c2)]
        box = field.box_from_intervals(
            field.from_endpoints(field.real(min(res)), field.real(max(res))),
            field.from_endpoints(field.real(min(ims)), field.real(max(ims))))
        refined = _newton_refine_box(field, coeffs, dcoeffs, box, target)
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
