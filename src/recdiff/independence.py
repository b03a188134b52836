"""Multiplicative independence certificates for algebraic numbers of degree <= 2.

The decision procedure layers exact arguments:

1. bounded exact search for a relation alpha^n = beta^m;
2. a continued-fraction candidate from the modulus ratio (catches relations
   with one large exponent), verified exactly;
3. obstructions: the prime-factorisation argument over Q, and the field-norm
   argument in quadratic fields (any relation forces the norm exponent
   vectors onto a lattice whose generator must be a root of unity - testable
   exactly because quadratic fields contain only 12th roots of unity).

In degree > 2 only one case is decided: two boxes of the same root of one
minimal polynomial give alpha^1 = beta^1.  Other degree > 2 inputs, and the
one genuinely degenerate quadratic configuration (two same-field units with
no small relation), come back Unknown; the procedure never returns a false
Independent or Dependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._roots import AlgebraicNumber
from .errors import UnsupportedDegree
from .intervals import (
    IntervalField,
    certainly_greater,
    interval_inf_fraction,
    interval_sup_fraction,
    ladder,
)
from .quadratic import QuadraticElement, factor_integer


_CONJUGATE_BITS = 192       # precision of the conjugate boxes in _same_root


@dataclass(frozen=True)
class IndependenceResult:
    status: str               # "independent" | "dependent" | "unknown"
    n: int | None = None      # a verified relation alpha^n = beta^m when dependent
    m: int | None = None
    certificate: str = ""

    @property
    def is_independent(self):
        return self.status == "independent"


def _certified_modulus_gt_one(value: QuadraticElement) -> bool:
    def attempt(field):
        m = value.box(field).modulus()
        if certainly_greater(m, field.real(1)):
            return True
        if bool(m.b <= 1):
            return False
        return None

    return ladder(64, attempt, "modulus comparison against 1 undecided", cap=512)


def _prime_vector(x: Fraction) -> dict:
    vec = {}
    for p, e in factor_integer(abs(x.numerator)).items():
        vec[p] = vec.get(p, 0) + e
    for p, e in factor_integer(x.denominator).items():
        vec[p] = vec.get(p, 0) - e
    return {p: e for p, e in vec.items() if e != 0}


def _same_root(alpha: AlgebraicNumber, beta: AlgebraicNumber) -> bool:
    """Certified alpha == beta for two roots of one minimal polynomial.

    Overlapping boxes alone prove nothing, since two isolating boxes of
    distinct roots may overlap away from both.  Each number lies in its own
    box and in one box of the isolated conjugates, so when both boxes meet
    exactly one conjugate box, the same one, both numbers are its one root.
    """
    if alpha.min_poly != beta.min_poly or alpha.box.is_disjoint_from(beta.box):
        return False
    conjugates = alpha.conjugates(IntervalField(_CONJUGATE_BITS))
    if conjugates is None:
        return False
    hits = [[j for j, c in enumerate(conjugates) if not c.box.is_disjoint_from(x.box)]
            for x in (alpha, beta)]
    return len(hits[0]) == 1 and hits[0] == hits[1]


def _rational_relation(r: Fraction, s: Fraction):
    """Minimal (n0, m0) with |r|^n0 = |s|^m0, or None (vectors not proportional).

    Requires |r|, |s| > 1 so the proportionality constant is positive.
    """
    vr, vs = _prime_vector(abs(r)), _prime_vector(abs(s))
    if set(vr) != set(vs):
        return None
    ratio = None
    for p in vr:
        c = Fraction(vs[p], vr[p])
        if ratio is None:
            ratio = c
        elif ratio != c:
            return None
    if ratio is None or ratio <= 0:
        return None
    return ratio.numerator, ratio.denominator     # n0 = num, m0 = den


def _dependent_from_abs_lattice(alpha: QuadraticElement, beta: QuadraticElement,
                                n0: int, m0: int, why: str):
    """|alpha|^n0 = |beta|^m0 known; upgrade to an exact relation or rule it out."""
    lhs, rhs = alpha ** n0, beta ** m0
    if lhs == rhs:
        return IndependenceResult("dependent", n0, m0, why)
    if lhs == -rhs:
        return IndependenceResult("dependent", 2 * n0, 2 * m0, why + " (sign squared)")
    # remaining possibility: alpha^n0 / beta^m0 is a non-real root of unity
    try:
        gamma = lhs / rhs
    except UnsupportedDegree:
        gamma = None
    if gamma is not None and not gamma.is_rational:
        for w in (3, 4, 6, 12):
            if gamma ** w == QuadraticElement.from_rational(1):
                return IndependenceResult("dependent", w * n0, w * m0,
                                          why + " (root-of-unity order %d)" % w)
    return None


def _rational_power(gamma: QuadraticElement):
    """Smallest j >= 1 with gamma^j rational, as (j, value); None when no
    power is rational (certified: gamma/conj(gamma) is not a root of unity)."""
    if gamma.is_rational:
        return 1, gamma.a
    ratio = gamma / gamma.conjugate()
    if ratio ** 12 != QuadraticElement.from_rational(1):
        return None
    for j in range(1, 13):
        p = gamma ** j
        if p.is_rational:
            return j, p.a
    return None


def _simplest_rational_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator in [lo, hi] (0 < lo <= hi)."""
    if lo > hi:
        lo, hi = hi, lo
    floor_lo = lo.numerator // lo.denominator
    ceil_lo = -((-lo.numerator) // lo.denominator)
    if Fraction(ceil_lo) <= hi:
        return Fraction(max(ceil_lo, 1))
    frac = _simplest_rational_between(1 / (hi - floor_lo), 1 / (lo - floor_lo))
    return floor_lo + 1 / frac


def multiplicative_independence(alpha: AlgebraicNumber, beta: AlgebraicNumber,
                                search_bound: int = 24,
                                ratio_denominator_bound: int = 10 ** 4
                                ) -> IndependenceResult:
    """Decide whether alpha^n = beta^m has a solution with (n, m) != (0, 0)."""
    a, b = alpha.exact, beta.exact
    if a is None or b is None:
        if _same_root(alpha, beta):
            return IndependenceResult("dependent", 1, 1, "alpha and beta are the same "
                                      "root of one minimal polynomial")
        return IndependenceResult("unknown", certificate="degree > 2 not supported")
    for value, label in ((a, "alpha"), (b, "beta")):
        if not _certified_modulus_gt_one(value):
            raise ValueError("|%s| > 1 is required" % label)

    b_powers = [b ** m for m in range(1, search_bound + 1)]
    for n in range(1, search_bound + 1):
        a_power = a ** n
        for m, b_power in enumerate(b_powers, 1):
            if a_power == b_power:
                return IndependenceResult("dependent", n, m,
                                          "exact relation found by bounded search")

    # continued-fraction candidate from n log|alpha| = m log|beta|
    for bits in (128, 256, 512):
        field = IntervalField(bits)
        la = field.log(a.box(field).modulus())
        lb = field.log(b.box(field).modulus())
        ratio = lb / la
        lo, hi = interval_inf_fraction(ratio), interval_sup_fraction(ratio)
        if lo <= 0:
            continue
        cand = _simplest_rational_between(lo, hi)
        if cand.numerator <= ratio_denominator_bound and \
                cand.denominator <= ratio_denominator_bound:
            n0, m0 = cand.numerator, cand.denominator
            hit = _dependent_from_abs_lattice(a, b, n0, m0,
                                              "modulus-ratio candidate %d/%d" % (n0, m0))
            if hit is not None:
                return hit
        break

    if a.is_rational and b.is_rational:
        pair = _rational_relation(a.a, b.a)
        if pair is None:
            return IndependenceResult(
                "independent", certificate="prime exponent vectors of alpha and "
                "beta are not proportional")
        hit = _dependent_from_abs_lattice(a, b, pair[0], pair[1],
                                          "prime factorization lattice")
        if hit is not None:
            return hit
        return IndependenceResult(
            "independent", certificate="factorization lattice generator is not "
            "a root of unity")

    if a.is_rational or b.is_rational:
        if a.is_rational:
            quad, rat, swapped = b, a.a, True
        else:
            quad, rat, swapped = a, b.a, False
        rp = _rational_power(quad)
        if rp is None:
            return IndependenceResult(
                "independent", certificate="no power of the quadratic input is "
                "rational (its conjugate ratio is not a root of unity), so a "
                "relation would force both exponents to zero")
        j0, r0 = rp
        if abs(r0) <= 1:
            return IndependenceResult("unknown", certificate="degenerate rational power")
        pair = _rational_relation(r0, rat)
        if pair is None:
            return IndependenceResult(
                "independent", certificate="norms: exponent vectors of the "
                "rational power and the rational input are not proportional")
        s0, m0 = pair
        n_rel, m_rel = j0 * s0, m0
        if swapped:
            n_rel, m_rel = m_rel, n_rel
        hit = _dependent_from_abs_lattice(a, b, n_rel, m_rel, "rational-power lattice")
        if hit is not None:
            return hit
        return IndependenceResult(
            "independent", certificate="rational-power lattice generator is not "
            "a root of unity")

    if a.d == b.d:
        na, nb = a.norm(), b.norm()
        if abs(na) != 1 or abs(nb) != 1:
            if abs(na) == 1 or abs(nb) == 1:
                return IndependenceResult(
                    "independent", certificate="norm obstruction: exactly one "
                    "input is a unit, so norms force both exponents to zero")
            pair = _rational_relation(na, nb)
            if pair is None:
                return IndependenceResult(
                    "independent", certificate="norm obstruction: N(alpha) and "
                    "N(beta) have non-proportional prime exponent vectors")
            hit = _dependent_from_abs_lattice(a, b, pair[0], pair[1], "norm lattice")
            if hit is not None:
                return hit
            return IndependenceResult(
                "independent", certificate="norm lattice generator is not a "
                "root of unity")
        return IndependenceResult(
            "unknown", certificate="two units of the same quadratic field with "
            "no small relation; supply an external argument")

    # distinct quadratic fields: any common power is rational
    rpa, rpb = _rational_power(a), _rational_power(b)
    if rpa is None or rpb is None:
        return IndependenceResult(
            "independent", certificate="distinct quadratic fields and at least "
            "one input has no rational power, so a relation would force both "
            "exponents to zero")
    (ja, ra), (jb, rb) = rpa, rpb
    if abs(ra) <= 1 or abs(rb) <= 1:
        return IndependenceResult("unknown", certificate="degenerate rational powers")
    pair = _rational_relation(ra, rb)
    if pair is None:
        return IndependenceResult(
            "independent", certificate="distinct quadratic fields: rational "
            "powers have non-proportional exponent vectors")
    hit = _dependent_from_abs_lattice(a, b, ja * pair[0], jb * pair[1],
                                      "cross-field rational-power lattice")
    if hit is not None:
        return hit
    return IndependenceResult(
        "independent", certificate="cross-field lattice generator is not a "
        "root of unity")

