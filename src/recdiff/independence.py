"""Multiplicative independence certificates for algebraic numbers of degree <= 2.

A relation alpha^n = beta^m with (n, m) != (0, 0) is decided in two steps:

1. one relation candidate: the simplest rational n/m inside the certified
   enclosure of log|beta| / log|alpha|, verified exactly (a relation with
   small exponents puts its own n/m there, since no other rational of small
   denominator lies near it);
2. one lattice step.  Two inputs of one quadratic field are compared through
   their field norms, every other pair through the inputs' smallest rational
   powers (a rational is its own first power; a quadratic number with no
   rational power has no relation with a rational or another field).  A
   relation |r|^n = |s|^m between two rationals needs |r| = t^k and
   |s| = t^l for one t that is no perfect power, found by exact k-th roots
   without factoring, and puts (n, m) on the multiples of (l, k) / gcd(k, l);
   the lattice generator is checked exactly: a relation up to sign, up to a
   root of unity (each one in a quadratic field has order dividing 12), or
   none.

In degree > 2 only one case is decided: two boxes of the same root of one
minimal polynomial give alpha^1 = beta^1.  Other degree > 2 inputs, and the
one genuinely degenerate quadratic configuration (two same-field units with
no small relation), come back Unknown; the procedure never returns a false
Independent or Dependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from ._roots import AlgebraicNumber, only_root_meeting
from .errors import PrecisionExhausted, UnsupportedDegree
from .intervals import _field_at, interval_inf_fraction, interval_sup_fraction, ladder
from .quadratic import QuadraticElement, _integer_root


_CONJUGATE_BITS = 192       # first rung of the conjugate boxes in _same_root
_RATIO_BOUND = 10 ** 4      # largest n and m of a modulus-ratio candidate n/m

# Certificate texts of the lattice step per case, keyed by the number of
# rational inputs ("norm": two inputs of one quadratic field): no rational
# power, exponent vectors not proportional, lattice relation, lattice
# generator not a root of unity.
_LATTICE_TEXTS = {
    2: (None, "prime exponent vectors of alpha and beta are not proportional",
        "prime factorization lattice",
        "factorization lattice generator is not a root of unity"),
    1: ("no power of the quadratic input is rational (its conjugate ratio is not a "
        "root of unity), so a relation would force both exponents to zero",
        "norms: exponent vectors of the rational power and the rational input are "
        "not proportional",
        "rational-power lattice",
        "rational-power lattice generator is not a root of unity"),
    0: ("distinct quadratic fields and at least one input has no rational power, so "
        "a relation would force both exponents to zero",
        "distinct quadratic fields: rational powers have non-proportional exponent "
        "vectors",
        "cross-field rational-power lattice",
        "cross-field lattice generator is not a root of unity"),
    "norm": (None, "norm obstruction: N(alpha) and N(beta) have non-proportional "
             "prime exponent vectors",
             "norm lattice",
             "norm lattice generator is not a root of unity"),
}


@dataclass(frozen=True)
class IndependenceResult:
    status: str               # "independent" | "dependent" | "unknown"
    n: int | None = None      # a verified relation alpha^n = beta^m when dependent
    m: int | None = None
    certificate: str = ""


def _sign(p: Fraction, q: Fraction, d: int) -> int:
    """Exact sign of p + q sqrt(d) for a non-square d > 1."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sp * sq >= 0:
        return sp or sq
    return sp if p * p > q * q * d else sq


def _modulus_gt_one(value: QuadraticElement) -> bool:
    """|value| > 1, decided exactly: |value|^2 is the norm of a rational or a
    complex quadratic, and a real quadratic a + b sqrt(d) exceeds 1 in
    modulus when (a - 1) + b sqrt(d) > 0 or (a + 1) + b sqrt(d) < 0."""
    if value.is_rational or value.d < 0:
        return value.norm() > 1
    a, b, d = value.a, value.b, value.d
    return _sign(a - 1, b, d) > 0 or _sign(a + 1, b, d) < 0


def _power_base(x: Fraction):
    """(t, k) with x = t^k for a rational x > 0 (t = k = 1 for x = 1): t > 1
    is no perfect power and k != 0, found by exact k-th roots, largest first."""
    if x < 1:
        t, k = _power_base(1 / x)
        return t, -k
    num, den = x.numerator, x.denominator
    for k in range(num.bit_length(), 1, -1):
        root_num, root_den = _integer_root(num, k), _integer_root(den, k)
        if root_num ** k == num and root_den ** k == den:
            return Fraction(root_num, root_den), k
    return x, 1


def _same_root(alpha: AlgebraicNumber, beta: AlgebraicNumber) -> bool:
    """Certified alpha == beta for two roots of one minimal polynomial.

    Overlapping boxes alone prove nothing, since two isolating boxes of
    distinct roots may overlap away from both.  Each number lies in its own
    box and in one box of the isolated conjugates, so when both boxes meet
    exactly one conjugate box, the same one, both numbers are its one root.
    The conjugates climb ``intervals.ladder`` until they isolate; at the
    precision cap the answer is False, which leaves the pair unknown.
    """
    if alpha.min_poly != beta.min_poly or alpha.box.is_disjoint_from(beta.box):
        return False
    try:
        conjugates = ladder(_CONJUGATE_BITS, alpha.conjugates, "conjugates not isolated")
    except PrecisionExhausted:
        return False
    j = only_root_meeting(alpha.box, conjugates)
    return j is not None and j == only_root_meeting(beta.box, conjugates)


def _rational_relation(r: Fraction, s: Fraction):
    """Minimal (n0, m0) with |r|^n0 = |s|^m0 and n0, m0 > 0, or None: with
    |r| = t^k and |s| = u^l for t, u no perfect powers, a relation needs
    t == u and k, l of one sign, and then (n0, m0) = (|l|, |k|) / gcd."""
    (t, k), (u, l) = _power_base(abs(r)), _power_base(abs(s))
    if t != u or k * l < 0:
        return None
    g = gcd(k, l)
    return abs(l) // g, abs(k) // g


def _dependent_from_abs_lattice(alpha: QuadraticElement, beta: QuadraticElement,
                                n0: int, m0: int, why: str):
    """The relation alpha^n0 = beta^m0, up to sign or a root of unity, as a
    verified dependent result; None when alpha^n0 / beta^m0 is none of these."""
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
    power is rational (certified: gamma/conj(gamma) is not a root of unity).
    Else gamma^12 is its own conjugate, a rational: the loop ends by j = 12."""
    if gamma.is_rational:
        return 1, gamma.a
    ratio = gamma / gamma.conjugate()
    if ratio ** 12 != QuadraticElement.from_rational(1):
        return None
    for j in range(1, 13):
        p = gamma ** j
        if p.is_rational:
            return j, p.a


def _simplest_rational_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator in [lo, hi], 0 < lo <= hi (kept by the recursion)."""
    floor_lo = lo.numerator // lo.denominator
    ceil_lo = -((-lo.numerator) // lo.denominator)
    if Fraction(ceil_lo) <= hi:
        return Fraction(max(ceil_lo, 1))
    frac = _simplest_rational_between(1 / (hi - floor_lo), 1 / (lo - floor_lo))
    return floor_lo + 1 / frac


def _relation_candidate(a: QuadraticElement, b: QuadraticElement):
    """A verified relation from the modulus-ratio candidate, or None."""
    # continued-fraction candidate from n log|alpha| = m log|beta|
    for bits in (128, 256, 512):
        field = _field_at(bits)
        ratio = field.log(b.box(field).modulus()) / field.log(a.box(field).modulus())
        lo, hi = interval_inf_fraction(ratio), interval_sup_fraction(ratio)
        if lo <= 0:
            continue
        cand = _simplest_rational_between(lo, hi)
        n0, m0 = cand.numerator, cand.denominator
        if n0 <= _RATIO_BOUND and m0 <= _RATIO_BOUND:
            return _dependent_from_abs_lattice(a, b, n0, m0,
                                               "modulus-ratio candidate %d/%d" % (n0, m0))
        return None
    return None


def _lattice_verdict(a: QuadraticElement, b: QuadraticElement, power_a, power_b,
                     certificates) -> IndependenceResult:
    """The lattice step from power_a = (ja, ra) and power_b = (jb, rb).

    Any relation alpha^n = beta^m gives |ra|^(n/ja) = |rb|^(m/jb) with
    integer quotients, so (n/ja, m/jb) is a multiple of the minimal (p, q)
    with |ra|^p = |rb|^q, and alpha^(ja p) / beta^(jb q) is a root of unity.
    """
    _, not_proportional, lattice, generator = certificates
    (ja, ra), (jb, rb) = power_a, power_b
    pair = _rational_relation(ra, rb)
    if pair is None:
        return IndependenceResult("independent", certificate=not_proportional)
    hit = _dependent_from_abs_lattice(a, b, ja * pair[0], jb * pair[1], lattice)
    return hit or IndependenceResult("independent", certificate=generator)


def multiplicative_independence(alpha: AlgebraicNumber,
                                beta: AlgebraicNumber) -> IndependenceResult:
    """Decide whether alpha^n = beta^m has a solution with (n, m) != (0, 0)."""
    a, b = alpha.exact, beta.exact
    if a is None or b is None:
        if _same_root(alpha, beta):
            return IndependenceResult("dependent", 1, 1, "alpha and beta are the same "
                                      "root of one minimal polynomial")
        return IndependenceResult("unknown", certificate="degree > 2 not supported")
    for value, label in ((a, "alpha"), (b, "beta")):
        if not _modulus_gt_one(value):
            raise ValueError("|%s| > 1 is required" % label)
    found = _relation_candidate(a, b)
    if found is not None:
        return found
    if a.shares_field(b):
        na, nb = a.norm(), b.norm()
        if abs(na) == 1 and abs(nb) == 1:
            return IndependenceResult(
                "unknown", certificate="two units of the same quadratic field with "
                "no small relation; supply an external argument")
        if abs(na) == 1 or abs(nb) == 1:
            return IndependenceResult(
                "independent", certificate="norm obstruction: exactly one "
                "input is a unit, so norms force both exponents to zero")
        return _lattice_verdict(a, b, (1, na), (1, nb), _LATTICE_TEXTS["norm"])
    # |alpha|, |beta| > 1, so each rational power has modulus > 1
    texts = _LATTICE_TEXTS[a.is_rational + b.is_rational]
    power_a, power_b = _rational_power(a), _rational_power(b)
    if power_a is None or power_b is None:
        return IndependenceResult("independent", certificate=texts[0])
    return _lattice_verdict(a, b, power_a, power_b, texts)
