"""One input per reachable certificate of multiplicative_independence.

The relations with exponents above 10^4 pass the modulus-ratio candidate
(whose n and m are capped at 10^4), so they reach the lattice step.
Unreachable texts: each "lattice generator is not a root of unity" text
except the norm one, since |ra|^p = |rb|^q for two rationals gives
alpha^(ja p) = +-beta^(jb q); and "degenerate rational power(s)", since
|alpha| > 1 makes every power of modulus > 1.
"""

import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdiff._roots import isolate_factor_roots
from recdiff.errors import UnsupportedDegree
from recdiff.heights import AlgebraicNumber
from recdiff.independence import (
    IndependenceResult,
    _modulus_gt_one,
    _rational_relation,
    multiplicative_independence,
)
from recdiff.intervals import IntervalField
from recdiff.quadratic import QuadraticElement

BIG = 10 ** 4 + 1
I = QuadraticElement.make(0, 1, -1)
PHI = QuadraticElement.make(Fraction(1, 2), Fraction(1, 2), 5)
SQRT2 = QuadraticElement.make(0, 1, 2)
OMEGA2 = QuadraticElement.make(-1, 1, -3)          # 2 exp(2 pi i / 3)
CLOSE_ROOTS = (1, -2 * 10 ** 20, 4 * 10 ** 10, -2)


def _q(x):
    return x if isinstance(x, QuadraticElement) else QuadraticElement.from_rational(x)


def _verdict(alpha, beta):
    return multiplicative_independence(AlgebraicNumber.from_quadratic(_q(alpha), "alpha"),
                                       AlgebraicNumber.from_quadratic(_q(beta), "beta"))


def _dep(n, m, text):
    return IndependenceResult("dependent", n, m, text)


def _indep(text):
    return IndependenceResult("independent", certificate=text)


CASES = {
    "ratio-candidate-small": (2, 8, _dep(3, 1, "modulus-ratio candidate 3/1")),
    "ratio-candidate": (2, 2 ** 25, _dep(25, 1, "modulus-ratio candidate 25/1")),
    "ratio-candidate-sign": (-2, 2 ** 25,
                             _dep(50, 2, "modulus-ratio candidate 25/1 (sign squared)")),
    "ratio-candidate-unity": (2 * I, 2 ** 25, _dep(
        100, 4, "modulus-ratio candidate 25/1 (root-of-unity order 4)")),
    "rational-independent": (2, 3, _indep(
        "prime exponent vectors of alpha and beta are not proportional")),
    "rational-lattice": (2, 2 ** BIG, _dep(10001, 1, "prime factorization lattice")),
    "rational-lattice-sign": (-2, 2 ** BIG, _dep(
        20002, 2, "prime factorization lattice (sign squared)")),
    "mixed-no-rational-power": (PHI, 2, _indep(
        "no power of the quadratic input is rational (its conjugate ratio is not a "
        "root of unity), so a relation would force both exponents to zero")),
    "mixed-independent": (SQRT2, 3, _indep(
        "norms: exponent vectors of the rational power and the rational input are "
        "not proportional")),
    "mixed-lattice": (2, SQRT2 ** BIG, _dep(10001, 2, "rational-power lattice")),
    "mixed-lattice-sign": (2, (2 * I) ** BIG, _dep(
        40004, 4, "rational-power lattice (sign squared)")),
    "norm-one-unit": (PHI, 1 + QuadraticElement.make(0, 1, 5), _indep(
        "norm obstruction: exactly one input is a unit, so norms force both "
        "exponents to zero")),
    "norm-independent": (1 + 2 * I, 1 + I, _indep(
        "norm obstruction: N(alpha) and N(beta) have non-proportional prime "
        "exponent vectors")),
    "norm-lattice": (1 + I, (1 + I) ** BIG, _dep(10001, 1, "norm lattice")),
    "norm-lattice-sign": (1 + I, -(1 + I) ** BIG,
                          _dep(20002, 2, "norm lattice (sign squared)")),
    "norm-lattice-unity": (1 + I, I * (1 + I) ** BIG, _dep(
        40004, 4, "norm lattice (root-of-unity order 4)")),
    "norm-generator": (1 + 2 * I, 1 - 2 * I, _indep(
        "norm lattice generator is not a root of unity")),
    "two-units": (PHI, PHI ** BIG, IndependenceResult(
        "unknown", certificate="two units of the same quadratic field with no small "
        "relation; supply an external argument")),
    "cross-no-rational-power": (PHI, 1 + SQRT2, _indep(
        "distinct quadratic fields and at least one input has no rational power, so "
        "a relation would force both exponents to zero")),
    "cross-independent": (SQRT2, QuadraticElement.make(0, 1, 3), _indep(
        "distinct quadratic fields: rational powers have non-proportional exponent "
        "vectors")),
    "cross-lattice": (OMEGA2, SQRT2 ** BIG,
                      _dep(30003, 6, "cross-field rational-power lattice")),
    "cross-lattice-sign": (SQRT2, QuadraticElement.make(0, 1, -2) ** BIG, _dep(
        40004, 4, "cross-field rational-power lattice (sign squared)")),
}


@pytest.mark.parametrize("alpha, beta, expected", list(CASES.values()), ids=list(CASES))
def test_certificate_per_branch(alpha, beta, expected):
    assert _verdict(alpha, beta) == expected


def test_dependent_grid_gives_the_smallest_relation():
    # u1 b^k1 against u2 b^k2 for one base b, units u1, u2 (roots of unity of
    # order dividing 12) and 1 <= k1, k2 <= 6: every relation has k1 n = k2 m
    # and u1^n = u2^m, so the smallest has n, m <= 72; a brute-force search
    # over those exponents finds it
    bases = [2, -2, Fraction(3, 2), PHI, 1 + SQRT2, 1 + I, 1 + QuadraticElement.make(0, 1, -3)]
    units = [1, -1, I] + [QuadraticElement.make(Fraction(s, 2), Fraction(t, 2), -3)
                          for s, t in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
    pairs = []
    for b in bases:
        values = []
        for u in units:
            for k in range(1, 7):
                try:
                    values.append(_q(u) * _q(b) ** k)
                except UnsupportedDegree:       # u and b in two quadratic fields
                    break
        pairs += [(alpha, beta) for alpha in values for beta in values]
    assert len(pairs) == 7200
    for alpha, beta in random.Random(2026).sample(pairs, 400):
        alpha_powers, beta_powers, power_a, power_b = [], {}, alpha, beta
        for j in range(1, 73):
            alpha_powers.append(power_a)
            beta_powers[power_b] = j
            power_a, power_b = power_a * alpha, power_b * beta
        smallest = next((n, beta_powers[power]) for n, power in enumerate(alpha_powers, 1)
                        if power in beta_powers)
        verdict = _verdict(alpha, beta)
        assert verdict.status == "dependent", (alpha, beta)
        assert alpha ** verdict.n == beta ** verdict.m
        assert (verdict.n, verdict.m) == smallest, (alpha, beta)


def test_degree_above_two():
    cubic = (1, 0, -3, 1)
    root, other = AlgebraicNumber.from_min_poly(cubic, 0), AlgebraicNumber.from_min_poly(cubic, 2)
    assert multiplicative_independence(root, root) == _dep(
        1, 1, "alpha and beta are the same root of one minimal polynomial")
    assert multiplicative_independence(root, other) == IndependenceResult(
        "unknown", certificate="degree > 2 not supported")


def test_same_root_climbs_the_ladder(monkeypatch):
    # x^3 - 2(10^10 x - 1)^2 has two roots about 1e-25 apart, and its
    # conjugates do not isolate at 192 bits; the decision climbs until they
    # do, and at a cap below that stays unknown
    roots = isolate_factor_roots(IntervalField(512), CLOSE_ROOTS)
    assert isolate_factor_roots(IntervalField(192), CLOSE_ROOTS) is None
    for root in roots:
        assert multiplicative_independence(root, root) == _dep(
            1, 1, "alpha and beta are the same root of one minimal polynomial")
    assert multiplicative_independence(roots[1], roots[2]).status == "unknown"
    monkeypatch.setenv("RECDIFF_PRECISION_BITS", "256")
    assert multiplicative_independence(roots[1], roots[1]) == IndependenceResult(
        "unknown", certificate="degree > 2 not supported")


@pytest.mark.parametrize("alpha, beta, error, message", [
    (1, 2, ValueError, r"^\|alpha\| > 1 is required$"),
    (2, Fraction(1, 2), ValueError, r"^\|beta\| > 1 is required$"),
    (QuadraticElement.make(Fraction(1, 2), Fraction(1, 2), -3), 2, ValueError,
     r"^\|alpha\| > 1 is required$"),
])
def test_refused_inputs(alpha, beta, error, message):
    with pytest.raises(error, match=message):
        _verdict(alpha, beta)


def test_modulus_against_one_is_exact():
    # every a + b sqrt(d) with a, b in {-3, -5/2, ..., 3}, against a 256-bit
    # evaluation; |v| = 1 exactly (norm 1 for d < 0) is left out, and
    # 2 - sqrt(3) (= 1/(2 + sqrt(3))) and -(1 + sqrt(2)) test both signs
    halves = [Fraction(k, 2) for k in range(-6, 7)]
    checked = 0
    with mpmath.workprec(256):
        for d in (-3, -1, 2, 3, 5):
            for a in halves:
                for b in halves:
                    v = QuadraticElement.make(a, b, d)
                    if (v.is_rational or v.d < 0) and v.norm() == 1:
                        continue
                    root = mpmath.sqrt(mpmath.mpf(d))
                    value = mpmath.mpf(a.numerator) / a.denominator + \
                        mpmath.mpf(b.numerator) / b.denominator * root
                    assert _modulus_gt_one(v) == (abs(value) > 1), v
                    checked += 1
    assert checked > 800
    assert not _modulus_gt_one(2 - QuadraticElement.make(0, 1, 3))
    assert _modulus_gt_one(-1 - SQRT2)


# primes below and above the square free core's trial bound 2^16
_PRIMES = (2, 3, 5, 7, 65537, 65539, 1000003)


def _rational(draw, max_primes, max_exponent):
    value = Fraction(1)
    for p in draw(st.lists(st.sampled_from(_PRIMES), min_size=1, max_size=max_primes,
                           unique=True)):
        e = draw(st.integers(1, max_exponent))
        value *= Fraction(p) ** draw(st.sampled_from((e, -e)))
    return value


@st.composite
def power_pairs(draw):
    """(r, s) = (+-t^k c, +-t^l c') for a drawn rational t, exponents k and
    l of either sign and cofactors c, c' that are 1 about half the time."""
    t = _rational(draw, 3, 3)
    r, s = (draw(st.sampled_from((1, -1))) * t ** draw(st.integers(-6, 6))
            * (_rational(draw, 2, 2) if draw(st.booleans()) else 1) for _ in range(2))
    return r, s


def _relation_by_prime_vectors(r, s):
    """The minimal (n, m) > 0 with |r|^n = |s|^m from sympy's factorisations:
    the prime exponent vectors must be positively proportional."""
    from sympy import factorint

    def vector(x):
        vec = Counter(factorint(x.numerator))
        vec.subtract(factorint(x.denominator))
        return {p: e for p, e in vec.items() if e}

    vr, vs = vector(abs(r)), vector(abs(s))
    if not vr or not vs:
        return (1, 1) if vr == vs else None
    ratios = {Fraction(vs[p], vr[p]) for p in vr} if set(vr) == set(vs) else set()
    if len(ratios) != 1 or min(ratios) < 0:
        return None
    ratio = ratios.pop()
    return ratio.numerator, ratio.denominator


@settings(max_examples=300, deadline=None)
@given(power_pairs())
def test_rational_relation_matches_prime_exponent_vectors(pair):
    # perfect-power bases decide the relation without factoring; the prime
    # exponent vectors of sympy's factorint are the oracle
    r, s = pair
    assert _rational_relation(r, s) == _relation_by_prime_vectors(r, s), pair
