import math
import random
from fractions import Fraction

import pytest

from recdiff.errors import UnsupportedDegree
from recdiff.heights import (
    AlgebraicNumber,
    _integer_root,
    _ratio_log_over,
    height_constant_probe,
    log_height,
)
from recdiff.intervals import midpoint_float, width_float
from recdiff.quadratic import QuadraticElement, quadratic_roots

PHI_EXACT, _ = quadratic_roots(1, -1, -1)
PHI = AlgebraicNumber.from_quadratic(PHI_EXACT, "phi")
TWO = AlgebraicNumber.from_rational(2)
THREE = AlgebraicNumber.from_rational(3)


def test_log_height_examples():
    assert abs(midpoint_float(log_height(TWO)) - math.log(2)) < 1e-12
    assert abs(midpoint_float(log_height(PHI)) - 0.5 * math.log((1 + 5 ** 0.5) / 2)) < 1e-12
    th = AlgebraicNumber.from_rational(Fraction(3, 2))
    assert abs(midpoint_float(log_height(th)) - math.log(3)) < 1e-12


def test_height_zero_cases():
    assert midpoint_float(log_height(AlgebraicNumber.from_rational(1))) == 0.0
    assert midpoint_float(log_height(AlgebraicNumber.from_rational(-1))) == 0.0
    assert midpoint_float(log_height(AlgebraicNumber.from_rational(0))) == 0.0
    omega = AlgebraicNumber.from_min_poly((1, 1, 1))     # cyclotomic
    assert midpoint_float(log_height(omega)) == 0.0
    # roots of Phi_m of degree 4 to 16: the unit-circle test proves each
    # conjugate on the circle, so h is the point interval [0, 0]
    from sympy import Poly, Symbol, cyclotomic_poly

    x = Symbol("X")
    for m in (5, 7, 9, 12, 15, 17, 21, 30):
        phi_m = tuple(int(c) for c in Poly(cyclotomic_poly(m, x), x).all_coeffs())
        for index in (0, len(phi_m) - 2):
            h = log_height(AlgebraicNumber.from_min_poly(phi_m, index))
            assert (h.a, h.b) == (0, 0), (m, index)


def test_height_power_scaling():
    h1 = midpoint_float(log_height(PHI))
    for n in (2, 5, 10):
        hn = midpoint_float(log_height(AlgebraicNumber.from_quadratic(PHI_EXACT ** n)))
        assert abs(hn - n * h1) < 1e-11


def test_height_nonnegative_and_nested():
    from recdiff.intervals import is_subset
    # two calls at the fixed 2^-64 width give nested intervals
    wide = log_height(PHI)
    narrow = log_height(PHI)
    assert width_float(narrow) <= width_float(wide) <= 2.0 ** -64
    assert is_subset(narrow, wide)
    assert midpoint_float(wide) >= 0


def test_salem_reciprocal_unit_circle():
    # x^4 - x^3 - x^2 - x + 1 has two conjugates exactly on the unit circle;
    # their max-terms must contribute exactly zero
    salem = AlgebraicNumber.from_min_poly((1, -1, -1, -1, 1))
    h = midpoint_float(log_height(salem))
    assert abs(h - math.log(1.7220838057390428) / 4) < 1e-9


def test_min_poly_constructor_rejects_reducible():
    with pytest.raises(ValueError):
        AlgebraicNumber.from_min_poly((1, 0, -4))    # (X-2)(X+2)


def test_probe_two_three_exact():
    probe = height_constant_probe(TWO, THREE, 10)
    assert probe.c0_emp == math.log(2)
    assert len(probe.rows) == 100
    n, m, h, ratio = probe.rows[0]
    assert (n, m) == (1, 1) and abs(h - math.log(3)) < 1e-12


def test_probe_quadratic_pair_positive():
    probe = height_constant_probe(PHI, TWO, 5)
    assert probe.c0_emp > 0
    # h(phi^n / 2^m) is exactly computable here; h >= m log 2 terms dominate
    for n, m, h, ratio in probe.rows:
        assert h >= 0 and ratio > 0


def test_probe_rejects_dependent_pair():
    with pytest.raises(ValueError):
        height_constant_probe(TWO, AlgebraicNumber.from_rational(2), 3)
    with pytest.raises(ValueError):
        height_constant_probe(TWO, AlgebraicNumber.from_rational(8), 3)


def test_probe_mixed_fields_unsupported():
    s2 = AlgebraicNumber.from_quadratic(QuadraticElement.make(0, 1, 2))
    with pytest.raises(UnsupportedDegree):
        height_constant_probe(PHI, s2, 3, assume_independent=True)


def test_probe_degree_three_unsupported():
    cubic = AlgebraicNumber.from_min_poly((1, -1, -1, -1))   # tribonacci root
    with pytest.raises(UnsupportedDegree):
        height_constant_probe(cubic, TWO, 3, assume_independent=True)


def test_height_of_purely_imaginary_conjugates():
    # x^4 + 3x^2 + 1: conjugates +-i*phi, +-i/phi, so h = 2 log(phi) / 4
    gamma = AlgebraicNumber.from_min_poly((1, 0, 3, 0, 1))
    assert gamma.degree == 4
    assert abs(midpoint_float(log_height(gamma)) - 0.5 * math.log((1 + 5 ** 0.5) / 2)) < 1e-12


def test_one_algebraic_number_record():
    import recdiff
    from recdiff import _roots
    from recdiff.recurrences import BUILTIN_SEQUENCES
    from recdiff.spectral import analyze_sequence

    assert recdiff.AlgebraicNumber is AlgebraicNumber is _roots.AlgebraicNumber
    root = analyze_sequence(BUILTIN_SEQUENCES["fib"]).certificate.root
    assert isinstance(root, AlgebraicNumber)
    assert (root.min_poly, root.degree, root.multiplicity, root.exact) == \
        ((1, -1, -1), 2, 1, PHI_EXACT)
    assert log_height(root).a == log_height(PHI).a


def test_integer_root_matches_sympy():
    from sympy import integer_nthroot

    rng = random.Random(11)
    cases = [(n, k) for k in range(1, 13) for n in (0, 1, 2, 3, 2 ** k - 1, 2 ** k, 3 ** k + 1)]
    for _ in range(300):
        k = rng.randint(1, 12)
        base = rng.getrandbits(rng.choice((8, 64, 200)))
        cases += [(base ** k + rng.choice((-1, 0, 1)), k),
                  (rng.getrandbits(1100) + 2 ** 1100, k)]       # beyond float range
    for n, k in cases:
        n = max(n, 0)
        root, exact = integer_nthroot(n, k)
        assert _integer_root(n, k) == int(root), (n, k)
        assert (_integer_root(n, k) ** k == n) == exact


def test_ratio_log_over_huge_heights():
    assert _ratio_log_over(7 ** 500, 500) == math.log(7)
    assert abs(_ratio_log_over(2 ** 1200 + 1, 3) - 400 * math.log(2)) < 1e-9
