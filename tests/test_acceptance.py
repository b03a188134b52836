"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import random
import time
from fractions import Fraction

from recdiff.asymptotics import auxiliary_inequality_check, lower_bound_grid, ratio_table
from recdiff.counting import (
    _enumerate_pairs,
    brute_force_oracle,
    count_T_S,
    count_real_power_pairs,
)
from recdiff.errors import InvalidBelowThreshold
from recdiff.heights import (
    AlgebraicNumber,
    height_constant_probe,
    log_height,
)
from recdiff.intervals import IntervalField, midpoint_float, upper_float
from recdiff.matveev import MatveevInput, effective_upper_bounds, lambda_value, matveev_lower_bound
from recdiff.quadratic import quadratic_roots
from recdiff.recurrences import BUILTIN_SEQUENCES, LinearRecurrence
from recdiff.spectral import analyze_sequence

FIB = BUILTIN_SEQUENCES["fib"]
LUCAS = BUILTIN_SEQUENCES["lucas"]
POW2 = BUILTIN_SEQUENCES["pow2"]
POW3 = BUILTIN_SEQUENCES["pow3"]
TRIB = BUILTIN_SEQUENCES["tribonacci"]
N2N = LinearRecurrence("n2n", (4, -4), (0, 2))

X_GRID = (0, 1, 10, 10 ** 2, 10 ** 3, 10 ** 4, 10 ** 6)


def _verdict(number, label, ok):
    print("\nACCEPTANCE %d (%s): %s" % (number, label, "PASS" if ok else "FAIL"))
    assert ok, "acceptance criterion %d failed: %s" % (number, label)


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    ok = True
    for seq_u, seq_v in ((FIB, POW2), (POW2, POW3)):
        for x in X_GRID:
            fast = count_T_S(seq_u, seq_v, x)
            oracle = brute_force_oracle(seq_u, seq_v, x,
                                        3 * fast.n_cut, 3 * fast.m_cut)
            ok = ok and (fast.T, fast.S) == (oracle.T, oracle.S)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _verdict(1, "oracle equivalence, %.2fs" % elapsed, ok)


def test_criterion_2_ground_truth_values():
    r10 = count_T_S(FIB, POW2, 10)
    r0 = count_T_S(FIB, POW2, 0)
    r23 = count_T_S(POW2, POW3, 2)
    pi_e = count_real_power_pairs("pi", "e", 10, 200)
    ok = (r10.T, r10.S) == (35, 18) and (r0.T, r0.S) == (4, 1) \
        and (r23.T, r23.S) == (6, 4) and pi_e.T == 9
    _verdict(2, "ground-truth counts", ok)


def test_criterion_3_asymptotic_sandwich():
    start = time.monotonic()
    grid = [10 ** 3, 10 ** 6, 10 ** 9, 10 ** 12]
    analysis_u, analysis_v = analyze_sequence(FIB), analyze_sequence(POW2)
    report = ratio_table(FIB, POW2, grid)
    ok = True
    for row in report.rows:
        try:
            g = lower_bound_grid(analysis_u.envelope, analysis_v.envelope, row.x)
            ok = ok and g.count <= row.T
        except InvalidBelowThreshold:
            pass
    first, last = report.rows[0], report.rows[-1]
    ok = ok and abs(last.s_ratio - 1) < abs(first.s_ratio - 1)
    k_fit = max((row.T - row.S) / math.log(row.x) for row in report.rows)
    ok = ok and math.isfinite(k_fit)
    for row in report.rows:
        ok = ok and row.S <= row.T <= row.S + k_fit * math.log(row.x) + 1e-9
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _verdict(3, "asymptotic sandwich (K=%.3f, %.2fs)" % (k_fit, elapsed), ok)


def test_criterion_4_matveev_consistency():
    fib, pow2 = analyze_sequence(FIB), analyze_sequence(POW2)
    # A_1 from the height of the constant coefficient ratio a/b = 1/sqrt(5);
    # A_2, A_3 from the dominant roots, all per the theorem's hypotheses
    phi_plus, _ = quadratic_roots(1, -1, -1)
    ratio = fib.decomposition.exact[fib.certificate.root_index][0]
    d_field = 2
    h_ratio = upper_float(log_height(AlgebraicNumber.from_quadratic(ratio)))
    log_ratio = abs(math.log(abs(midpoint_float(ratio.box(IntervalField(96)).re))))
    a1 = max(d_field * h_ratio, log_ratio, 0.16)
    a2 = max(d_field * upper_float(log_height(AlgebraicNumber.from_quadratic(phi_plus))),
             math.log((1 + 5 ** 0.5) / 2), 0.16)
    a3 = max(d_field * upper_float(log_height(AlgebraicNumber.from_integer(2))),
             math.log(2), 0.16)
    rng = random.Random(2026)
    cells = [(n, m) for n in range(5, 61) for m in range(5, 61)]
    samples = rng.sample(cells, 200)
    violations = 0
    certified = 0
    for n, m in samples:
        s = lambda_value(fib.decomposition, pow2.decomposition, n, m,
                         fib.certificate, pow2.certificate)
        if s.status != "nonzero":
            continue
        certified += 1
        floor = matveev_lower_bound(MatveevInput(3, d_field, max(n, m), (a1, a2, a3)))
        if s.log_lambda_lower < floor:
            violations += 1
    ok = certified == 200 and violations == 0
    _verdict(4, "Matveev consistency (200 samples, %d violations)" % violations, ok)


def test_criterion_5_spectral_certificates():
    ok = True
    for seq in (FIB, LUCAS, POW2, TRIB, N2N):
        analysis = analyze_sequence(seq)
        decomp = analysis.decomposition
        for n in range(0, 201):
            box = decomp.reconstruct(n)
            target = seq.term(n)
            inside = bool(box.re.a > target - 1) and bool(box.re.b < target + 1) \
                and bool(box.re.a <= target) and bool(target <= box.re.b)
            ok = ok and inside
        env = analysis.envelope
        field = IntervalField(analysis.spectrum.precision_bits)
        mod = env.certificate.modulus()
        c_lo, c_hi = field.real(env.c_lower), field.real(env.c_upper)
        power = mod ** env.n0
        for n in range(env.n0, 501):
            u = abs(seq.term(n))
            n_sig = 1 if env.sigma == 0 else n ** env.sigma
            ok = ok and bool((c_lo * power).b <= u)
            ok = ok and bool(u <= (c_hi * n_sig * power).a)
            power = power * mod
    root = midpoint_float(analyze_sequence(FIB).certificate.modulus())
    ok = ok and abs(root - (1 + math.sqrt(5)) / 2) < 1e-12
    _verdict(5, "spectral certificates", ok)


def test_criterion_6_heights():
    phi_plus, _ = quadratic_roots(1, -1, -1)
    h2 = midpoint_float(log_height(AlgebraicNumber.from_integer(2)))
    hphi = midpoint_float(log_height(AlgebraicNumber.from_quadratic(phi_plus)))
    h32 = midpoint_float(log_height(AlgebraicNumber.from_rational(Fraction(3, 2))))
    probe = height_constant_probe(AlgebraicNumber.from_integer(2),
                                  AlgebraicNumber.from_integer(3), 10)
    ok = abs(h2 - math.log(2)) < 1e-12 \
        and abs(hphi - 0.5 * math.log((1 + math.sqrt(5)) / 2)) < 1e-12 \
        and abs(h32 - math.log(3)) < 1e-12 \
        and probe.c0_emp == math.log(2)
    _verdict(6, "heights", ok)


def test_criterion_7_effective_bounds_soundness():
    fib, pow2 = analyze_sequence(FIB), analyze_sequence(POW2)
    eb = effective_upper_bounds(fib.certificate, pow2.certificate,
                                fib.envelope, pow2.envelope)
    runs, entries, _, _, _ = _enumerate_pairs(FIB, POW2, 10 ** 4, fib.envelope, pow2.envelope)
    pairs = [(n, m, u - v) for n, u, left, right in runs for v, m in entries[left:right]]
    violations = 0
    for n, m, c in pairs:
        if n > eb.n_max(abs(c)) or m > eb.m_max(abs(c)):
            violations += 1
    ok = violations == 0 and len(pairs) == 305   # T(10^4) solutions scanned
    ok = ok and eb.n_max(10) >= 10 and eb.m_max(10) >= 6
    _verdict(7, "effective bounds soundness (%d solutions)" % len(pairs), ok)


def test_criterion_8_auxiliary_lemma_fuzz():
    r1 = auxiliary_inequality_check("forLowerBound", trials=10 ** 4, seed=2026)
    r2 = auxiliary_inequality_check("mlogm", trials=10 ** 4, seed=2026)
    ok = r1.passed and r2.passed and r1.trials == r2.trials == 10 ** 4
    _verdict(8, "auxiliary lemma fuzz", ok)
