import math
import random
from fractions import Fraction

import pytest

from recdiff import matveev
from recdiff.errors import InvalidParameters
from recdiff.heights import AlgebraicNumber, log_height
from recdiff.intervals import contains_zero, midpoint_float, upper_float
from recdiff.matveev import (
    MatveevInput,
    effective_upper_bounds,
    lambda_value,
    matveev_lower_bound,
)
from recdiff.recurrences import BUILTIN_SEQUENCES, LinearRecurrence
from recdiff.spectral import analyze_sequence

FIB = analyze_sequence(BUILTIN_SEQUENCES["fib"])
POW2 = analyze_sequence(BUILTIN_SEQUENCES["pow2"])
POW3 = analyze_sequence(BUILTIN_SEQUENCES["pow3"])
N2N = analyze_sequence(LinearRecurrence("n2n", (4, -4), (0, 2)))


def test_matveev_formula_values():
    b = matveev_lower_bound(MatveevInput(3, 2, 100, (1.0, 1.0, 1.0)))
    assert b == pytest.approx(-6.1006e15, rel=1e-4)
    b2 = matveev_lower_bound(MatveevInput(1, 1, 1, (0.16,)))
    assert b2 == pytest.approx(-5.279e8, rel=1e-3)


def test_matveev_monotone():
    base = MatveevInput(3, 2, 100, (1.0, 1.0, 1.0))
    assert matveev_lower_bound(MatveevInput(3, 2, 200, (1.0, 1.0, 1.0))) \
        < matveev_lower_bound(base)
    assert matveev_lower_bound(MatveevInput(3, 2, 100, (2.0, 1.0, 1.0))) \
        < matveev_lower_bound(base)


def test_matveev_reproducible():
    inp = MatveevInput(3, 2, 77, (1.3, 0.5, 2.25))
    assert matveev_lower_bound(inp) == matveev_lower_bound(inp)


def test_matveev_input_validation():
    with pytest.raises(ValueError):
        MatveevInput(0, 1, 1, ())
    with pytest.raises(ValueError):
        MatveevInput(2, 1, 1, (1.0,))
    with pytest.raises(ValueError):
        MatveevInput(1, 1, 0.5, (1.0,))
    with pytest.raises(ValueError):
        MatveevInput(1, 1, 1, (0.1,))
    for B, A in ((math.nan, 1.0), (math.inf, 1.0), (2.0, math.nan), (2.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            MatveevInput(1, 1, B, (A,))


def test_lambda_value_examples():
    s = lambda_value(FIB, POW2, 10, 6)
    assert s.status == "nonzero"
    assert midpoint_float(s.lambda_abs) == pytest.approx(0.1405681, abs=1e-6)

    zero = lambda_value(POW2, POW3, 0, 0)
    assert zero.status == "zero"

    ninth = lambda_value(POW2, POW3, 3, 2)
    assert ninth.status == "nonzero"
    assert midpoint_float(ninth.lambda_abs) == pytest.approx(1 / 9, abs=1e-12)


def test_lambda_value_above_the_analysis_rung_is_undecided(monkeypatch):
    # Lambda = 0 for two analyses of tribonacci at (10, 10), and degree 3 has
    # no exact decision: past the analyses' 512 bits each rung recomputes
    # both decompositions, and at the 1024-bit cap |Lambda| still holds 0
    trib = BUILTIN_SEQUENCES["tribonacci"]
    u, v = (analyze_sequence(LinearRecurrence(trib.name, trib.coefficients,
                                              trib.initial_terms)) for _ in range(2))
    assert u.spectrum.precision_bits == v.spectrum.precision_bits == 512
    rungs, decomposition_at = [], matveev._decomposition_at

    def spy(seq, field):
        rungs.append(field.prec)
        return decomposition_at(seq, field)

    monkeypatch.setattr(matveev, "_decomposition_at", spy)
    monkeypatch.setenv("RECDIFF_PRECISION_BITS", "1024")
    sample = lambda_value(u, v, 10, 10)
    assert sample.status == "undecided" and contains_zero(sample.lambda_abs)
    assert rungs == [768, 768, 1024, 1024]


def test_lambda_against_matveev_window():
    # sampled (n, m): observed log|Lambda| never dips below the Matveev floor
    rng = random.Random(1)
    samples = [(rng.randint(5, 60), rng.randint(5, 60)) for _ in range(40)]
    h_ratio = upper_float(log_height(AlgebraicNumber.from_quadratic(
        FIB.decomposition.exact[FIB.certificate.root_index][0])))
    a1 = max(2 * h_ratio, h_ratio, 0.16)
    a2 = max(2 * upper_float(log_height(FIB.certificate.root)),
             math.log((1 + 5 ** 0.5) / 2), 0.16)
    a3 = max(2 * math.log(2), math.log(2), 0.16)
    for n, m in samples:
        sample = lambda_value(FIB, POW2, n, m)
        assert sample.status == "nonzero"
        floor = matveev_lower_bound(MatveevInput(3, 2, max(n, m), (a1, a2, a3)))
        assert sample.log_lambda_lower >= floor


def test_effective_bounds_q_exact():
    eb = effective_upper_bounds(FIB, POW2)
    assert eb.n_bound.Q == pytest.approx(1 / math.log((1 + 5 ** 0.5) / 2), rel=1e-12)
    assert eb.m_bound.Q == pytest.approx(1 / math.log(2), rel=1e-12)


def test_effective_bounds_ledger():
    eb = effective_upper_bounds(FIB, POW2)
    names = [rec.name for rec in eb.ledger]
    assert len(names) == len(set(names))
    for i in range(5, 19):
        assert "C%d" % i in names
    assert all(math.isfinite(rec.value) for rec in eb.ledger)
    assert all(rec.formula for rec in eb.ledger)


def test_effective_bounds_monotone():
    eb = effective_upper_bounds(FIB, POW2)
    values = [eb.n_max(c) for c in (1, 10, 100, 10 ** 4, 10 ** 8)]
    assert values == sorted(values)
    values_m = [eb.m_max(c) for c in (1, 10, 100, 10 ** 4, 10 ** 8)]
    assert values_m == sorted(values_m)


def test_effective_bounds_soundness_small():
    # every brute-force solution with |c| <= 100 obeys the records
    eb = effective_upper_bounds(FIB, POW2)
    fib, pow2 = BUILTIN_SEQUENCES["fib"], BUILTIN_SEQUENCES["pow2"]
    assert eb.n_max(10) >= 10 and eb.m_max(10) >= 6
    for n in range(0, 60):
        for m in range(0, 40):
            c = fib.term(n) - pow2.term(m)
            if abs(c) <= 100:
                assert n <= eb.n_max(abs(c))
                assert m <= eb.m_max(abs(c))


def test_effective_bounds_rejects_dependent_roots():
    pow4 = analyze_sequence(LinearRecurrence("pow4", (4,), (1,)))
    with pytest.raises(ValueError):
        effective_upper_bounds(POW2, pow4)


def test_effective_bounds_rigor_flags():
    eb23 = effective_upper_bounds(POW2, POW3)
    assert eb23.rigorous
    eb_f2 = effective_upper_bounds(FIB, POW2)
    assert not eb_f2.rigorous       # empirical height-growth witness in Q(sqrt 5)
    assert next(r.value for r in eb_f2.ledger if r.name == "C10") > 0


def test_compositum_degree_ledger_record():
    # one quadratic field gives D = 2, two distinct ones D = 4
    from recdiff.matveev import _compositum_degree

    lucas = analyze_sequence(BUILTIN_SEQUENCES["lucas"])
    assert _compositum_degree(FIB.certificate.root, lucas.certificate.root) == 2
    # fib and lucas share phi, so their chain is refused; 1 + sqrt(5) is
    # independent of phi and lies in the same field
    same_field = analyze_sequence(LinearRecurrence("r", (2, 4), (0, 1)))
    pell = analyze_sequence(LinearRecurrence("pell", (2, 1), (0, 1)))
    for other, degree in ((same_field, 2), (pell, 4), (POW2, 2)):
        eb = effective_upper_bounds(FIB, other)
        assert [rec.value for rec in eb.ledger if rec.name == "D"] == [degree]


def _exact_height(value: Fraction) -> float:
    return math.log(max(abs(value.numerator), value.denominator, 1))


def test_chain_k_constant_bounds_sampled_heights():
    # the proved K of the chain's C10: h(p(n)/q(m)) <= (K_p + K_q) log max(n, m)
    # for n, m >= 2; n 2^n has the exact dominant coefficient p(X) = X
    from recdiff.matveev import _rational_poly_k_constant
    from recdiff.quadratic import QuadraticElement

    n2n = analyze_sequence(LinearRecurrence("n2n", (4, -4), (0, 2)))
    p_x = n2n.decomposition.exact[n2n.certificate.root_index]
    assert [c.a for c in p_x] == [0, 1]

    def poly(*coeffs):
        return tuple(QuadraticElement.from_rational(Fraction(c)) for c in coeffs)

    pairs = [(p_x, poly(1)),
             (poly(Fraction(-1, 2), 0, Fraction(3, 2)), poly(Fraction(5, 3), Fraction(1, 3)))]
    for p, q in pairs:
        k = _rational_poly_k_constant(p) + _rational_poly_k_constant(q)
        for n in range(2, 31):
            for m in range(2, 31):
                value = sum(c.a * n ** j for j, c in enumerate(p)) \
                    / sum(c.a * m ** j for j, c in enumerate(q))
                assert _exact_height(value) <= k * math.log(max(n, m))


def test_log_abs_upper_takes_the_larger_endpoint():
    # log|1/sqrt 5| < 0, so the upper end of its interval is the endpoint of
    # smaller magnitude and falls short of |log(1/sqrt 5)| = log(5)/2; a
    # coarse field keeps the two endpoints apart as floats
    from recdiff.intervals import IntervalField, lower_float
    from recdiff.matveev import _log_abs_upper
    from recdiff.quadratic import QuadraticElement

    field = IntervalField(20)
    box = (QuadraticElement.from_rational(1) / QuadraticElement.make(0, 1, 5)).box(field)
    log_mod = field.log(box.modulus())
    bound = _log_abs_upper(box, True, field)
    assert abs(upper_float(log_mod)) < math.log(5) / 2 <= bound == abs(lower_float(log_mod))
    # off the positive reals the argument adds pi
    assert _log_abs_upper(-box, True, field) >= math.hypot(bound, math.pi)


def test_matveev_margin_script_smoke(monkeypatch, capsys):
    import runpy
    from pathlib import Path

    script = Path(__file__).resolve().parents[1] / "scripts" / "matveev_margin.py"
    monkeypatch.setattr("sys.argv", [str(script), "--hi", "15"])
    runpy.run_path(str(script), run_name="__main__")
    assert "never negative" in capsys.readouterr().out


@pytest.mark.parametrize("fn", [
    lambda x: 2.0 * math.log(x) ** 4,
    lambda x: 0.01 * math.log(x) ** 4,
    lambda x: 40.0 * math.log(x),
    lambda x: 3.0 * math.log(x) ** 2 + 2.0 * math.log(math.log(x)) + 5.0,
], ids=("log4", "small-log4", "log", "growth-gap"))
def test_fixpoint_threshold_holds_from_the_returned_point_on(fn):
    # 2 (log x)^4 <= x at x = 3, but not at any y = 6, 12, ..., 3072, so the
    # first grid point where the inequality holds can be far too early
    from recdiff.matveev import _fixpoint_threshold

    x = _fixpoint_threshold(fn)
    assert all(fn(y) <= y for y in (x * 1.01 ** j for j in range(3000)))
    assert x / 2 <= math.exp(4) or fn(x / 2) > x / 2       # the smallest such grid point


@pytest.mark.parametrize("k, c", [(0.1, 0.1), (1.0, 1.0), (1.4427, 37.5), (10.0, 10.0),
                                  (0.6, 2.0e4)])
def test_mlogm_threshold_holds_from_the_returned_point_on(k, c):
    # both hypotheses of the mlogm lemma, n >= e^(sqrt 2 / sqrt c) and
    # k^2 c^2 (log n)^4 <= n, at every point past the threshold
    x = matveev._mlogm_threshold(k, c)
    for y in (x * 1.01 ** j for j in range(3000)):
        assert y >= math.exp(math.sqrt(2.0) / math.sqrt(c))
        assert (k * c) ** 2 * math.log(y) ** 4 <= y


@pytest.mark.parametrize("u, v", [(FIB, POW2), (POW2, FIB), (POW3, N2N), (N2N, POW3)],
                         ids=["fib-pow2", "pow2-fib", "pow3-n2n", "n2n-pow3"])
def test_the_chain_divides_by_the_envelope_floor(u, v):
    # C9 = 1/inf|b(m)| of the second side, C'9 the same of the first, and
    # both infima are the envelopes' certified a_floor
    ledger = {r.name: r.value for r in effective_upper_bounds(u, v).ledger}
    assert ledger["C9"] == 1.0 / float(v.envelope.a_floor)
    assert ledger["C'9"] == 1.0 / float(u.envelope.a_floor)


def test_the_chain_refuses_an_envelope_constant_past_the_float_range():
    # the chain's arithmetic is floats: c_lower of about 6e399 cannot enter it
    big = analyze_sequence(LinearRecurrence("big", (1, 1), (10 ** 400, 10 ** 400)))
    for u, v in ((big, POW2), (POW2, big)):
        with pytest.raises(InvalidParameters, match="c_lower of 'big' is past the float range"):
            effective_upper_bounds(u, v)


@pytest.mark.parametrize("name", sorted(BUILTIN_SEQUENCES) + ["n2n"])
def test_side_floats_lie_on_their_certified_side(name):
    # the chain's floats never cross the envelope's exact constants: the
    # lower ones round down, the upper ones up
    analysis = N2N if name == "n2n" else analyze_sequence(BUILTIN_SEQUENCES[name])
    side, env = matveev._side(analysis), analysis.envelope
    assert Fraction(side.c_lower) <= env.c_lower and Fraction(side.a_floor) <= env.a_floor
    assert Fraction(side.c_upper) >= env.c_upper and Fraction(side.a_prime) >= env.a_prime
