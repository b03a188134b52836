import math
import random

import pytest

from recdiff.heights import AlgebraicNumber, log_height
from recdiff.intervals import midpoint_float, upper_float
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


def test_lambda_value_examples():
    s = lambda_value(FIB.decomposition, POW2.decomposition, 10, 6,
                     FIB.certificate, POW2.certificate)
    assert s.status == "nonzero"
    assert midpoint_float(s.lambda_abs) == pytest.approx(0.1405681, abs=1e-6)

    zero = lambda_value(POW2.decomposition, POW3.decomposition, 0, 0,
                        POW2.certificate, POW3.certificate)
    assert zero.status == "zero"

    ninth = lambda_value(POW2.decomposition, POW3.decomposition, 3, 2,
                         POW2.certificate, POW3.certificate)
    assert ninth.status == "nonzero"
    assert midpoint_float(ninth.lambda_abs) == pytest.approx(1 / 9, abs=1e-12)


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
        sample = lambda_value(FIB.decomposition, POW2.decomposition, n, m,
                              FIB.certificate, POW2.certificate)
        assert sample.status == "nonzero"
        floor = matveev_lower_bound(MatveevInput(3, 2, max(n, m), (a1, a2, a3)))
        assert sample.log_lambda_lower >= floor


def test_effective_bounds_q_exact():
    eb = effective_upper_bounds(FIB.certificate, POW2.certificate,
                                FIB.envelope, POW2.envelope)
    assert eb.n_bound.Q == pytest.approx(1 / math.log((1 + 5 ** 0.5) / 2), rel=1e-12)
    assert eb.m_bound.Q == pytest.approx(1 / math.log(2), rel=1e-12)


def test_effective_bounds_ledger():
    eb = effective_upper_bounds(FIB.certificate, POW2.certificate,
                                FIB.envelope, POW2.envelope)
    names = [rec.name for rec in eb.ledger]
    assert len(names) == len(set(names))
    for i in range(5, 19):
        assert "C%d" % i in names
    assert all(math.isfinite(rec.value) for rec in eb.ledger)
    assert all(rec.formula for rec in eb.ledger)


def test_effective_bounds_monotone():
    eb = effective_upper_bounds(FIB.certificate, POW2.certificate,
                                FIB.envelope, POW2.envelope)
    values = [eb.n_max(c) for c in (1, 10, 100, 10 ** 4, 10 ** 8)]
    assert values == sorted(values)
    values_m = [eb.m_max(c) for c in (1, 10, 100, 10 ** 4, 10 ** 8)]
    assert values_m == sorted(values_m)


def test_effective_bounds_soundness_small():
    # every brute-force solution with |c| <= 100 obeys the records
    eb = effective_upper_bounds(FIB.certificate, POW2.certificate,
                                FIB.envelope, POW2.envelope)
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
        effective_upper_bounds(POW2.certificate, pow4.certificate,
                               POW2.envelope, pow4.envelope)


def test_effective_bounds_rigor_flags():
    eb23 = effective_upper_bounds(POW2.certificate, POW3.certificate,
                                  POW2.envelope, POW3.envelope)
    assert eb23.rigorous
    eb_f2 = effective_upper_bounds(FIB.certificate, POW2.certificate,
                                   FIB.envelope, POW2.envelope)
    assert not eb_f2.rigorous       # empirical height-growth witness in Q(sqrt 5)
    assert eb_f2.ledger_value("C10") > 0


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
        eb = effective_upper_bounds(FIB.certificate, other.certificate,
                                    FIB.envelope, other.envelope)
        assert [rec.value for rec in eb.ledger if rec.name == "D"] == [degree]
