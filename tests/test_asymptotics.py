import math
import random
import re
from fractions import Fraction

import pytest

from recdiff import asymptotics, counting, matveev
from recdiff.asymptotics import (
    auxiliary_inequality_check,
    lower_bound_grid,
    main_term,
    main_term_value,
    ratio_table,
)
from recdiff.cli import dispatch
from recdiff.counting import count_T_S
from recdiff.errors import InvalidBelowThreshold, InvalidParameters
from recdiff.matveev import effective_upper_bounds
from recdiff.recurrences import BUILTIN_SEQUENCES, LinearRecurrence
from recdiff.spectral import analyze_sequence

FIB = BUILTIN_SEQUENCES["fib"]
POW2 = BUILTIN_SEQUENCES["pow2"]
POW3 = BUILTIN_SEQUENCES["pow3"]
A_FIB = analyze_sequence(FIB)
A_POW2 = analyze_sequence(POW2)
A_POW3 = analyze_sequence(POW3)


def test_main_term_values():
    assert main_term_value(2.0, 5.0, math.e ** 10) == pytest.approx(10.0, rel=1e-12)
    got = main_term(A_FIB.certificate, A_POW2.certificate, 10 ** 6)
    assert got == pytest.approx(572.2, abs=0.1)
    assert main_term_value(2.0, 5.0, 1 + 1e-12) < 1e-20
    with pytest.raises(ValueError):
        main_term_value(2.0, 5.0, 1.0)


def test_main_term_increasing():
    vals = [main_term(A_FIB.certificate, A_POW2.certificate, x)
            for x in (10, 100, 10 ** 4, 10 ** 8)]
    assert vals == sorted(vals) and vals[0] > 0


def test_lower_bound_grid_fib_pow2():
    g = lower_bound_grid(A_FIB.envelope, A_POW2.envelope, math.e ** 20)
    assert g.n_max == pytest.approx(38.57, abs=0.01)
    assert g.m_max == pytest.approx(25.86, abs=0.01)
    assert g.count == 39 * 26 == 1014
    assert g.verified


def test_lower_bound_grid_pow2_pow3():
    g = lower_bound_grid(A_POW2.envelope, A_POW3.envelope, math.e ** 20)
    assert g.n_max == pytest.approx(25.86, abs=0.01)
    assert g.m_max == pytest.approx(15.21, abs=0.01)
    assert g.count == 26 * 16 == 416


def test_lower_bound_grid_threshold():
    with pytest.raises(InvalidBelowThreshold):
        lower_bound_grid(A_FIB.envelope, A_POW2.envelope, 2)
    with pytest.raises(InvalidBelowThreshold):
        lower_bound_grid(A_FIB.envelope, A_POW2.envelope, 3.0)


@pytest.mark.parametrize("seqs", [(A_FIB, A_POW2), (A_POW2, A_FIB)], ids=("fib-pow2", "pow2-fib"))
def test_an_oversized_grid_names_a_pair_beyond_x(seqs, monkeypatch):
    # ten indices past each axis bound: the error names a grid pair with
    # |U_n - V_m| > x by its indices, also for fib, where F_1 = F_2
    grid_axis = asymptotics._grid_axis
    monkeypatch.setattr(asymptotics, "_grid_axis",
                        lambda *args: (grid_axis(*args)[0] + 10, grid_axis(*args)[1]))
    x = 10 ** 6
    with pytest.raises(RuntimeError) as failure:
        lower_bound_grid(seqs[0].envelope, seqs[1].envelope, x)
    n, m = map(int, re.search(r"failed at \(n=(\d+), m=(\d+)\)", str(failure.value)).groups())
    assert abs(seqs[0].sequence.term(n) - seqs[1].sequence.term(m)) > x


def test_grid_is_subset_of_solutions():
    for x in (10 ** 3, 10 ** 6):
        g = lower_bound_grid(A_FIB.envelope, A_POW2.envelope, x)
        assert g.count <= count_T_S(FIB, POW2, x).T


def test_ratio_table_rows():
    rep = ratio_table(FIB, POW2, [10 ** 3, 10 ** 6, 10 ** 9, 10 ** 12])
    assert len(rep.rows) == 4
    assert [r.x for r in rep.rows] == [10 ** 3, 10 ** 6, 10 ** 9, 10 ** 12]
    for r in rep.rows:
        assert r.S <= r.T
        assert r.excess == r.T - r.S
        if r.grid_count is not None:
            assert r.grid_count <= r.T
    # convergence toward the main term along the grid endpoints
    assert abs(rep.rows[-1].s_ratio - 1) < abs(rep.rows[0].s_ratio - 1)
    assert rep.k1 is not None and math.isfinite(rep.k1)
    assert rep.k2 is not None and math.isfinite(rep.k2)


def test_ratio_table_empty_and_oracle():
    assert ratio_table(FIB, POW2, []).rows == ()
    rep = ratio_table(FIB, POW2, [10 ** 3], oracle=True)
    assert (rep.rows[0].T, rep.rows[0].S) == (182, 156)


def test_ratio_table_rejects_a_fractional_x():
    # int(x) used to truncate 10.5 to 10
    with pytest.raises(ValueError):
        ratio_table(FIB, POW2, [10.5])


def test_ratio_table_past_the_float_range():
    # the grid used to convert x to float, which overflows past 1.8e308
    x = 2 ** 1030
    (row,) = ratio_table(FIB, POW2, [x]).rows
    exact = count_T_S(FIB, POW2, x)
    assert (row.x, row.T, row.S) == (x, exact.T, exact.S)
    grid = lower_bound_grid(A_FIB.envelope, A_POW2.envelope, x)
    assert (grid.x, grid.count) == (x, row.grid_count) and grid.count > 0
    # a Fraction x past the float range takes its log from its parts
    assert lower_bound_grid(A_FIB.envelope, A_POW2.envelope, 10 ** 400).count == 2522376
    grid = lower_bound_grid(A_FIB.envelope, A_POW2.envelope, Fraction(10 ** 400, 3))
    assert (grid.x, grid.count) == (Fraction(10 ** 400, 3), 2516505)


def _spy(monkeypatch, module, name):
    """Record the arguments of every call to module.name."""
    calls, original = [], getattr(module, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_ratio_table_rejects_x_at_most_one_before_counting(monkeypatch):
    # the check used to run after the enumeration at the grid's largest x
    calls = _spy(monkeypatch, counting, "_enumerate_pairs")
    with pytest.raises(ValueError, match="x must exceed 1"):
        ratio_table(FIB, POW2, [1, 10 ** 300])
    assert dispatch(["scan", "--seq-u", "fib", "--seq-v", "pow2",
                     "--x-grid", "1,1e300", "--no-header"]) == 4
    assert calls == []


@pytest.mark.parametrize("grid, t_over_2_17", [([10 ** 3, 10 ** 6, 10 ** 9, 10 ** 12], 1),
                                               ([10 ** 100, 10 ** 200, 10 ** 300], 10)],
                         ids=("1e3-1e12", "1e100-1e300"))
def test_ratio_table_enumerates_once_per_grid(monkeypatch, grid, t_over_2_17):
    per_x = [count_T_S(FIB, POW2, x, A_FIB.envelope, A_POW2.envelope) for x in grid]
    assert max(1, per_x[-1].T >> 17) == t_over_2_17
    calls = _spy(monkeypatch, counting, "_enumerate_pairs")
    rows = ratio_table(FIB, POW2, grid).rows
    assert [args[2] for args in calls] == [max(grid)]
    assert [(r.x, r.T, r.S) for r in rows] == [(c.x, c.T, c.S) for c in per_x]


def test_unsorted_grid_with_a_duplicate_and_the_oracle(monkeypatch):
    grid = [10 ** 12, 10 ** 3, 10 ** 12]
    per_x = [count_T_S(FIB, POW2, x) for x in grid]
    enumerations = _spy(monkeypatch, counting, "_enumerate_pairs")
    oracles = _spy(monkeypatch, asymptotics, "brute_force_oracle")
    rows = ratio_table(FIB, POW2, grid, oracle=True).rows
    assert len(enumerations) == 1
    assert [(r.x, r.T, r.S) for r in rows] == [(c.x, c.T, c.S) for c in per_x]
    # the oracle scans at least as far as a per-x oracle check would
    assert [args[2] for args in oracles] == grid
    for (_, _, _, n_cap, m_cap), c in zip(oracles, per_x):
        assert n_cap >= 3 * c.n_cut and m_cap >= 3 * c.m_cut


def test_ratio_table_deterministic():
    a = ratio_table(FIB, POW2, [10 ** 3, 10 ** 6])
    b = ratio_table(FIB, POW2, [10 ** 3, 10 ** 6])
    assert a.rows == b.rows and a.k1 == b.k1


BIG = LinearRecurrence("big", (1, 1), (10 ** 400, 10 ** 400))   # c_upper about 1e400


def test_the_log_of_an_envelope_constant_splits_only_past_the_float_range():
    # below the float range the log is math.log(float(c)), as it always was;
    # past it, log r + e log 2 with 1/2 < r < 2, which log(num) - log(den)
    # matches only to about 5e-15 on pow2's small c_upper
    for a in (A_FIB, A_POW2, A_POW3):
        c = a.envelope.c_upper
        assert asymptotics._log_float(c) == math.log(float(c))
        assert asymptotics._log_float(c * 2 ** 2000) == \
            pytest.approx(math.log(float(c)) + 2000 * math.log(2.0), rel=1e-15)
    c = analyze_sequence(BIG).envelope.c_upper
    assert asymptotics._log_float(c) == \
        pytest.approx(math.log(c.numerator) - math.log(c.denominator), rel=1e-15)


def test_a_grid_threshold_past_the_float_range_is_never_met():
    # e^d of BIG's threshold overflows: no x makes its grid valid, the grid
    # is refused, and a scan counts with an empty grid column
    assert asymptotics._for_lower_bound_threshold(1.0, 1.0, 1000.0) == math.inf
    with pytest.raises(InvalidBelowThreshold, match="inf"):
        lower_bound_grid(analyze_sequence(BIG).envelope, A_POW2.envelope, 10 ** 500)
    report = ratio_table(BIG, POW2, [10 ** 500, 10 ** 600])
    assert [(r.T, r.S, r.grid_count) for r in report.rows] == \
        [(797294, 795633, None), (1910259, 1908265, None)]
    assert [(r.T, r.S) for r in report.rows] == \
        [(c.T, c.S) for c in (count_T_S(BIG, POW2, 10 ** 500), count_T_S(BIG, POW2, 10 ** 600))]


def test_for_lower_bound_invalid_parameters():
    with pytest.raises(InvalidParameters):
        auxiliary_inequality_check("nosuch")


def test_lemma_fuzz_smoke():
    r1 = auxiliary_inequality_check("forLowerBound", trials=2000, seed=11)
    assert r1.passed and r1.counterexample is None
    r2 = auxiliary_inequality_check("mlogm", trials=2000, seed=11)
    assert r2.passed and r2.counterexample is None


def test_the_fuzz_checks_call_the_thresholds_the_bounds_use(monkeypatch):
    # one function per lemma threshold: _grid_axis and the forLowerBound fuzz
    # call the same one, and so do the bound chain and the mlogm fuzz
    calls = []

    def spy(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    assert asymptotics._mlogm_threshold is matveev._mlogm_threshold
    for module in (asymptotics, matveev):
        monkeypatch.setattr(module, "_mlogm_threshold",
                            spy("mlogm", matveev._mlogm_threshold))
    monkeypatch.setattr(asymptotics, "_for_lower_bound_threshold",
                        spy("forLowerBound", asymptotics._for_lower_bound_threshold))
    lower_bound_grid(A_FIB.envelope, A_POW2.envelope, 10 ** 6)
    effective_upper_bounds(A_FIB, A_POW2)
    assert sorted(set(calls)) == ["forLowerBound", "mlogm"]
    for lemma in ("forLowerBound", "mlogm"):
        del calls[:]
        assert auxiliary_inequality_check(lemma, trials=50, seed=3).passed
        assert set(calls) == {lemma} and len(calls) >= 50


def test_for_lower_bound_holds_at_c_equal_to_one():
    # lower_bound_grid applies the lemma with c = sigma / log|root| + 1,
    # which is 1 for every simple dominant root; there z >= e^d gives
    # d <= log z, so n <= k z - log z implies n + d <= k z
    rng = random.Random(2026)
    for _ in range(10 ** 4):
        k = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        d = rng.uniform(-5.0, 5.0)
        z = asymptotics._for_lower_bound_threshold(k, 1.0, d) * math.exp(rng.uniform(0.0, 9.0))
        n_hi = (k * z - math.log(z)) * (1.0 - 1e-9) - 1e-9
        if n_hi >= 1.0:
            assert asymptotics._check_for_lower_bound(k, 1.0, d, z, rng.uniform(1.0, n_hi))
