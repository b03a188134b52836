import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recdiff import counting
from recdiff.counting import (
    _distinct,
    _enumerate_pairs,
    brute_force_oracle,
    count_T_S,
    count_real_power_pairs,
    find_collisions,
)
from recdiff.errors import CutoffUnsafe, PrecisionExhausted
from recdiff.intervals import IntervalField
from recdiff.recurrences import BUILTIN_SEQUENCES, LinearRecurrence
from recdiff.spectral import analyze_sequence

FIB = BUILTIN_SEQUENCES["fib"]
POW2 = BUILTIN_SEQUENCES["pow2"]
POW3 = BUILTIN_SEQUENCES["pow3"]
LUCAS = BUILTIN_SEQUENCES["lucas"]

# oracle-derived ground truths (generous double loops, see module docstring)
FIB_POW2_TRUTH = {0: (4, 1), 1: (11, 3), 10: (35, 18), 100: (93, 70),
                  10 ** 3: (182, 156), 10 ** 4: (305, 275), 10 ** 6: (633, 597)}
POW2_POW3_TRUTH = {0: (1, 1), 1: (5, 3), 2: (6, 4), 10: (14, 10), 100: (37, 32),
                   10 ** 3: (75, 70), 10 ** 4: (130, 125), 10 ** 6: (266, 261)}


@pytest.mark.parametrize("x", sorted(FIB_POW2_TRUTH))
def test_fib_pow2_counts(x):
    r = count_T_S(FIB, POW2, x)
    assert (r.T, r.S) == FIB_POW2_TRUTH[x]
    assert r.method == "fast" and r.gap_margin is not None and r.gap_margin > x


@pytest.mark.parametrize("x", sorted(POW2_POW3_TRUTH))
def test_pow2_pow3_counts(x):
    r = count_T_S(POW2, POW3, x)
    assert (r.T, r.S) == POW2_POW3_TRUTH[x]


def test_oracle_equivalence():
    for x in (0, 1, 10, 100, 10 ** 3):
        fast = count_T_S(FIB, POW2, x)
        oracle = brute_force_oracle(FIB, POW2, x, 3 * fast.n_cut, 3 * fast.m_cut)
        assert (oracle.T, oracle.S) == (fast.T, fast.S)
        assert oracle.method == "oracle"


def test_oracle_cap_sensitivity():
    # the undercount with tight caps demonstrates why the caps matter
    tight = brute_force_oracle(FIB, POW2, 10, 6, 3)
    assert tight.T == 28 < 35
    assert brute_force_oracle(FIB, POW2, 10, 60, 40).T == 35


def test_preconditions():
    with pytest.raises(ValueError):
        count_T_S(FIB, POW2, -1)
    with pytest.raises(ValueError):
        brute_force_oracle(FIB, POW2, -1, 5, 5)
    with pytest.raises(ValueError):
        brute_force_oracle(FIB, POW2, 1, -1, 5)


def test_oracle_parses_x_like_the_count():
    # the oracle used to report a CountResult with x=10.5
    with pytest.raises(ValueError):
        brute_force_oracle(FIB, POW2, 10.5, 5, 5)
    assert brute_force_oracle(FIB, POW2, 10.0, 60, 40) == brute_force_oracle(FIB, POW2, 10, 60, 40)
    assert brute_force_oracle(FIB, POW2, 10.0, 60, 40).x == 10


POW4 = LinearRecurrence("pow4", (4,), (1,))
POW4_PLUS_1 = LinearRecurrence("pow4p1", (5, -4), (2, 5))       # 4^m + 1
POW16_PLUS_POW2 = LinearRecurrence("pow16p2", (18, -32), (2, 18))  # 16^m + 2^m


def _growth_index_calls(monkeypatch):
    """Spy on the count: one call for U's cut, then one per window round."""
    calls = []
    growth_index = counting._growth_index
    monkeypatch.setattr(counting, "_growth_index",
                        lambda *args: calls.append(args) or growth_index(*args))
    return calls


@pytest.mark.parametrize("seq", [POW4, POW4_PLUS_1], ids=("4^m", "4^m+1"))
def test_dependent_dominant_roots_fail_fast(seq, monkeypatch):
    # 2^2 = 4 and U_{2m} - V_m is constant, so T(x) is infinite: the count
    # refuses after two window rounds instead of extending its window until
    # CutoffUnsafe (which took about 11 s)
    calls = _growth_index_calls(monkeypatch)
    with pytest.raises(ValueError, match="multiplicatively dependent: alpha\\^2 = beta\\^1"):
        count_T_S(POW2, seq, 10 ** 6)
    assert len(calls) == 1 + 2


def test_two_copies_of_one_cubic_fail_fast(monkeypatch):
    # both dominant roots are the same root of x^3 - 3x + 1, so alpha^1 = beta^1
    # and U_n - V_n = 0 recurs: refused after two window rounds, where an
    # "unknown" verdict used to extend the window for about 14 s to CutoffUnsafe
    seq = LinearRecurrence("r", (0, 3, -1), (4, 4, 4))
    copy = LinearRecurrence("r", (0, 3, -1), (4, 4, 4))
    calls = _growth_index_calls(monkeypatch)
    with pytest.raises(ValueError, match="multiplicatively dependent: alpha\\^1 = beta\\^1"):
        count_T_S(seq, copy, 33)
    assert len(calls) == 1 + 2


def test_dependent_dominant_roots_with_a_finite_count_still_count(monkeypatch):
    # 2^4 = 16, but U_{4m} - V_m = -2^m grows: the hits stop at n = 76, and
    # the count needs (and gets) a third window round
    calls = _growth_index_calls(monkeypatch)
    r = count_T_S(POW2, POW16_PLUS_POW2, 10 ** 6)
    oracle = brute_force_oracle(POW2, POW16_PLUS_POW2, 10 ** 6, 200, 60)
    assert (r.T, r.S, r.n_cut) == (oracle.T, oracle.S, 76)
    assert len(calls) == 1 + 3


def test_envelope_of_another_sequence_is_refused():
    # pow1000's envelope beside fib once gave T = 140, S = 110 as a "fast"
    # count; an envelope of an equal sequence under another name is accepted
    env_pow2 = analyze_sequence(POW2).envelope
    env_pow1000 = analyze_sequence(LinearRecurrence("pow1000", (1000,), (1,))).envelope
    with pytest.raises(ValueError, match="envelope"):
        count_T_S(POW2, FIB, 10 ** 6, env_pow2, env_pow1000)
    with pytest.raises(ValueError, match="envelope"):
        count_T_S(FIB, POW2, 10 ** 6, env_pow2, env_pow2)
    env_fib = analyze_sequence(LinearRecurrence("fib-copy", (1, 1), (0, 1))).envelope
    r = count_T_S(POW2, FIB, 10 ** 6, env_pow2, env_fib)
    assert (r.T, r.S) == FIB_POW2_TRUTH[10 ** 6]


def test_float_and_fraction_x_are_taken_exactly():
    # u - x with a huge float x used to overflow; the count is that of int(x)
    r = count_T_S(POW2, POW3, 1e160)
    assert r.T == 178756 and r.x == int(1e160)
    assert count_T_S(FIB, POW2, Fraction(10)) == count_T_S(FIB, POW2, 10)
    with pytest.raises(ValueError):
        count_T_S(FIB, POW2, 10.5)


def test_determinism():
    a = count_T_S(FIB, POW2, 10)
    b = count_T_S(FIB, POW2, 10)
    assert a == b


def test_monotone_in_x():
    results = [count_T_S(FIB, POW2, x) for x in (0, 1, 5, 10, 50, 100)]
    for lo, hi in zip(results, results[1:]):
        assert lo.T <= hi.T and lo.S <= hi.S


def test_collisions_fib_pow2():
    scan = find_collisions(FIB, POW2, 10)
    by_c = {rec.c: rec.representations for rec in scan.records}
    assert by_c[-1] == ((0, 0), (1, 1), (2, 1), (4, 2))
    assert by_c[0] == ((1, 0), (2, 0), (3, 1), (6, 3))
    # T - S equals the collision surplus
    surplus = sum(len(rec.representations) - 1 for rec in scan.records)
    assert scan.count.T - scan.count.S == surplus == 17
    assert scan.n_emp == 7 and scan.m_emp == 3


def test_collisions_x_zero():
    scan = find_collisions(FIB, POW2, 0)
    assert len(scan.records) == 1
    rec = scan.records[0]
    assert rec.c == 0 and len(rec.representations) == 4


def test_collisions_pow2_pow3():
    scan = find_collisions(POW2, POW3, 2)
    by_c = {rec.c: rec.representations for rec in scan.records}
    assert by_c[-1] == ((1, 1), (3, 2))
    assert by_c[1] == ((1, 0), (2, 1))


def _pair_differences(runs, entries):
    return [u - v for _, u, left, right in runs for v, _ in entries[left:right]]


@pytest.mark.parametrize("seqU, seqV", [(FIB, POW2), (POW2, FIB), (LUCAS, POW3)],
                         ids=("fib-pow2", "pow2-fib", "lucas-pow3"))
@pytest.mark.parametrize("x", [10 ** 6, 10 ** 12])
def test_distinct_is_the_same_for_every_band_count(seqU, seqV, x):
    # band edges are powers of two, and c = +-2^k occurs (pow2 against
    # F_0 = 0, say), as does c = 0 (F_1 - 2^0); the grid below x, out of
    # order and with x twice, puts an edge x + 1 at and next to 2^k
    k = x.bit_length() - 2
    xs = [x, 2 ** k, x // 1000, 2 ** k - 1, 0, 2 ** k + 1, x]
    envU, envV = analyze_sequence(seqU).envelope, analyze_sequence(seqV).envelope
    runs, entries, _, _, _ = _enumerate_pairs(seqU, seqV, x, envU, envV)
    tally = Counter(_pair_differences(runs, entries))
    expected = ([(sum(t for c, t in tally.items() if abs(c) <= y),
                  sum(1 for c in tally if abs(c) <= y)) for y in xs],
                {c for c, t in tally.items() if t > 1})
    values = [v for v, _ in entries]
    for bands in (1, 2, 3, 7, 64):
        assert _distinct(runs, values, xs, bands) == expected


def test_multi_band_count_and_collisions_match_a_plain_grouping():
    # T = 637,743 here, so the count sorts 4 bands
    envU, envV = analyze_sequence(FIB).envelope, analyze_sequence(POW2).envelope
    x = 10 ** 200
    scan = find_collisions(FIB, POW2, x)
    runs, entries, _, _, _ = _enumerate_pairs(FIB, POW2, x, envU, envV)
    tally = Counter(_pair_differences(runs, entries))
    groups = {c: [] for c, k in tally.items() if k > 1}
    for n, u, left, right in runs:
        for v, m in entries[left:right]:
            if u - v in groups:
                groups[u - v].append((n, m))
    expected = [(c, tuple(sorted(reps)), max(n for n, _ in reps), max(m for _, m in reps))
                for c, reps in sorted(groups.items())]
    assert scan.count.T == sum(tally.values()) == 637743
    assert scan.count.T >> 17 == 4
    assert scan.count.S == len(tally)
    assert [(r.c, r.representations, r.max_n, r.max_m) for r in scan.records] == expected
    assert (len(scan.records), scan.n_emp, scan.m_emp) == (674, 11, 664)


def test_count_memory_does_not_grow_with_T():
    # one Counter of all T = 637,743 differences peaked at 77 MiB under
    # tracemalloc; the banded count peaks at about 10 MiB
    envU, envV = analyze_sequence(FIB).envelope, analyze_sequence(POW2).envelope
    tracemalloc.start()
    try:
        count_T_S(FIB, POW2, 10 ** 200, envU, envV)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


def test_cutoff_unsafe_escape_hatch(monkeypatch):
    envU = analyze_sequence(FIB).envelope
    envV = analyze_sequence(POW2).envelope
    monkeypatch.setattr(counting, "_HARD_CAP", 5)
    with pytest.raises(CutoffUnsafe):
        _enumerate_pairs(FIB, POW2, 10 ** 6, envU, envV)


@settings(max_examples=30, deadline=None)
@given(x=st.integers(0, 2000))
def test_fast_matches_oracle_random_x(x):
    fast = count_T_S(FIB, POW2, x)
    oracle = brute_force_oracle(FIB, POW2, x, 2 * fast.n_cut + 8, 2 * fast.m_cut + 8)
    assert (fast.T, fast.S) == (oracle.T, oracle.S)


def _brute_collisions(seqU, seqV, x, n_cap, m_cap):
    """Group every pair up to the caps by its difference, by double loop."""
    v_terms = [seqV.term(m) for m in range(m_cap + 1)]
    groups = defaultdict(list)
    for n in range(n_cap + 1):
        u = seqU.term(n)
        for m, v in enumerate(v_terms):
            if abs(u - v) <= x:
                groups[u - v].append((n, m))
    records = [(c, tuple(sorted(reps)), max(n for n, _ in reps), max(m for _, m in reps))
               for c, reps in sorted(groups.items()) if len(reps) >= 2]
    n_emp = max((min(n for n, _ in r[1]) for r in records), default=0)
    m_emp = max((min(m for _, m in r[1]) for r in records), default=0)
    return records, n_emp, m_emp


@pytest.mark.parametrize("seqU, seqV", [(FIB, POW2), (POW2, FIB)])
@settings(max_examples=25, deadline=None)
@given(x=st.integers(0, 5000))
def test_collisions_match_brute_grouping(seqU, seqV, x):
    # with fib as V, the value 1 sits at m = 1 and m = 2: same-n representations
    scan = find_collisions(seqU, seqV, x)
    got = [(r.c, r.representations, r.max_n, r.max_m) for r in scan.records]
    expected = _brute_collisions(seqU, seqV, x, 3 * scan.count.n_cut, 3 * scan.count.m_cut)
    assert (got, scan.n_emp, scan.m_emp) == expected
    assert scan.count == count_T_S(seqU, seqV, x)


# ---------------------------------------------------------------------------
# real-base explorer


def test_pi_e_ten():
    r = count_real_power_pairs("pi", "e", 10, 200)
    assert r.T == 9
    assert r.pairs == tuple((n, m) for n in range(3) for m in range(3))


def test_explorer_matches_integer_count():
    r = count_real_power_pairs("2", "3", 2)
    assert r.T == count_T_S(POW2, POW3, 2).T == 6


def test_explorer_rational_bases():
    r = count_real_power_pairs("2.5", "4", 1)
    # |2.5^n - 4^m| <= 1: (0,0) and 2.5^3 = 15.625 against 4^2 = 16
    assert r.T == 2 and r.pairs == ((0, 0), (3, 2))


def test_explorer_preconditions():
    with pytest.raises(ValueError):
        count_real_power_pairs("e", "e", 5)
    with pytest.raises(ValueError):
        count_real_power_pairs("2", "2", 5)
    with pytest.raises(ValueError):
        count_real_power_pairs("pi", "e", 0)
    with pytest.raises(ValueError):
        count_real_power_pairs("1", "2", 5)
    with pytest.raises(ValueError):
        count_real_power_pairs("0.5", "2", 5)


def test_explorer_climbs_one_ladder_per_scan(monkeypatch):
    fields, init = [], IntervalField.__init__

    def spy(self, prec):
        fields.append(prec)
        init(self, prec)

    monkeypatch.setattr(IntervalField, "__init__", spy)
    assert count_real_power_pairs("pi", "e", 1000).T == 53
    assert fields == [200, 200]         # the precondition check, then one scan
    # pi^2 - e exceeds 7.1513 by 2.3e-5, which a 16-bit cap cannot decide:
    # the refusal names the pair
    assert (2, 1) not in count_real_power_pairs("pi", "e", "7.1513").pairs
    monkeypatch.setenv("RECDIFF_PRECISION_BITS", "16")
    with pytest.raises(PrecisionExhausted, match=r"\|alpha\^2 - beta\^1\|") as refusal:
        count_real_power_pairs("pi", "e", "7.1513")
    assert refusal.value.bits == 16


def test_explorer_x_as_fraction():
    assert count_real_power_pairs("pi", "e", Fraction(10)).T == 9


def test_explorer_against_direct_enumeration():
    # independent oracle: plain high-precision floating enumeration
    import mpmath

    with mpmath.workprec(300):
        direct = 0
        for n in range(40):
            for m in range(50):
                if abs(mpmath.pi ** n - mpmath.e ** m) <= 1000:
                    direct += 1
    assert count_real_power_pairs("pi", "e", 1000, 240).T == direct
