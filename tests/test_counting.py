import random
import re
import sys
import threading
import tracemalloc
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import islice, repeat

import pytest
from hypothesis import HealthCheck, Phase, assume, example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import mpf_gt, mpf_mul, mpf_pow_int, mpi_mul, round_floor, to_int

from recdiff import counting, intervals, matveev
from recdiff.asymptotics import ratio_table
from recdiff.counting import (
    _HARD_CAP,
    _WINDOW_EXTRA,
    _enumerate_pairs,
    _growth_index,
    _refuse_recurring_hits,
    brute_force_oracle,
    count_T_S,
    count_real_power_pairs,
    find_collisions,
)
from recdiff.errors import CutoffUnsafe, NoDominantRoot, PrecisionExhausted, RootNotLargerThanOne
from recdiff.intervals import IntervalField, _field_at, certainly_greater
from recdiff.recurrences import BUILTIN_SEQUENCES, LinearRecurrence
from recdiff.spectral import analyze_sequence
from test_integration import _recurrences

FIB = BUILTIN_SEQUENCES["fib"]
POW2 = BUILTIN_SEQUENCES["pow2"]
POW3 = BUILTIN_SEQUENCES["pow3"]
LUCAS = BUILTIN_SEQUENCES["lucas"]
TRIBONACCI = BUILTIN_SEQUENCES["tribonacci"]

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


# the restart-per-round enumeration that one extended scan replaced, kept
# verbatim as the reference for the 5-tuple
def _restarting_enumerate_pairs(seqU, seqV, x, envU, envV):
    """Per-n index runs of the V terms within x of U_n, plus cutoff metadata.

    Returns (runs, entries, n_cut, m_cut, gap_margin).  entries are the
    (V_m, m) pairs sorted by value; each run is (n, U_n, left, right) with
    |U_n - V_m| <= x exactly for the entries[left:right]; only n with a
    non-empty run appear, in increasing n.  From the third window round on,
    a provably recurring hit raises ValueError.
    """
    field = _field_at(96)
    n_cut = max(_growth_index(envU, 2 * x + 2, field), 4)
    rounds = 0
    while True:
        rounds += 1
        if n_cut > _HARD_CAP or rounds > 64:
            raise CutoffUnsafe(
                "cutoff extension runaway at n_cut=%d (near-collisions keep "
                "appearing beyond the window)" % n_cut)
        scan_limit = 2 * n_cut + _WINDOW_EXTRA
        u_terms = seqU.terms(scan_limit + 1)
        u_max = max(abs(u) for u in u_terms)
        m_big = _growth_index(envV, x + u_max, field)
        entries = sorted(zip(seqV.terms(m_big + 1), range(m_big + 1)))
        values = [e[0] for e in entries]

        runs = []
        last_hit = -1
        gap_margin = None
        for n in range(scan_limit + 1):
            u = u_terms[n]
            left = bisect_left(values, u - x)
            right = bisect_right(values, u + x)
            if right > left:
                last_hit = n
                runs.append((n, u, left, right))
            if n > n_cut:
                best = None
                for j in (left - 1, left, right):
                    if 0 <= j < len(values):
                        gap = abs(u - values[j])
                        best = gap if best is None else min(best, gap)
                if best is not None:
                    gap_margin = best if gap_margin is None else min(gap_margin, best)
        if last_hit <= n_cut:
            break
        if rounds >= 2:
            _refuse_recurring_hits(seqU, seqV, envU, envV, [
                (n, m) for n, _, left, right in runs if n > n_cut
                for _, m in entries[left:right]],
                2 * last_hit + _WINDOW_EXTRA)
        n_cut = last_hit       # extend and re-verify a fresh window

    # each entry index is read once, however many runs cover it
    m_cut = reach = 0
    for left, right in sorted((left, right) for _, _, left, right in runs):
        for _, m in entries[max(left, reach):right]:
            m_cut = max(m_cut, m)
        reach = max(reach, right)
    return runs, entries, n_cut, m_cut, gap_margin


def _both_enumerations(seqU, seqV, x):
    """(the one-scan 5-tuple, the reference's), or the (type, text) of what
    each raised."""
    envU, envV = analyze_sequence(seqU).envelope, analyze_sequence(seqV).envelope
    results = []
    for enumerate_pairs in (_enumerate_pairs, _restarting_enumerate_pairs):
        try:
            results.append(enumerate_pairs(seqU, seqV, x, envU, envV))
        except (ValueError, CutoffUnsafe) as exc:
            results.append((type(exc), str(exc)))
    return results


_DEEP = [(u, v, k) for u, v in (("fib", "pow2"), ("tribonacci", "pow3"), ("lucas", "pow3"))
         for k in (12, 100, 300)]


@pytest.mark.parametrize("seqU, seqV, x", [
    *((BUILTIN_SEQUENCES[u], BUILTIN_SEQUENCES[v], 10 ** k) for u, v, k in _DEEP),
    (POW2, POW16_PLUS_POW2, 10 ** 6)],
    ids=["%s-%s-1e%d" % case for case in _DEEP] + ["pow2-pow16p2-1e6"])
def test_one_scan_gives_the_restarting_enumeration(seqU, seqV, x):
    # the count-deep pairs; pow2 against 16^m + 2^m takes three window rounds
    one_scan, restarting = _both_enumerations(seqU, seqV, x)
    assert one_scan == restarting and len(one_scan) == 5


@pytest.mark.parametrize("seqU, seqV, x", [(POW2, POW4, 10 ** 6), (POW2, POW4_PLUS_1, 10 ** 6),
                                           (LinearRecurrence("r", (0, 3, -1), (4, 4, 4)),
                                            LinearRecurrence("r", (0, 3, -1), (4, 4, 4)), 33)],
                         ids=("4^m", "4^m+1", "cubic-copies"))
def test_one_scan_refuses_like_the_restarting_enumeration(seqU, seqV, x):
    one_scan, restarting = _both_enumerations(seqU, seqV, x)
    assert one_scan == restarting and one_scan[0] is ValueError


@settings(max_examples=12, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate),
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(seqU=_recurrences(), seqV=_recurrences(), x=st.integers(0, 10 ** 6))
def test_one_scan_gives_the_restarting_enumeration_on_random_recurrences(seqU, seqV, x):
    # mixed-sign and zero V terms: a round that adds a V term at most x +
    # max |U_n| re-bisects every U term
    for seq in (seqU, seqV):
        try:
            analyze_sequence(seq)
        except (NoDominantRoot, RootNotLargerThanOne, PrecisionExhausted):
            assume(False)
    one_scan, restarting = _both_enumerations(seqU, seqV, x)
    assert one_scan == restarting


def test_window_rounds_extend_one_scan(monkeypatch):
    # bisect_right takes each U_n's upper index; the growth index search
    # uses bisect_left only.  Three rounds scan n <= 58, 128 and 168, each
    # bisecting only the U terms it adds: 169 calls, where restarting every
    # round made 59 + 129 + 169
    envU, envV = analyze_sequence(POW2).envelope, analyze_sequence(POW16_PLUS_POW2).envelope
    calls = []
    bisect_right = counting.bisect_right
    monkeypatch.setattr(counting, "bisect_right",
                        lambda *args: calls.append(args) or bisect_right(*args))
    n_cut = _enumerate_pairs(POW2, POW16_PLUS_POW2, 10 ** 6, envU, envV)[2]
    assert len(calls) == 2 * n_cut + counting._WINDOW_EXTRA + 1 == 169


def _stepping_values(env, field):
    """(n, c_lower * |alpha|^n) for n = n0, n0 + 1, ..., one interval
    product per n: a reference whose repeated rounding makes it looser
    than one power per n."""
    mod = env.certificate.modulus()
    value, n = (field.real(env.c_lower) * mod ** env.n0)._mpi_, env.n0
    while True:
        yield n, value
        value, n = mpi_mul(value, mod._mpi_, field.prec), n + 1


def _stepping_growth_index(env, threshold, field):
    thr_upper = field.real(threshold)._mpi_[1]
    return next(n for n, value in _stepping_values(env, field) if mpf_gt(value[0], thr_upper))


def _certified(env, n, threshold, field):
    """c_lower * |alpha|^n > threshold, with one interval power per n."""
    value = field.real(env.c_lower) * field.real(env.certificate.modulus()) ** n
    return certainly_greater(value, field.real(threshold))


@pytest.mark.parametrize("name", ["fib", "lucas", "pow2", "pow3", "tribonacci"])
def test_the_growth_ladder_gives_the_stepping_loops_index(name):
    # thresholds 2^k - 1, 2^k and 2^k + 1 for k up to 4,000, and the
    # stepping loop's own lower endpoints and one 96-bit ulp either side,
    # where a single bit of an endpoint decides the index.  The returned n
    # is certified and n - 1 is not; the stepping loop's looser products
    # certify at n or one index later.  Ascending, descending and shuffled
    # call orders give the same answers: the search keeps no state
    env, field = analyze_sequence(BUILTIN_SEQUENCES[name]).envelope, IntervalField(96)
    thresholds = [2 ** k + d for k in [*range(64), *range(64, 4000, 331), 4000]
                  for d in (-1, 0, 1)]
    for _, value in islice(_stepping_values(env, field), 0, 6000, 750):
        low = to_int(value[0])
        ulp = 1 << max(low.bit_length() - field.prec, 0)
        thresholds += [low - ulp, low, low + ulp]
    found = {t: counting._growth_index(env, t, field) for t in thresholds}
    for t, n in found.items():
        assert n >= env.n0 and _certified(env, n, t, field)
        assert n == env.n0 or not _certified(env, n - 1, t, field)
        assert _stepping_growth_index(env, t, field) - n in (0, 1)
    shuffled = random.Random(name).sample(thresholds, len(thresholds))
    for order in (thresholds[::-1], shuffled):
        assert [counting._growth_index(env, t, field) for t in order] == \
            [found[t] for t in order]


def test_the_growth_index_search_stops_past_ten_million():
    # pow2's bound is 0.999 * 2^n, so 2^(k - 1) needs n = k: an index up to
    # 10^7 is returned, and one past it raises
    env, field = analyze_sequence(POW2).envelope, IntervalField(96)
    for k in (10 ** 7 - 10, 10 ** 7):
        assert counting._growth_index(env, 2 ** (k - 1), field) == k
    for k in (10 ** 7 + 1, 10 ** 7 + 10):
        with pytest.raises(CutoffUnsafe, match="growth index search runaway"):
            counting._growth_index(env, 2 ** (k - 1), field)


# the bracket-and-bisection search that the log2 guess of _growth_index
# now short-cuts, kept verbatim as the reference for the index
def _bracketing_growth_index(env, threshold, field):
    prec, mod_low = field.prec, env.certificate.modulus()._mpi_[0]
    c_low, thr_upper = field.real(env.c_lower)._mpi_[0], field.real(threshold)._mpi_[1]

    def certified(n):
        power = mpf_pow_int(mod_low, n, prec, round_floor)
        return mpf_gt(mpf_mul(c_low, power, prec, round_floor), thr_upper)

    lo, hi = env.n0 - 1, env.n0
    while not certified(hi):
        if hi >= 10 ** 7:
            raise CutoffUnsafe("growth index search runaway")
        lo, hi = hi, min(hi + 2 * (hi - lo), 10 ** 7)
    return lo + 1 + bisect_left(range(lo + 1, hi), True, key=certified)


def _index_outcome(search, env, threshold, field):
    """The index, or the refusal's type and message."""
    try:
        return search(env, threshold, field)
    except CutoffUnsafe as exc:
        return type(exc), str(exc)


def _growth_thresholds(env, field, rng, k):
    """k thresholds for env: integers log-uniform up to 10^5000, Fractions,
    ones at or below the bound at n0 (answer n0, as is a zero or negative
    threshold), and integers one 96-bit ulp around the bound at drawn n,
    where the guess can be off by one and the bracket takes over."""
    mod = env.certificate.modulus()
    at_n0 = to_int((field.real(env.c_lower) * mod ** env.n0)._mpi_[0])
    found = [0, -7, Fraction(-1, 3), Fraction(1, 10 ** 40), at_n0 // 2, at_n0 - 1]
    while len(found) < k:
        kind = rng.randrange(4)
        if kind == 0:
            found.append(rng.randrange(1, 10 ** rng.randrange(1, 5001)))
        elif kind == 1:
            found.append(Fraction(rng.randrange(1, 10 ** rng.randrange(1, 3000)),
                                  rng.randrange(1, 10 ** rng.randrange(1, 300))))
        elif kind == 2:
            found.append(rng.randrange(0, max(at_n0, 1) + 1))
        else:
            low = to_int((field.real(env.c_lower) * mod ** rng.randrange(env.n0, 20000))._mpi_[0])
            ulp = 1 << max(low.bit_length() - field.prec, 0)
            found.append(low + rng.choice((-ulp, 0, ulp)))
    return found


@pytest.mark.parametrize("name", ["fib", "lucas", "pow2", "pow3", "tribonacci"])
def test_the_growth_index_guess_gives_the_bracketing_search_index(name):
    # 1,200 thresholds per builtin; with the drawn recurrences below, more
    # than 10,000 (envelope, threshold) checks, some with answer n0
    env, field = analyze_sequence(BUILTIN_SEQUENCES[name]).envelope, IntervalField(96)
    thresholds = _growth_thresholds(env, field, random.Random(name), 1200)
    found = [counting._growth_index(env, t, field) for t in thresholds]
    assert found == [_bracketing_growth_index(env, t, field) for t in thresholds]
    assert found.count(env.n0) >= 6


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(seq=_recurrences(), seed=st.integers(0, 2 ** 32))
def test_the_growth_index_guess_matches_on_drawn_recurrences(seq, seed):
    try:
        env = analyze_sequence(seq).envelope
    except (NoDominantRoot, RootNotLargerThanOne, PrecisionExhausted):
        assume(False)
    field = IntervalField(96)
    for t in _growth_thresholds(env, field, random.Random(seed), 150):
        assert _index_outcome(counting._growth_index, env, t, field) == \
            _index_outcome(_bracketing_growth_index, env, t, field)


def test_the_growth_index_guess_keeps_the_runaway_refusal():
    # pow2's bound is 0.999 * 2^n: thresholds 2^(k - 1) need n = k, and past
    # 10^7 both searches refuse alike, as does a guess that would land there
    env, field = analyze_sequence(POW2).envelope, IntervalField(96)
    for k in (10 ** 7 - 1, 10 ** 7, 10 ** 7 + 1, 10 ** 7 + 10 ** 5):
        outcome = _index_outcome(counting._growth_index, env, 2 ** (k - 1), field)
        assert outcome == _index_outcome(_bracketing_growth_index, env, 2 ** (k - 1), field)
        assert outcome == (k if k <= 10 ** 7 else (CutoffUnsafe, "growth index search runaway"))


def test_warm_counts_scans_and_chain_sides_read_alpha_from_the_certificate(monkeypatch):
    # |alpha| and log|alpha| are computed once, with the certificate: a warm
    # count, scan or bound-chain side takes no modulus and no interval log
    pairs = [(FIB, POW2), (TRIBONACCI, POW3), (POW2, LUCAS)]
    grid = [10 ** 6, 10 ** 100, 10 ** 300]
    for u, v in pairs:
        count_T_S(u, v, 10 ** 300)
        ratio_table(u, v, grid)
    calls = []
    for owner, name in ((intervals.ComplexBox, "modulus"), (intervals.IntervalField, "log")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    for u, v in pairs:
        count_T_S(u, v, 10 ** 300)
        ratio_table(u, v, grid)
        matveev._side(analyze_sequence(u))
    assert calls == []


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


def test_envelopes_are_matched_by_minimal_recurrence():
    # Fibonacci written with the characteristic polynomial (x - 3)(x^2 - x - 1)
    # takes fib's envelope; lucas's, of the same recurrence, is still refused
    fib3 = LinearRecurrence("fib3", (4, -2, -3), (0, 1, 1))
    env_pow2, env_fib = analyze_sequence(POW2).envelope, analyze_sequence(FIB).envelope
    r = count_T_S(POW2, fib3, 10 ** 6, env_pow2, env_fib)
    assert (r.T, r.S) == FIB_POW2_TRUTH[10 ** 6]
    with pytest.raises(ValueError, match="envelope"):
        count_T_S(POW2, fib3, 10 ** 6, env_pow2, analyze_sequence(LUCAS).envelope)


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


def _groups(pairs):
    """The distinct pairs (u, v) grouped by c = u - v, each group sorted."""
    groups = defaultdict(list)
    for u, v in sorted(set(pairs)):
        groups[u - v].append((u, v))
    return groups


def _ties_of(groups):
    """The groups that hold two or more pairs."""
    return {c: group for c, group in groups.items() if len(group) > 1}


def _run_pairs(runs, entries):
    return [(u, v) for _, u, left, right in runs for v, _ in entries[left:right]]


@pytest.mark.parametrize("seqU, seqV", [(FIB, POW2), (POW2, FIB), (LUCAS, POW3),
                                        (TRIBONACCI, POW3)],
                         ids=("fib-pow2", "pow2-fib", "lucas-pow3", "tribonacci-pow3"))
@pytest.mark.parametrize("x", [10 ** 6, 10 ** 12])
def test_distinct_is_the_same_for_every_band_count(seqU, seqV, x, monkeypatch):
    # c = +-2^k occurs (pow2 against F_0 = 0, say), as does c = 0
    # (F_1 - 2^0); the grid below x, out of order and with x twice, puts an x
    # at and next to 2^k.  Equal terms (F_1 = F_2, tribonacci's T_0 = T_1 = 0)
    # repeat values.  Every K = 2, 4, 8, 16 of the sweep gives the same ties,
    # those of a grouping of the distinct pairs (u, v): with K = 2 the row
    # blocks of Fibonacci terms overlap, so the stretches hold most pairs
    k = x.bit_length() - 2
    xs = [x, 2 ** k, x // 1000, 2 ** k - 1, 0, 2 ** k + 1, x]
    envU, envV = analyze_sequence(seqU).envelope, analyze_sequence(seqV).envelope
    runs, entries, _, _, _ = _enumerate_pairs(seqU, seqV, x, envU, envV)
    tally = Counter(_pair_differences(runs, entries))

    def within(y):
        return (sum(t for c, t in tally.items() if abs(c) <= y),
                sum(1 for c in tally if abs(c) <= y))

    expected = [within(y) for y in xs], _ties_of(_groups(_run_pairs(runs, entries)))
    for split in (1, 2, 3, 4):
        monkeypatch.setattr(counting, "_SPLIT", split)
        counts, ties, _, _ = counting._count(seqU, seqV, xs, envU, envV)
        assert ([(r.T, r.S) for r in counts], ties) == expected


# a dominant root of either sign, equal terms on both sides (F_1 = F_2,
# V_0 = V_1, tribonacci's 0, 0, 1, 1 and Padovan's 1, 1, 1, 2, 2), zero terms,
# and the plastic number, x^3 - x - 1, whose terms grow so slowly that
# consecutive row blocks overlap for every K <= 4
SWEEP_POOL = (FIB, POW3, TRIBONACCI,
              LinearRecurrence("pell-1-1", (2, 1), (1, 1)),
              LinearRecurrence("neg2", (-2,), (1,)),
              LinearRecurrence("padovan", (0, 1, 1), (1, 1, 1)))


def _negated(seq):
    return LinearRecurrence("-" + seq.name, seq.coefficients, tuple(-t for t in seq.initial_terms))


def _sweep_inputs(seqU, seqV, x):
    """(mu, nu, groups, tally) of the runs: the multiplicities of their U
    values and of the V values within their reach, their distinct pairs
    (u, v) as _groups gives them, and the Counter of every enumerated
    pair's difference.  sorted(mu) and sorted(nu) are the sweep's sets."""
    envs = [analyze_sequence(seq).envelope for seq in (seqU, seqV)]
    runs, entries, _, _, _ = _enumerate_pairs(seqU, seqV, x, *envs)
    mu = Counter(u for _, u, _, _ in runs)
    # a draw with no pair within x has no runs: pow3 against -pow3 at x = 1
    reach = entries[min((left for _, _, left, _ in runs), default=0):
                    max((right for *_, right in runs), default=0)]
    nu = Counter(v for v, _ in reach)
    return mu, nu, _groups(_run_pairs(runs, entries)), Counter(_pair_differences(runs, entries))


@settings(max_examples=40, deadline=None)
@given(seqU=st.sampled_from(SWEEP_POOL), seqV=st.sampled_from(SWEEP_POOL),
       flip=st.tuples(st.booleans(), st.booleans()), k=st.integers(0, 40),
       x_offset=st.integers(0, 9), split=st.integers(1, 4))
@example(seqU=POW3, seqV=POW3, flip=(False, True), k=0, x_offset=0, split=1)
def test_the_sweep_finds_every_tie_with_its_pairs(seqU, seqV, flip, k, x_offset, split):
    # each value that two or more distinct pairs (u, v) take, with those
    # pairs, against a grouping of the distinct pairs; with multiplicity they
    # give a plain Counter of all pair differences.  Equal sequences are
    # dependent and refused
    seqU, seqV = (_negated(s) if f else s for s, f in zip((seqU, seqV), flip))
    x = 10 ** k + x_offset
    try:
        mu, nu, groups, tally = _sweep_inputs(seqU, seqV, x)
    except ValueError as exc:
        assert "multiplicatively dependent" in str(exc)
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counting, "_SPLIT", split)
        ties, _, _ = counting._ties(sorted(mu), sorted(nu), x)
    assert ties == _ties_of(groups)
    for c, pairs in ties.items():
        assert pairs == sorted((u, u - c) for u in mu if u - c in nu)
    assert {c: sum(mu[u] * nu[v] for u, v in group) for c, group in groups.items()} == tally


@pytest.mark.parametrize("seqU, seqV, x", [
    (FIB, POW2, 10 ** 100), (POW2, FIB, 10 ** 60), (LUCAS, POW3, 10 ** 80),
    (SWEEP_POOL[5], POW3, 10 ** 30), (SWEEP_POOL[4], _negated(SWEEP_POOL[3]), 10 ** 40),
    (_negated(TRIBONACCI), SWEEP_POOL[5], 10 ** 20)],
    ids=("fib-pow2", "pow2-fib", "lucas-pow3", "padovan-pow3", "neg2-minus-pell",
         "minus-trib-padovan"))
@pytest.mark.parametrize("split", [1, 2, 4])
def test_rows_columns_and_balanced_pairs_sum_to_T(seqU, seqV, x, split, monkeypatch):
    # every pair of a row block has K|v| <= |u|, of a column block K|u| <= |v|
    # and v != 0, a balanced pair neither; a block's c run monotonically
    # between its ends; the distinct pairs (u, v) of the three sum to P
    K = 2 ** split
    mu, nu, groups, _ = _sweep_inputs(seqU, seqV, x)
    monkeypatch.setattr(counting, "_SPLIT", split)
    _, blocks, balanced = counting._ties(sorted(mu), sorted(nu), x)
    rows = columns = 0
    for lo, hi, sign, f, others, a, b in blocks:
        cs = [sign * (f - w) for w in others[a:b]]
        assert cs in (sorted(cs), sorted(cs, reverse=True)) and {cs[0], cs[-1]} == {lo, hi}
        assert len(set(cs)) == len(cs) and all(abs(c) <= x for c in cs)
        if sign > 0:
            assert all(K * abs(v) <= abs(f) for v in others[a:b])
            rows += b - a
        else:
            assert f != 0 and all(K * abs(u) <= abs(f) for u in others[a:b])
            columns += b - a
    assert all(abs(u - v) <= x and abs(u) < K * abs(v) and abs(v) < K * abs(u)
               for u, v in balanced)
    assert len(set(balanced)) == len(balanced)
    pairs = (rows, columns, len(balanced))
    assert sum(pairs) == sum(map(len, groups.values()))
    assert min(pairs) > 0


@pytest.mark.parametrize("seqU, seqV, x", [
    (FIB, POW2, 10 ** 6), (POW2, FIB, 10 ** 5), (TRIBONACCI, POW3, 10 ** 6),
    (SWEEP_POOL[5], SWEEP_POOL[3], 10 ** 4), (SWEEP_POOL[4], _negated(FIB), 10 ** 5)],
    ids=("fib-pow2", "pow2-fib", "tribonacci-pow3", "padovan-pell", "neg2-minus-fib"))
def test_each_r_equals_the_brute_force_count(seqU, seqV, x):
    # d(c), the distinct pairs (u, v) taking c, of every value two or more
    # take, and of no other, against a double loop over three times the
    # cutoffs; the blocks of Padovan terms overlap
    (count,), ties, _, _ = counting._count(seqU, seqV, [x], None, None)
    u_terms, v_terms = seqU.terms(3 * count.n_cut + 1), seqV.terms(3 * count.m_cut + 1)
    brute = Counter(u - v for u in u_terms for v in v_terms if abs(u - v) <= x)
    distinct = _groups((u, v) for u in u_terms for v in v_terms if abs(u - v) <= x)
    assert ties == _ties_of(distinct)
    oracle = brute_force_oracle(seqU, seqV, x, 3 * count.n_cut, 3 * count.m_cut)
    assert (count.T, count.S) == (oracle.T, oracle.S) == (sum(brute.values()), len(brute))


@pytest.mark.parametrize("seqU, seqV", [(FIB, SWEEP_POOL[3]), (TRIBONACCI, _negated(FIB))],
                         ids=("fib-pell-1-1", "tribonacci-minus-fib"))
def test_families_and_sporadic_surplus_split_T_minus_S(seqU, seqV):
    # repeated values on both sides (F_1 = F_2 and V_0 = V_1; tribonacci's
    # 0, 0, 1, 1 and -F_1 = -F_2): T - P is the family surplus, the sum of
    # mu(u) nu(v) - 1 over the distinct pairs (u, v), and S = P - D with D
    # the sum of d(c) - 1, against double loops over three times the cutoffs
    x = 10 ** 12
    k = x.bit_length() - 2
    xs = [x, 2 ** k - 1, 2 ** k, 2 ** k + 1, 10 ** 6, 1, 0]
    counts, ties, _, _ = counting._count(seqU, seqV, xs, None, None)
    u_terms = seqU.terms(3 * counts[0].n_cut + 1)
    v_terms = seqV.terms(3 * counts[0].m_cut + 1)
    mu, nu = Counter(u_terms), Counter(v_terms)
    assert max(mu.values()) > 1 and max(nu.values()) > 1
    for y, count in zip(xs, counts):
        groups = _groups((u, v) for u in mu for v in nu if abs(u - v) <= y)
        P = sum(map(len, groups.values()))
        D = sum(len(group) - 1 for group in groups.values())
        assert D == sum(len(pairs) - 1 for c, pairs in ties.items() if abs(c) <= y)
        assert count.T - (count.S + D) == sum(
            mu[u] * nu[v] - 1 for group in groups.values() for u, v in group)
        assert (count.T, count.S) == (
            sum(1 for u in u_terms for v in v_terms if abs(u - v) <= y), P - D)


def _bisection_P(seqU, seqV, xs):
    """P(x) for every x of xs as the bisection sum over the distinct values
    that the count below max(xs) uses: the U values of the runs at max(xs)
    and the V values within their reach."""
    envs = [analyze_sequence(seq).envelope for seq in (seqU, seqV)]
    runs, entries, _, _, _ = _enumerate_pairs(seqU, seqV, max(xs), *envs)
    us = sorted({u for _, u, _, _ in runs})
    values = [v for v, _ in entries]
    vs = list(dict.fromkeys(values[min((left for _, _, left, _ in runs), default=0):
                                   max((right for *_, right in runs), default=0)]))
    return [counting._within(vs, us, x, repeat(0), repeat(len(vs))) for x in xs]


@pytest.mark.parametrize("seqU, seqV", [(FIB, POW3), (TRIBONACCI, FIB), (POW2, FIB),
                                        (TRIBONACCI, _negated(FIB))],
                         ids=("fib-pow3", "tribonacci-fib", "pow2-fib", "tribonacci-minus-fib"))
def test_P_from_the_runs_is_the_bisection_P(seqU, seqV):
    # P = S + sum of (d(c) - 1) over the ties; at max(xs) it is read from the
    # runs, one per distinct u, below it summed by bisection.  Repeated
    # values on either side (F_1 = F_2, tribonacci's 0, 0, 1, 1) give one
    # run to several n and repeat a value within a run.  Each x counted
    # alone, where P comes from its own runs, and the grid give the
    # bisection P at every x, and the distinct pairs of a double loop
    x = 10 ** 30
    k = x.bit_length() - 2
    xs = [x, 2 ** k - 1, 10 ** 6, 2 ** k, x, 2 ** k + 1, 1, 0]
    grid, ties, _, _ = counting._count(seqU, seqV, xs, None, None)
    u_terms = seqU.terms(3 * grid[0].n_cut + 1)
    v_terms = seqV.terms(3 * grid[0].m_cut + 1)
    assert max(Counter(u_terms).values()) > 1 or max(Counter(v_terms).values()) > 1
    for y, count, P in zip(xs, grid, _bisection_P(seqU, seqV, xs)):
        (alone,), alone_ties, _, _ = counting._count(seqU, seqV, [y], None, None)
        assert alone.S + sum(len(p) - 1 for p in alone_ties.values()) == P == \
            _bisection_P(seqU, seqV, [y])[0]
        assert count.S + sum(len(p) - 1 for c, p in ties.items() if abs(c) <= y) == P == \
            len({(u, v) for u in u_terms for v in v_terms if abs(u - v) <= y})
        assert (count.T, count.S) == (alone.T, alone.S)


def test_ratio_table_grid_rows_keep_their_counts():
    # grid rows whose largest x reads P from the runs, with F_1 = F_2 on
    # either side; the counts are those that a bisection P at every x gave
    grid = [10 ** 30, 10 ** 3, 2 ** 40, 10 ** 12, 2 ** 40 + 1]
    rows = {(u, v): [(r.T, r.S) for r in ratio_table(u, v, grid).rows]
            for u, v in ((TRIBONACCI, FIB), (FIB, POW2))}
    assert rows == {
        (TRIBONACCI, FIB): [(17091, 16654), (263, 186), (2949, 2752), (2948, 2751), (2949, 2752)],
        (FIB, POW2): [(14607, 14491), (182, 156), (2466, 2409), (2411, 2355), (2466, 2409)]}


def test_values_sharing_a_hash_are_told_apart():
    # hash(c) is c mod 2^61 - 1, so 1 - 2^61, which only the pair of
    # F_1 = F_2 = 1 and 2^61 takes, shares the hash of 0, which the balanced
    # pair (2, 2) takes.  1 - 2^61 is a family value, never a tie of the
    # sweep, and find_collisions gives it its two representations; the ties
    # equal a grouping of the distinct pairs, and with multiplicity they
    # give a plain Counter of all pair differences
    x = 2 ** 62
    assert hash(1 - 2 ** 61) == hash(0)
    mu, nu, groups, tally = _sweep_inputs(FIB, POW2, x)
    ties, _, balanced = counting._ties(sorted(mu), sorted(nu), x)
    assert (2, 2) in balanced
    assert 1 - 2 ** 61 not in ties and ties == _ties_of(groups)
    assert {c: sum(mu[u] * nu[v] for u, v in group) for c, group in groups.items()} == tally
    scan = find_collisions(FIB, POW2, x)
    assert {r.c: r.representations for r in scan.records}[1 - 2 ** 61] == ((1, 61), (2, 61))
    assert {r.c: len(r.representations) for r in scan.records} == \
        {c: t for c, t in tally.items() if t > 1}
    # by hand: the four balanced pairs of a and a + M, M = 2^61 - 1, take
    # c = -M, 0, 0 and M, all of one hash; only c = 0 is a tie
    a, M = 2 ** 62, 2 ** 61 - 1
    assert hash(M) == hash(-M) == hash(0)
    ties, blocks, balanced = counting._ties([a, a + M], [a, a + M], x)
    assert blocks == [] and len(balanced) == 4
    assert ties == _ties_of(_groups(balanced)) == {0: [(a, a), (a + M, a + M)]}


def test_slow_growth_takes_the_overlapping_block_path():
    # with K = 4 the row block of a Padovan term u against (-2)^m, of both
    # signs, spans c from about 3u/4 to 5u/4, and the next term is only
    # 1.32 u: consecutive row blocks overlap, and the sweep lists the
    # stretches they share; the ties still equal a grouping of the distinct
    # pairs
    mu, nu, groups, _ = _sweep_inputs(SWEEP_POOL[5], SWEEP_POOL[4], 10 ** 30)
    ties, blocks, _ = counting._ties(sorted(mu), sorted(nu), 10 ** 30)
    reach, overlaps = None, 0
    for lo, hi, *_ in blocks:
        overlaps += reach is not None and lo <= reach
        reach = hi if reach is None else max(reach, hi)
    assert overlaps > 100
    assert ties == _ties_of(groups)


def test_a_deep_count_and_its_collisions_match_a_plain_grouping():
    # T = 637,743 here; each record's representations come from lookups on
    # its repeated value, not from a pass over the pairs
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
    assert scan.count.S == len(tally)
    assert [(r.c, r.representations, r.max_n, r.max_m) for r in scan.records] == expected
    assert (len(scan.records), scan.n_emp, scan.m_emp) == (674, 11, 664)


def test_count_memory_does_not_grow_with_T():
    # one Counter of all T = 637,743 differences peaked at 77 MiB under
    # tracemalloc, the banded tally at about 7 MiB; the sweep, which lists
    # only its balanced pairs, at about 2 MiB
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


@pytest.mark.parametrize("seqU, seqV", [(FIB, POW2), (POW2, FIB), (POW3, SWEEP_POOL[3]),
                                        (_negated(TRIBONACCI), FIB),
                                        (SWEEP_POOL[3], SWEEP_POOL[5])])
@settings(max_examples=25, deadline=None)
@given(x=st.integers(0, 5000))
def test_collisions_match_brute_grouping(seqU, seqV, x):
    # with fib as V, the value 1 sits at m = 1 and m = 2: same-n representations.
    # V repeats a value in all but the first pair (F_1 = F_2, pell's
    # V_0 = V_1 = 1, Padovan's 1, 1, 1 and 2, 2), so some family values come
    # from the V side: one pair (u, v) standing for several (n, m)
    scan = find_collisions(seqU, seqV, x)
    got = [(r.c, r.representations, r.max_n, r.max_m) for r in scan.records]
    expected = _brute_collisions(seqU, seqV, x, 3 * scan.count.n_cut, 3 * scan.count.m_cut)
    assert (got, scan.n_emp, scan.m_emp) == expected
    assert scan.count == count_T_S(seqU, seqV, x)


# ---------------------------------------------------------------------------
# counts in any order, grids and threads: no count depends on another


def _cold(seqU, seqV, x):
    """The count of (seqU, seqV, x) made before any other count of the test:
    every later count of it must equal this one."""
    return count_T_S(seqU, seqV, x)


def _grid(seqU, seqV, xs):
    """(T, S) per x of one enumeration pass at max(xs)."""
    return [(r.T, r.S) for r in counting._count(seqU, seqV, xs, None, None)[0]]


@pytest.mark.parametrize("seqU, seqV", [(FIB, POW2), (POW2, FIB), (LUCAS, POW3)],
                         ids=("fib-pow2", "pow2-fib", "lucas-pow3"))
@pytest.mark.parametrize("xs", [(0, 10, 10 ** 6, 10 ** 40), (10 ** 40, 10 ** 6, 10, 0),
                                (10 ** 12,) * 3], ids=("ascending", "descending", "equal"))
def test_reused_tallies_count_as_cold_counts(seqU, seqV, xs):
    # the counts one after another equal the cold counts a fresh process
    # makes, and each (T, S) equals that of the grid's one pass at max(xs)
    cold = [_cold(seqU, seqV, x) for x in xs]
    counts = [count_T_S(seqU, seqV, x) for x in xs]
    assert counts == cold
    assert [(r.T, r.S) for r in counts] == _grid(seqU, seqV, xs)


def test_grids_and_collisions_after_other_counts_equal_cold_ones():
    grid = [10 ** 9, 10 ** 3, 10 ** 30, 10 ** 3]
    cold_rows = ratio_table(FIB, POW2, grid).rows
    cold_scan = find_collisions(FIB, POW2, 10 ** 40)
    count_T_S(FIB, POW2, 100)
    assert ratio_table(FIB, POW2, grid).rows == cold_rows
    assert find_collisions(FIB, POW2, 10 ** 40) == cold_scan
    count_T_S(FIB, POW2, 10 ** 12)             # between the grid's ends
    assert ratio_table(FIB, POW2, grid).rows == cold_rows
    assert [(r.T, r.S) for r in cold_rows] == _grid(FIB, POW2, grid)
    assert cold_scan.count == _cold(FIB, POW2, 10 ** 40)


@pytest.mark.parametrize("xs", [(10 ** 300, 3 * 10 ** 104, 10 ** 60, 10 ** 12),
                                (10 ** 300, 10 ** 200, 11 * 10 ** 199, 12 * 10 ** 199)],
                         ids=("scattered-below", "dense-run-below"))
def test_tallies_serve_counts_below_a_wide_count(xs):
    # counts below a wide count keep their own cutoffs, and their (T, S) are
    # the wide pass's at their x
    cold = [_cold(FIB, POW2, x) for x in xs]
    assert [count_T_S(FIB, POW2, x) for x in xs] == cold
    assert [(r.T, r.S) for r in cold] == _grid(FIB, POW2, xs)


@pytest.mark.parametrize("seqU, seqV", [(FIB, POW2), (LUCAS, POW3)],
                         ids=("fib-pow2", "lucas-pow3"))
@settings(max_examples=20, deadline=None)
@given(xs=st.lists(st.integers(0, 60).flatmap(lambda k: st.integers(0, 10 ** k)),
                   min_size=2, max_size=6))
def test_one_tally_per_pair_serves_counts_in_any_order(seqU, seqV, xs):
    # each count, above, below or between the x counted before it, equals a
    # cold count and the grid's pass at that x
    counts = [count_T_S(seqU, seqV, x) for x in xs]
    assert counts == [_cold(seqU, seqV, x) for x in xs]
    assert [(r.T, r.S) for r in counts] == _grid(seqU, seqV, xs)


def test_threads_sharing_term_caches_count_as_cold_counts():
    # eight threads on two cores, switching every microsecond, count twelve
    # pairs that share their sequences and term caches: every count stays a
    # cold count's and no thread raises
    powers = [LinearRecurrence("pow%d" % p, (p,), (1,)) for p in (2, 3, 5, 7)]
    pairs = [(u, v) for u in powers for v in powers if u is not v]
    xs = (0, 10, 10 ** 6)
    cold = {(pair, x): _cold(*pair, x) for pair in pairs for x in xs}
    errors = []

    def work(i):
        try:
            for _ in range(2):
                for pair in pairs[i:] + pairs[:i]:
                    for x in xs:
                        assert count_T_S(*pair, x) == cold[pair, x]
        except Exception as exc:        # reported below, with the thread
            errors.append((i, exc))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


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


def _field_requests(monkeypatch):
    """The precisions of the shared fields the explorer and the ladder ask
    for, in order; each request is one rung."""
    requests = []

    def spy(prec):
        requests.append(prec)
        return _field_at(prec)

    monkeypatch.setattr(counting, "_field_at", spy)
    monkeypatch.setattr(intervals, "_field_at", spy)
    return requests


def test_explorer_decides_rational_ties_exactly(monkeypatch):
    # |alpha^n - beta^m| = x exactly straddles x at every precision; with
    # rational bases one scan at the first rung counts it
    fields = _field_requests(monkeypatch)
    assert count_real_power_pairs("1.1", "2", "0.1").pairs == ((0, 0), (1, 0), (7, 1))
    assert fields == [200]
    # 1.5^2 - 2^1 = 1/4 counts at x = 1/4 and not at x = 1/4 - 10^-60
    assert (2, 1) in count_real_power_pairs("1.5", "2", "0.25").pairs
    below = Fraction(1, 4) - Fraction(1, 10**60)
    assert (2, 1) not in count_real_power_pairs("1.5", "2", below).pairs


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


def test_explorer_decides_the_bases_exceed_one_exactly():
    # 1.001 > 1 is exact, so a start of 8 bits, which cannot tell 1.001 from
    # 1, climbs the ladder and counts what 16 bits count
    low, high = (count_real_power_pairs("1.001", "3", "0.5", bits) for bits in (8, 16))
    assert low.T == high.T == 406 and low.pairs == high.pairs
    for base in ("1", "1/2"):
        with pytest.raises(ValueError, match="alpha must exceed 1"):
            count_real_power_pairs(base, "3", "0.5", 8)
        with pytest.raises(ValueError, match="beta must exceed 1"):
            count_real_power_pairs("3", base, "0.5", 8)


@pytest.mark.parametrize("alpha, beta, relation", [
    ("2", "4", "alpha^2 = beta^1"), ("1.5", "2.25", "alpha^2 = beta^1"),
    ("4", "2", "alpha^1 = beta^2"), ("8", "32", "alpha^5 = beta^3")])
def test_explorer_refuses_dependent_rational_bases(alpha, beta, relation):
    # every (pk, qk) with alpha^p = beta^q is an exact hit, so T is infinite:
    # the refusal names the relation before any scan
    with pytest.raises(ValueError, match=re.escape("dependent bases: %s," % relation)):
        count_real_power_pairs(alpha, beta, 1)


def test_explorer_climbs_one_ladder_per_scan(monkeypatch):
    fields = _field_requests(monkeypatch)
    assert count_real_power_pairs("pi", "e", 1000).T == 53
    assert fields == [200]              # one scan; the preconditions need no field
    # pi^2 - e exceeds 7.1513 by 2.3e-5, which a 16-bit cap cannot decide:
    # the refusal names the pair
    assert (2, 1) not in count_real_power_pairs("pi", "e", "7.1513").pairs
    monkeypatch.setenv("RECDIFF_PRECISION_BITS", "16")
    with pytest.raises(PrecisionExhausted, match=r"\|alpha\^2 - beta\^1\|") as refusal:
        count_real_power_pairs("pi", "e", "7.1513")
    assert refusal.value.bits == 16


def test_explorer_reports_the_precision_that_decided():
    # this x exceeds pi^2 - e by 4.3e-75, which 200 bits cannot decide
    x = "7.15132257263031338347420352852348863755645231354083105144638174849596819207"
    r = count_real_power_pairs("pi", "e", x)
    assert (2, 1) in r.pairs and r.T == 8
    assert r.precision_bits == 400
    assert count_real_power_pairs("pi", "e", 10).precision_bits == 200


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
