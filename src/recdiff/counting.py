"""Exact counting of Pillai-type differences U_n - V_m.

T(x) counts pairs (n, m) with |U_n - V_m| <= x; S(x) counts the distinct
values c = U_n - V_m with |c| <= x.  All integer-sequence comparisons are
exact big-integer arithmetic.  The fast counter trusts a verified safety
window (past the last admitted n it scans on to twice that n, plus 16, and
demands every difference there exceed x), not the impractically large
effective bounds; a hit in the window extends the same scan, whose new
window is verified in turn, and the computation fails loudly (CutoffUnsafe)
instead of reporting a possibly wrong count.

The enumeration keeps, for each U_n, only an index run [left, right) into
the value-sorted V terms.  T and S are counted band by band: each band of
|c| (one sign at a time) gathers its pairs from every run by bisection.  A
band of fewer than 2^12 pairs sorts its big-integer differences and counts
adjacent equal values.  A larger one sorts one machine word per pair, the
difference's residue mod a 31-bit prime beside the pair's position, and
computes exactly only the differences whose residue another pair shares:
equal values always share it, so T, S and the repeated values are exact
whatever the prime, which only decides how few differences are computed
(Karp and Rabin's fingerprints, IBM J. Res. Dev. 31 (1987), with every tie
resolved).  Only one band is alive at a time, so the memory of a count grows
with n_cut + m_cut and the band size, not with T(x).  A pass at the largest
x of a grid covers every smaller x, so a grid is enumerated once.

A tally keeps T(e) and S(e), the pairs and values with |c| < e, at every
band edge e of its walk, the repeated values, and its region: the n cutoff
and the number of V entries of its count.  Each of the 64 pairs used last
keeps one tally, the one of its count at the largest x (the newer one on a
tie).  A later count still enumerates, so its cutoffs and window checks are
its own.  It starts its bands at the kept tally's highest edge
e <= min(xs) + 1 when the two regions nest (one contains the other) and its
runs hold the tally's T(e): the pairs with |c| < e of the smaller region
lie in the larger one's, so an equal number means the same pairs, values
and repeats.  This holds for x above and below the tally's, so a wide count
serves the counts below it; a count below every edge of the kept tally
counts cold.

Certified real comparisons are interval arithmetic: the growth index of an
envelope, on 96-bit intervals, and the real-base explorer (pi^n vs e^m),
where every comparison is decided with certified margin or refined.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, count, islice
from operator import eq, itemgetter, lt, sub

from mpmath.libmp import mpf_gt, mpf_mul, mpf_pow_int, round_floor

from ._roots import AlgebraicNumber
from .errors import CutoffUnsafe, PrecisionExhausted
from .independence import multiplicative_independence
from .intervals import (
    _field_at,
    certainly_greater,
    certainly_le,
    ladder,
)
from .recurrences import LinearRecurrence, minimal_recurrence
from .spectral import GrowthEnvelope, analyze_sequence

_WINDOW_EXTRA = 16          # indices scanned past twice the cutoff, each round
_HARD_CAP = 100000          # largest n cutoff before the window counts as a runaway
_TALLY_CAP = 64             # pairs whose tallies are kept
_CHECKPOINT_CAP = 256       # band edges a tally keeps: its highest ones
_RESIDUE_BAND = 1 << 12     # pairs of a band and sign from which it is tallied by residues
_PRIME = 2 ** 31 - 69       # a safe prime: 2 and 3 have order p - 1 and (p - 1) / 2 mod p


@dataclass(frozen=True)
class CountResult:
    x: int
    T: int
    S: int
    n_cut: int
    m_cut: int
    gap_margin: int | None     # smallest |U_n - V_m| seen in the safety window
    method: str                # "fast" | "oracle"


@dataclass(frozen=True)
class CollisionRecord:
    c: int
    representations: tuple     # distinct (n, m) pairs, length >= 2
    max_n: int
    max_m: int


@dataclass(frozen=True)
class CollisionScan:
    records: tuple
    n_emp: int                 # max over records of the record's smallest n
    m_emp: int
    count: CountResult


@dataclass(frozen=True)
class _Tally:
    """A tally of one pair: (e, T(e), S(e)) at band edges e, ascending, for
    the pairs with |c| < e; the values c taken more than once below the last
    edge (the count's largest x, plus one); and the region counted, n <=
    n_cut and the first n_entries V terms."""
    checkpoints: tuple
    repeated: frozenset
    n_cut: int
    n_entries: int


_COLD = (0, 0, 0, frozenset())      # a walk's start (e, T, S, repeated) covering no |c|
_TALLIES = OrderedDict()     # (seqU, seqV) -> its tally, least recently used first
_TALLIES_LOCK = threading.Lock()


def _parse_x_int(value) -> int:
    """Exact non-negative integer from an int, an integral float or Fraction,
    or a literal such as 10, 1e12 or 2.5e3."""
    try:
        exact = Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        exact = None
    if exact is None or exact < 0 or exact.denominator != 1:
        raise ValueError("x must be a non-negative integer, got %r" % (value,))
    return exact.numerator


def brute_force_oracle(seqU: LinearRecurrence, seqV: LinearRecurrence,
                       x: int, n_cap: int, m_cap: int) -> CountResult:
    """Independent oracle: exhaustive double loop, exact integer comparisons.

    Single-threaded by contract so a reviewer can audit it at a glance.
    """
    x = _parse_x_int(x)
    if n_cap < 0 or m_cap < 0:
        raise ValueError("caps must be >= 0")
    u_terms, v_terms = seqU.terms(n_cap + 1), seqV.terms(m_cap + 1)
    T = 0
    values = set()
    for u in u_terms:
        for v in v_terms:
            c = u - v
            if abs(c) <= x:
                T += 1
                values.add(c)
    return CountResult(x, T, len(values), n_cap, m_cap, None, "oracle")


def _growth_index(env: GrowthEnvelope, threshold, field) -> int:
    """Smallest n >= n0 with c_lower * |alpha|^n certified > threshold.

    Both factors are positive, so a lower bound of the value is the lower
    endpoint of c_lower times that of |alpha|^n, each rounded down at the
    field's precision: one directed-rounding power per probe, on mpmath's
    raw endpoints.  Probes at n0, n0 + 2, n0 + 6, n0 + 14, ... bracket the
    first certified n, and a bisection of the bracket finds it.  An index
    past n = 10^7 is a runaway.
    """
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


def _refuse_recurring_hits(seqU, seqV, envU, envV, hits, limit):
    """Raise ValueError when a hit (n, m) provably recurs forever.

    With dependent dominant roots, alpha^p = beta^q, W_k = U_{n+pk} - V_{m+qk}
    satisfies a recurrence of order d = ord U + ord V (Cayley-Hamilton for
    the p-th and q-th powers of the companion matrices), so W_{k+P} = W_k
    for k < d proves period P and T(x) infinite.  Dependence alone is not
    enough (pow2 against 16^m + 2^m counts).  Periods up to 12 are tried, on
    U indices up to ``limit``, the next round's scan limit.
    """
    verdict = multiplicative_independence(envU.certificate.root, envV.certificate.root)
    if verdict.status != "dependent":
        return
    p, q, d = verdict.n, verdict.m, seqU.order + seqV.order
    for n, m in hits:
        if n + p * (12 + d) > limit:
            continue
        w = [seqU.term(n + p * k) - seqV.term(m + q * k) for k in range(12 + d)]
        for period in range(1, len(w) - d + 1):
            if w[period:period + d] == w[:d]:
                raise ValueError(
                    "dominant roots are multiplicatively dependent: alpha^%d = beta^%d, "
                    "and U_n - V_m = %d at every (n, m) = (%d + %dj, %d + %dj), j >= 0"
                    % (p, q, w[0], n, p * period, m, q * period))


def _enumerate_pairs(seqU, seqV, x, envU, envV):
    """Per-n index runs of the V terms within x of U_n, plus cutoff metadata.

    Returns (runs, entries, n_cut, m_cut, gap_margin).  entries are the
    (V_m, m) pairs sorted by value; each run is (n, U_n, left, right) with
    |U_n - V_m| <= x exactly for the entries[left:right]; only n with a
    non-empty run appear, in increasing n.  A window round extends the one
    scan: it bisects only the U terms it adds, and re-bisects the others
    only when a V term it adds is at most x + max |U_n| over them.  From
    the third window round on, a provably recurring hit raises ValueError.
    """
    field = _field_at(96)
    n_cut = max(_growth_index(envU, 2 * x + 2, field), 4)
    lefts, rights, entries, u_max = [], [], [], 0
    rounds = 0
    while True:
        rounds += 1
        if n_cut > _HARD_CAP or rounds > 64:
            raise CutoffUnsafe(
                "cutoff extension runaway at n_cut=%d (near-collisions keep "
                "appearing beyond the window)" % n_cut)
        scan_limit = 2 * n_cut + _WINDOW_EXTRA
        u_terms = seqU.terms(scan_limit + 1)
        settled = x + u_max         # no V term above it moves a position taken so far
        u_max = max(u_max, *map(abs, u_terms[len(lefts):]))
        m_big = _growth_index(envV, x + u_max, field)
        if m_big >= len(entries):
            v_terms = seqV.terms(m_big + 1)
            if min(v_terms[len(entries):]) <= settled:
                lefts, rights = [], []
            entries = sorted(zip(v_terms, range(m_big + 1)))
            values = [v for v, _ in entries]
        lefts += [bisect_left(values, u - x) for u in u_terms[len(lefts):]]
        rights += [bisect_right(values, u + x) for u in u_terms[len(rights):]]
        hits = list(compress(count(), map(lt, lefts, rights)))
        if not hits or hits[-1] <= n_cut:
            break
        if rounds >= 2:
            _refuse_recurring_hits(seqU, seqV, envU, envV, [
                (n, m) for n in hits if n > n_cut for _, m in entries[lefts[n]:rights[n]]],
                2 * hits[-1] + _WINDOW_EXTRA)
        n_cut = hits[-1]

    # past n_cut every run is empty: the V values nearest U_n sit at left - 1 and left
    gap_margin = min((abs(u_terms[n] - values[j]) for n in range(n_cut + 1, scan_limit + 1)
                      for j in (lefts[n] - 1, lefts[n]) if 0 <= j < len(values)), default=None)
    runs = [(n, u_terms[n], lefts[n], rights[n]) for n in hits]
    cover = [0] * (len(entries) + 1)    # runs opening less runs closing at each entry
    for _, _, left, right in runs:
        cover[left] += 1
        cover[right] -= 1
    m_cut = max(compress([m for _, m in entries], accumulate(cover)), default=0)
    return runs, entries, n_cut, m_cut, gap_margin


def _distinct(runs, values, xs, bands, start=_COLD):
    """The (e, T(e), S(e)) of the runs at each band edge e, ascending, for
    the pairs with |c| < e, and the set of values c = U_n - V_m taken more
    than once.

    |c| is split at every x + 1 and at 2^b_j for b_j = int(bits(max xs)
    sqrt(j / bands)), j = 1 .. bands - 1: the pairs with |c| < 2^b grow
    like b^2, so each band holds about T / bands of them.  Each band is
    gathered one sign at a time from every run, between the bisections of
    the run at its two edges; c = 0 belongs to the non-negative side only.
    A side of _RESIDUE_BAND pairs or more computes only its tied differences
    (_tied_differences), a smaller one all of them; either sorts what it
    computed and counts adjacent equal values.  The bands ascend in |c|, so
    the running totals at the edge x + 1 are T(x) and S(x).

    ``start`` is (e, T(e), S(e), the values with |c| < e taken more than
    once) of these runs for some e <= min(xs) + 1; the walk starts there.
    """
    e, T, S, repeated = start
    bits = max(xs).bit_length()
    edges = sorted(edge for edge in {*(x + 1 for x in xs),
                                     *(1 << int(bits * math.sqrt(j / bands))
                                       for j in range(1, bands))}
                   if edge > e)
    checkpoints, repeated = [(e, T, S)], set(repeated)
    us = [u for _, u, _, _ in runs]
    # per run, the first entry with u - v < e (v > u - e) and with v - u >= max(e, 1)
    above = [bisect_right(values, u - e, left, right) for _, u, left, right in runs]
    below = [bisect_left(values, u + max(e, 1), left, right) for _, u, left, right in runs]
    residues = None
    for hi in edges:
        next_above = [bisect_right(values, u - hi, left, a)
                      for (_, u, left, _), a in zip(runs, above)]
        next_below = [bisect_left(values, u + hi, b, right)
                      for (_, u, _, right), b in zip(runs, below)]
        # lo <= u - v < hi, then max(lo, 1) <= v - u < hi
        for starts, stops in ((next_above, above), (below, next_below)):
            pairs = sum(map(sub, stops, starts))
            if _RESIDUE_BAND <= pairs < 1 << 32:        # a position fits 32 bits
                if residues is None:
                    residues = _residues(us, values)
                diffs = _tied_differences(us, values, starts, stops, *residues)
            else:
                diffs = [u - v for u, a, b in zip(us, starts, stops) for v in values[a:b]]
            diffs.sort()
            equal = list(compress(diffs, map(eq, diffs, islice(diffs, 1, None))))
            T += pairs
            S += pairs - len(equal)
            repeated.update(equal)
        above, below = next_above, next_below
        checkpoints.append((hi, T, S))
    return checkpoints, repeated


def _residues(us, values):
    """The residues mod _PRIME of the us and of the values, as int64 arrays."""
    import numpy

    return (numpy.array([u % _PRIME for u in us], dtype=numpy.int64),
            numpy.array([v % _PRIME for v in values], dtype=numpy.int64))


def _tied_differences(us, values, starts, stops, u_res, v_res):
    """The differences u - v, v in values[start:stop] for each u, of the pairs
    whose residue mod _PRIME another pair shares; every other pair takes a
    value that no pair here shares.

    Each pair is packed into one machine word, (c mod p) << 32 | its
    position, and the words are sorted once: equal high halves are adjacent.
    Only the tied positions are mapped back to (u, v), so equal values, which
    always tie, are found by exact integers whatever the prime.
    """
    import numpy

    starts, stops = (numpy.array(a, dtype=numpy.int64) for a in (starts, stops))
    counts = stops - starts
    ends = numpy.cumsum(counts)
    firsts = ends - counts                  # the position of each run's first pair
    pairs = int(ends[-1])
    # a pair's V index steps by one within a run and jumps from the last
    # entry of one run to the first of the next: a cumulative sum of steps,
    # so that at most two band-sized arrays are alive at a time
    steps = numpy.ones(pairs, dtype=numpy.int64)
    filled = counts > 0
    jumps = starts[filled]
    jumps[1:] -= stops[filled][:-1] - 1
    steps[firsts[filled]] = jumps
    words = v_res[numpy.cumsum(steps, out=steps)]
    del steps
    numpy.subtract(numpy.repeat(u_res, counts), words, out=words)
    words %= _PRIME
    words <<= 32
    words |= numpy.arange(pairs, dtype=numpy.int64)
    words.sort()
    same = (words[1:] ^ words[:-1]) < 1 << 32
    tied = numpy.zeros(pairs, dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    positions = words[tied] & 0xFFFFFFFF
    run = numpy.searchsorted(ends, positions, side="right")
    index = starts[run] + positions - firsts[run]
    return [us[r] - values[j] for r, j in zip(run.tolist(), index.tolist())]


def _start(tally, runs, values, n_cut, n_entries, limit):
    """The start of a walk over these runs, as _distinct takes it: the
    highest edge e <= limit of the pair's kept tally, when its region nests
    with the runs' (one holds the other) and the runs hold its T(e) pairs
    with |c| < e.  _COLD when there is no tally or no such edge e >= 1;
    e = 0 covers no |c|."""
    if tally is None or (n_cut - tally.n_cut) * (n_entries - tally.n_entries) < 0:
        return _COLD
    i = bisect_right(tally.checkpoints, limit, key=itemgetter(0)) - 1
    if i < 0 or tally.checkpoints[i][0] < 1:
        return _COLD
    e, T, S = tally.checkpoints[i]
    if T != sum(bisect_left(values, u + e, left, right) - bisect_right(values, u - e, left, right)
                for _, u, left, right in runs):
        return _COLD
    return e, T, S, frozenset(c for c in tally.repeated if abs(c) < e)


def _count(seqU, seqV, xs, envU, envV):
    """The one enumeration pass, at max(xs), and the banded tally of
    c = U_n - V_m for every x of xs.

    Returns (counts, runs, entries, repeated): one CountResult per x, in
    order, all with the pass's cutoffs and gap margin; runs and entries as
    in _enumerate_pairs; repeated the values c taken by two or more pairs.
    One band of about 2^17 pairs is alive at a time, whatever T is.

    The walk starts where _start finds the pair's kept tally to agree with
    these runs, so only e <= |c| <= max(xs) is tallied.  The new tally,
    which holds the edges of this walk only, replaces the kept one unless
    that one reaches a larger x.
    """
    xs = [_parse_x_int(x) for x in xs]
    if envU is None:
        envU = analyze_sequence(seqU).envelope
    if envV is None:
        envV = analyze_sequence(seqV).envelope
    for seq, env in ((seqU, envU), (seqV, envV)):
        minimal = minimal_recurrence(seq) or seq     # an envelope is never the zero sequence's
        if (env.sequence.coefficients, env.sequence.initial_terms) != \
                (minimal.coefficients, minimal.initial_terms):
            raise ValueError("the envelope given for %r is that of %r"
                             % (seq.name, env.sequence.name))
    runs, entries, n_cut, m_cut, gap_margin = _enumerate_pairs(seqU, seqV, max(xs), envU, envV)
    values = [v for v, _ in entries]
    key = seqU, seqV
    with _TALLIES_LOCK:
        kept = _TALLIES.get(key)
    start = _start(kept, runs, values, n_cut, len(entries), min(xs) + 1)
    pairs = sum(right - left for _, _, left, right in runs)
    checkpoints, repeated = _distinct(runs, values, xs, max(1, pairs >> 17), start)
    tally = _Tally(tuple(checkpoints[-_CHECKPOINT_CAP:]), frozenset(repeated),
                   n_cut, len(entries))
    with _TALLIES_LOCK:
        kept = _TALLIES.pop(key, tally)
        _TALLIES[key] = kept if kept.checkpoints[-1][0] > tally.checkpoints[-1][0] else tally
        if len(_TALLIES) > _TALLY_CAP:
            _TALLIES.popitem(last=False)
    totals = {e: (T, S) for e, T, S in checkpoints}
    counts = [CountResult(x, *totals[x + 1], n_cut, m_cut, gap_margin, "fast") for x in xs]
    return counts, runs, entries, repeated


def count_T_S(seqU: LinearRecurrence, seqV: LinearRecurrence, x: int,
              envU: GrowthEnvelope = None, envV: GrowthEnvelope = None
              ) -> CountResult:
    """Exact T(x) and S(x) via envelope-seeded enumeration with a verified
    safety window.  An envelope given for a sequence must come from one with
    the same minimal recurrence, or ValueError is raised."""
    return _count(seqU, seqV, [x], envU, envV)[0][0]


def find_collisions(seqU: LinearRecurrence, seqV: LinearRecurrence, x: int) -> CollisionScan:
    """Report all c = U_n - V_m with >= 2 counted representations and the
    empirical repeat-index witnesses."""
    (count,), runs, entries, repeated = _count(seqU, seqV, [x], None, None)
    groups = {c: [] for c in sorted(repeated)}
    for n, u, left, right in runs:
        for v, m in entries[left:right]:
            if u - v in groups:
                groups[u - v].append((n, m))
    # runs ascend in n, and equal values within a run ascend in m, so each
    # list of representations is already sorted
    records = tuple(CollisionRecord(c, tuple(reps), reps[-1][0], max(m for _, m in reps))
                    for c, reps in groups.items())
    n_emp = max((r.representations[0][0] for r in records), default=0)
    m_emp = max((min(m for _, m in r.representations) for r in records), default=0)
    return CollisionScan(records, n_emp, m_emp, count)


# ---------------------------------------------------------------------------
# real-base explorer (transcendental bases, interval arithmetic)


NAMED_BASES = ("pi", "e")


@dataclass(frozen=True)
class RealPowerCount:
    alpha: str
    beta: str
    x: Fraction
    T: int
    pairs: tuple
    n_cut: int
    m_cut: int
    precision_bits: int        # the precision that decided every comparison


def _base_value(field, spec: str):
    if spec == "pi":
        return field.pi()
    if spec == "e":
        return field.e()
    return field.real(Fraction(spec))


def _parse_base(spec) -> str:
    if isinstance(spec, str) and spec in NAMED_BASES:
        return spec
    return str(Fraction(str(spec)))     # decimal literals are exact rationals


def count_real_power_pairs(alpha_expr, beta_expr, x, precision_bits: int = 200
                           ) -> RealPowerCount:
    """Count (n, m) with |alpha^n - beta^m| <= x for real bases > 1.

    Comparisons are decided with certified margin.  With two rational bases a
    comparison the intervals leave open is decided exactly, so a tie such as
    |1.1^1 - 2^0| = 0.1 counts; with pi or e it is refined, and at the
    precision cap it raises PrecisionExhausted rather than guessing.  Rational
    bases with alpha^p = beta^q, where T is infinite, raise ValueError.
    """
    alpha_key = _parse_base(alpha_expr)
    beta_key = _parse_base(beta_expr)
    if alpha_key == beta_key:
        raise ValueError("explorer requires distinct (independent-presumed) bases")
    x = Fraction(str(x)) if not isinstance(x, (int, Fraction)) else Fraction(x)
    if x <= 0:
        raise ValueError("x must be positive")

    for label, key in (("alpha", alpha_key), ("beta", beta_key)):
        if key not in NAMED_BASES and Fraction(key) <= 1:
            raise ValueError("%s must exceed 1" % label)
    exact = None if {alpha_key, beta_key} & set(NAMED_BASES) else (
        Fraction(alpha_key), Fraction(beta_key))
    if exact is not None:
        relation = multiplicative_independence(*map(AlgebraicNumber.from_rational, exact))
        if relation.status == "dependent":
            raise ValueError("dependent bases: alpha^%d = beta^%d, so T is infinite"
                             % (relation.n, relation.m))
    undecided = []

    def scan(f):
        """(pairs, last hit, precision) at the precision of f, with running
        powers; None when |alpha^n - beta^m| straddles x there."""
        alpha, beta, xr = _base_value(f, alpha_key), _base_value(f, beta_key), f.real(x)
        pairs, last_hit, n, a_pow = [], -1, 0, f.real(1)
        while True:
            m, b_pow = 0, f.real(1)
            # beyond reach: beta^m - alpha^n > x certified ends the m loop
            while not certainly_greater(b_pow - a_pow, xr):
                diff = abs(a_pow - b_pow)
                hit = certainly_le(diff, xr)
                if not hit and not certainly_greater(diff, xr):
                    if exact is None:
                        undecided.append((n, m))
                        return None
                    hit = abs(exact[0] ** n - exact[1] ** m) <= x
                if hit:
                    pairs.append((n, m))
                    last_hit = n
                m += 1
                if m > 10 ** 6:
                    raise CutoffUnsafe("m loop runaway")
                b_pow *= beta
            if n >= 2 * max(last_hit, 0) + 8:
                return pairs, last_hit, f.prec
            n += 1
            if n > 10 ** 6:
                raise CutoffUnsafe("n loop runaway")
            a_pow *= alpha

    try:
        pairs, last_hit, bits = ladder(precision_bits, scan, "")
    except PrecisionExhausted as exc:
        raise PrecisionExhausted("|alpha^%d - beta^%d| straddles x at the precision cap"
                                 % undecided[-1], bits=exc.bits) from None
    m_cut = max((m for _, m in pairs), default=0)
    return RealPowerCount(alpha_key, beta_key, x, len(pairs), tuple(pairs),
                          max(last_hit, 0), m_cut, bits)
