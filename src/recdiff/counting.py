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
the value-sorted V terms; at the largest x of a grid T(x) and P(x) are
read from the runs.  S(x) comes from the distinct pairs (u, v) of values:
P(x) of them have |u - v| <= x, and S = P - sum of (d(c) - 1) over the
values c, |c| <= x, that d(c) >= 2 of them take.  So T - S = (T - P) +
sum (d(c) - 1): the families, where a value repeats in U or in V (F_1 =
F_2) and one pair (u, v) stands for several pairs (n, m), plus the
sporadic surplus.  A sweep finds the ties, the c with d(c) >= 2, with work
that grows with n_cut + m_cut, not with T.  With K = 2^_SPLIT = 4,

- a row block holds, for one u, the v with K|v| <= |u|: one contiguous
  range of the sorted V values, so its c = u - v are distinct and lie in
  an exactly known range;
- a column block holds, for one v != 0, the u with K|u| <= |v|;
- every other pair is balanced, |u| < K|v| and |v| < K|u|, and is listed:
  for lacunary terms about log(K^2) / log|beta| of them per U term.

So d(c) >= 2 needs a balanced pair taking c or two blocks whose c-ranges
meet.  The blocks sorted by range start give the stretches of c that two or
more of them cover, and only those stretches of the blocks are listed.
Outside them a value lies in at most one block, found by one C-level
bisection pass; Python decides a value in that block's range, or sharing a
hash, by bisecting for u - c among the V values or v + c among the U values.
Every tie is found exactly whatever K >= 2 is: K only moves pairs between
the blocks and the balanced list, and so sets the speed (with K = 2 the row
blocks of Fibonacci terms overlap, and the stretches hold nearly every
pair).  A pass at the largest x of a grid covers every smaller x, so a grid
is enumerated once.

Certified real comparisons are interval arithmetic: the growth index of an
envelope, on 96-bit intervals, and the real-base explorer (pi^n vs e^m),
where every comparison is decided with certified margin or refined.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, count, repeat, starmap
from operator import gt, itemgetter, le, lt, ne, or_, sub

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
_SPLIT = 2                  # log2 of the sweep's K: any K >= 2 finds the same ties


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
    raw endpoints.  A guess from their log2 (mantissa and exponent: no float
    overflows) is returned when certified and the n before it is not; else
    probes at n0, n0 + 2, n0 + 6, ... bracket the first certified n, and a
    bisection finds it.  An index past n = 10^7 is a runaway.
    """
    prec, mod_low = field.prec, env.certificate.modulus()._mpi_[0]
    c_low, thr_upper = field.real(env.c_lower)._mpi_[0], field.real(threshold)._mpi_[1]

    def certified(n):
        power = mpf_pow_int(mod_low, n, prec, round_floor)
        return mpf_gt(mpf_mul(c_low, power, prec, round_floor), thr_upper)

    slope, low, high = (math.log2(e[1] or 1) + e[2] for e in (mod_low, c_low, thr_upper))
    guess = max(env.n0, math.floor((high - low) / slope) + 1) if slope > 0 else env.n0
    if guess <= 10 ** 7 and certified(guess) and (guess == env.n0 or not certified(guess - 1)):
        return guess
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
        lefts += map(bisect_left, repeat(values), [u - x for u in u_terms[len(lefts):]])
        rights += map(bisect_right, repeat(values), [u + x for u in u_terms[len(rights):]],
                      lefts[len(rights):])
        hits = list(compress(count(), map(lt, lefts, rights)))
        if not hits or hits[-1] <= n_cut:
            break
        if rounds >= 2:
            _refuse_recurring_hits(seqU, seqV, envU, envV, [
                (n, m) for n in hits if n > n_cut for _, m in entries[lefts[n]:rights[n]]],
                2 * hits[-1] + _WINDOW_EXTRA)
        n_cut = hits[-1]

    # past n_cut every run is empty: the V values nearest U_n sit at left - 1
    # and left; read cyclically, an index past one end gives the other end,
    # which lies farther from U_n
    tail, starts = u_terms[n_cut + 1:], lefts[n_cut + 1:]
    below = [values[left - 1] for left in starts]
    above = [values[left % len(values)] for left in starts]
    gap_margin = min(map(abs, map(sub, tail * 2, below + above)))
    runs = [(n, u_terms[n], lefts[n], rights[n]) for n in hits]
    cover = [0] * (len(entries) + 1)    # runs opening less runs closing at each entry
    for _, _, left, right in runs:
        cover[left] += 1
        cover[right] -= 1
    m_cut = max(compress([m for _, m in entries], accumulate(cover)), default=0)
    return runs, entries, n_cut, m_cut, gap_margin


def _cut(fixed, others, x, edge, side):
    """For the edges edge(f), |edge(f)| <= K|f| + 1, of the ascending f of
    fixed, the indices bisect_left(others, edge(f)) with edge(f) clamped to
    [f - x, f + x + 1]: the w of the sorted others with |f - w| <= x between
    two edges lie between their indices.  Only an f with (K + 1)|f| >= x
    needs the clamp.  The edges are at most 1 when side < 0, else at least
    0, so only the others < 1, or >= 0, are searched, and only if any are."""
    m = (x - 1) >> _SPLIT + 1       # 2K m < x, so (K + 1)|f| < x for |f| <= m
    lo, hi = (0, bisect_left(others, 1)) if side < 0 else (bisect_left(others, 0), len(others))
    cut = list(map(bisect_left, repeat(others), map(edge, fixed), repeat(lo), repeat(hi))) \
        if lo < hi else [lo] * len(fixed)
    for i in [*range(bisect_left(fixed, -m)), *range(bisect_right(fixed, m), len(fixed))]:
        f = fixed[i]
        cut[i] = bisect_left(others, min(max(edge(f), f - x), f + x + 1))
    return cut


def _ties(us, vs, x):
    """(ties, blocks, balanced) of the sweep: ties maps each value c = u - v,
    |c| <= x, that two or more distinct pairs (u, v) take to those pairs,
    sorted; balanced lists the balanced pairs (u, v).

    us and vs are the sorted distinct U and V values.  A block is (lo, hi,
    sign, f, others, a, b): a row is (u, V values, 1), a column (v, U
    values, -1), and c = sign (f - w) runs monotonically from one end of
    [lo, hi] to the other over w in others[a:b].  The listed pairs keep no
    c: C-level passes hash each difference and find its block, and Python
    takes it again only where a block or another pair may share it.
    """
    # rows -h <= v <= h and balanced h < |v| < K|u|, for h = |u| // K; the
    # cuts of u = 0 cross, which leaves its balanced ranges empty
    p, a, b, q = (_cut(us, vs, x, lambda u: 1 - (abs(u) << _SPLIT), -1),
                  _cut(us, vs, x, lambda u: -(abs(u) >> _SPLIT), -1),
                  _cut(us, vs, x, lambda u: (abs(u) >> _SPLIT) + 1, 1),
                  _cut(us, vs, x, lambda u: abs(u) << _SPLIT, 1))
    blocks = [(u - vs[j - 1], u - vs[i], 1, u, vs, i, j) for u, i, j in zip(us, a, b) if i < j]
    balanced = [(u, v) for u, h, i, j, k in zip(us, p, a, b, q) for v in vs[h:i] + vs[j:k]]
    # columns -h <= u <= h for v != 0, h = |v| // K
    blocks += [(us[a] - v, us[b - 1] - v, -1, v, us, a, b) for v, a, b
               in zip(vs, _cut(vs, us, x, lambda v: -(abs(v) >> _SPLIT), -1),
                      _cut(vs, us, x, lambda v: (abs(v) >> _SPLIT) + 1, 1)) if a < b and v]

    # reaches[i], the furthest hi among the first i blocks; the front, after
    # a sentinel, the blocks reaching further than all starting before them;
    # the stretches [p, q] of c that two or more blocks cover, disjoint and
    # ascending, whose pairs are listed from every block meeting them
    blocks.sort(key=itemgetter(0))
    reaches = list(accumulate([block[1] for block in blocks], max, initial=-x - 1))
    front = [(-x - 1, -x - 1, 1, 0, [0])] + [block for block, reach in zip(blocks, reaches)
                                             if block[1] > reach]
    shared = []
    for lo, hi in [(block[0], min(block[1], reach))
                   for block, reach in zip(blocks, reaches) if block[0] <= reach]:
        if shared and lo <= shared[-1][1]:
            shared[-1][1] = max(shared[-1][1], hi)
        else:
            shared.append([lo, hi])
    listed, ends = balanced[:], [q for _, q in shared]
    for lo, hi, sign, f, others, a, b in blocks if shared else ():
        for p, q in shared[bisect_left(ends, lo):bisect_right(ends, hi) + 1]:
            if p > hi:
                break
            w_lo, w_hi = (f - q, f - p) if sign > 0 else (f + p, f + q)
            listed += [(f, w) if sign > 0 else (w, f)
                       for w in others[bisect_left(others, w_lo, a, b):
                                       bisect_right(others, w_hi, a, b)]]

    # two pairs take c when two listed pairs do or a listed pair and a block
    # does.  Outside the stretches a c lies in one block at most, its owner,
    # the last of the front starting at or below it, which holds c when c <=
    # hi and w = f - sign c is one of its others.  C-level passes hash every
    # c and find its owner, and only a c that is at most its owner's hi or
    # whose hash repeats is taken again
    starts, his = [block[0] for block in front[1:]], [block[1] for block in front]
    hashes = list(map(hash, starmap(sub, listed)))
    seen = Counter(hashes)
    owners = map(bisect_right, repeat(starts), starmap(sub, listed))
    held = map(le, starmap(sub, listed), map(his.__getitem__, owners))
    at = defaultdict(set)           # c -> its pairs, for each c that may tie
    for pair, h in compress(zip(listed, hashes),
                            map(or_, held, map(gt, map(seen.__getitem__, hashes), repeat(1)))):
        c = pair[0] - pair[1]
        _, hi, sign, f, others = front[bisect_right(starts, c)][:5]
        w = f - c if sign > 0 else f + c
        other = (f, w) if sign > 0 else (w, f)
        if seen[h] > 1:
            at[c].add(pair)
        if c <= hi and others[bisect_left(others, w) % len(others)] == w and other != pair:
            at[c].update((pair, other))
    return {c: sorted(pairs) for c, pairs in at.items() if len(pairs) > 1}, blocks, balanced


def _within(values, keys, x, lows, highs):
    """The number of pairs (k, w), k of keys and w of the sorted values
    between the bisection bounds lows[i] and highs[i] of keys[i], with
    |k - w| <= x."""
    above = sum(map(bisect_right, repeat(values), [k + x for k in keys], lows, highs))
    return above - sum(map(bisect_left, repeat(values), [k - x for k in keys], lows, highs))


def _count(seqU, seqV, xs, envU, envV):
    """The one enumeration pass, at max(xs), and T and S for every x of xs.

    Returns (counts, ties, runs, entries): one CountResult per x, in order,
    all with the pass's cutoffs and gap margin; ties as _ties gives them for
    max(xs) and the distinct values of the runs; runs and entries as in
    _enumerate_pairs.  S(x) is P(x), the distinct pairs (u, v) with
    |u - v| <= x, less d(c) - 1 for each tie c.  Below max(xs), T and P are
    bisection sums over the values and the distinct values; at max(xs) both
    are read from the runs, P from one run per distinct u, whose distinct
    values a prefix count of where each new value starts gives.
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
    _, us, lefts, rights = zip(*runs) if runs else ((),) * 4
    values = [v for v, _ in entries]
    us_set = sorted(dict.fromkeys(us))
    vs_set = list(dict.fromkeys(values[min(lefts, default=0):max(rights, default=0)]))
    ties = _ties(us_set, vs_set, max(xs))[0]
    news = list(accumulate(map(ne, values, values[1:]), initial=0))
    top = sum(news[right - 1] - news[left] + 1
              for left, right in dict(zip(us, zip(lefts, rights))).values())
    counts = []
    for x in xs:
        T = sum(rights) - sum(lefts) if x == max(xs) else _within(values, us, x, lefts, rights)
        P = top if x == max(xs) else _within(vs_set, us_set, x, repeat(0), repeat(len(vs_set)))
        S = P - sum(len(pairs) - 1 for c, pairs in ties.items() if abs(c) <= x)
        counts.append(CountResult(x, T, S, n_cut, m_cut, gap_margin, "fast"))
    return counts, ties, runs, entries


def count_T_S(seqU: LinearRecurrence, seqV: LinearRecurrence, x: int,
              envU: GrowthEnvelope = None, envV: GrowthEnvelope = None
              ) -> CountResult:
    """Exact T(x) and S(x) via envelope-seeded enumeration with a verified
    safety window.  An envelope given for a sequence must come from one with
    the same minimal recurrence, or ValueError is raised."""
    return _count(seqU, seqV, [x], envU, envV)[0][0]


def find_collisions(seqU: LinearRecurrence, seqV: LinearRecurrence, x: int) -> CollisionScan:
    """Report all c = U_n - V_m with >= 2 counted representations and the
    empirical repeat-index witnesses: the ties of the sweep, and the family
    values of one pair (u, v) whose u repeats in U or v in V, found by
    bisection around the repeated values only."""
    (count,), ties, runs, entries = _count(seqU, seqV, [x], None, None)
    ns, ms = defaultdict(list), defaultdict(list)     # the indices taking each value, ascending
    for n, u, _, _ in runs:
        ns[u].append(n)
    for v, m in entries:
        ms[v].append(m)
    us, vs = sorted(ns), sorted(ms)
    pairs_of = {u - v: [(u, v)] for u in us if len(ns[u]) > 1       # the family values
                for v in vs[bisect_left(vs, u - count.x):bisect_right(vs, u + count.x)]}
    pairs_of.update({u - v: [(u, v)] for v in vs if len(ms[v]) > 1
                     for u in us[bisect_left(us, v - count.x):bisect_right(us, v + count.x)]})
    pairs_of.update(ties)
    records = []
    for c in sorted(pairs_of):
        reps = sorted((n, m) for u, v in pairs_of[c] for n in ns[u] for m in ms[v])
        records.append(CollisionRecord(c, tuple(reps), reps[-1][0], max(m for _, m in reps)))
    n_emp = max((r.representations[0][0] for r in records), default=0)
    m_emp = max((min(m for _, m in r.representations) for r in records), default=0)
    return CollisionScan(tuple(records), n_emp, m_emp, count)


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
