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
the value-sorted V terms.  T(x) is read from the runs, and S(x) from the
identity S = T - sum of (r(c) - 1) over the values c, |c| <= x, that
r(c) >= 2 pairs (n, m) take.  A sweep finds those ties with work that grows
with n_cut + m_cut, not with T.  It works on the distinct values: u, taken
by mu(u) indices n of the runs, and v, taken by nu(v) indices m, so a pair
(u, v) stands for mu(u) nu(v) pairs (n, m).  With K = 2^_SPLIT = 4,

- a row block holds, for one u, the v with K|v| <= |u|: one contiguous
  range of the sorted V values, so its c = u - v are distinct and lie in
  an exactly known range;
- a column block holds, for one v != 0, the u with K|u| <= |v|;
- every other pair is balanced, |u| < K|v| and |v| < K|u|, and is listed:
  for lacunary terms about log(K^2) / log|beta| of them per U term.

So r(c) >= 2 needs a pair with mu nu >= 2, a balanced pair taking c, or two
blocks whose c-ranges meet.  The blocks sorted by range start give the
stretches of c that two or more of them cover, and only those stretches of
the blocks are listed.  Outside them a value lies in at most one block,
found by bisection and decided by one lookup (u - c among the V values,
v + c among the U values).  Every tie is found exactly whatever K >= 2 is:
K only moves pairs between the blocks and the balanced list, and so sets
the speed (with K = 2 the row blocks of Fibonacci terms overlap, and the
stretches hold nearly every pair).  A pass at the largest x of a grid
covers every smaller x, so a grid is enumerated once.

Certified real comparisons are interval arithmetic: the growth index of an
envelope, on 96-bit intervals, and the real-base explorer (pi^n vs e^m),
where every comparison is decided with certified margin or refined.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, count, repeat, starmap
from operator import itemgetter, le, lt, sub

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
        lefts += map(bisect_left, repeat(values), [u - x for u in u_terms[len(lefts):]])
        rights += map(bisect_right, repeat(values), [u + x for u in u_terms[len(rights):]])
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


def _cut(fixed, others, x, edge):
    """For the edges edge[i], |edge[i]| <= K|f| + 1 with f = fixed[i] and
    fixed ascending, the indices bisect_left(others, edge[i]) with edge[i]
    clamped to [f - x, f + x + 1]: the w of the sorted others with
    |f - w| <= x between two edges lie between their indices.  Only an f
    with (K + 1)|f| >= x needs the clamp."""
    m = (x - 1) >> _SPLIT + 1       # 2K m < x, so (K + 1)|f| < x for |f| <= m
    cut = list(map(bisect_left, repeat(others), edge))
    for i in [*range(bisect_left(fixed, -m)), *range(bisect_right(fixed, m), len(fixed))]:
        f = fixed[i]
        cut[i] = bisect_left(others, min(max(edge[i], f - x), f + x + 1))
    return cut


def _ties(mu, nu, x):
    """(ties, blocks, balanced) of the sweep: ties maps each value c = u - v,
    |c| <= x, that r(c) >= 2 index pairs take to (r(c), its pairs (u, v));
    balanced lists the balanced pairs (u, v).

    mu and nu map the distinct values u and v to their multiplicities.  A
    block is (lo, hi, sign, f, others, a, b): a row is (u, V values, 1), a
    column (v, U values, -1), and c = sign (f - w) runs monotonically from
    one end of [lo, hi] to the other over w in others[a:b].  The listed
    pairs keep no c: their differences are taken again where needed, and
    two of them can share a c only when they share its hash.
    """
    us, vs = sorted(mu), sorted(nu)
    # rows -h <= v <= h and balanced h < |v| < K|u|, for h = |u| // K, one
    # list of edges alive at a time; the cuts of u = 0 cross, which leaves
    # its balanced ranges empty
    cuts = list(zip(us, _cut(us, vs, x, [1 - (abs(u) << _SPLIT) for u in us]),
                    _cut(us, vs, x, [-(abs(u) >> _SPLIT) for u in us]),
                    _cut(us, vs, x, [(abs(u) >> _SPLIT) + 1 for u in us]),
                    _cut(us, vs, x, [abs(u) << _SPLIT for u in us])))
    blocks = [(u - vs[b - 1], u - vs[a], 1, u, vs, a, b) for u, _, a, b, _ in cuts if a < b]
    balanced = [(u, v) for u, p, a, b, q in cuts for v in vs[p:a] + vs[b:q]]
    # columns -h <= u <= h for v != 0, h = |v| // K
    blocks += [(us[a] - v, us[b - 1] - v, -1, v, us, a, b) for v, a, b
               in zip(vs, _cut(vs, us, x, [-(abs(v) >> _SPLIT) for v in vs]),
                      _cut(vs, us, x, [(abs(v) >> _SPLIT) + 1 for v in vs])) if a < b and v]

    # reaches[i], the furthest hi among the first i blocks; the front, after
    # a sentinel, the blocks reaching further than all starting before them;
    # the stretches [p, q] of c that two or more blocks cover, disjoint and
    # ascending, whose pairs are listed from every block meeting them
    blocks.sort(key=itemgetter(0))
    reaches = list(accumulate([block[1] for block in blocks], max, initial=-x - 1))
    front = [(-x - 1, -x - 1, 1, 0)] + [block for block, reach in zip(blocks, reaches)
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

    # r(c) >= 2 when two listed pairs take c, a listed pair and a block do,
    # or a pair standing for mu nu >= 2 index pairs does.  Outside the
    # stretches a c lies in one block at most, the last of the front starting
    # at or below it, which holds c when w = f - sign c is a value; so a c
    # that no listed pair takes has one pair at most
    hashes = list(map(hash, starmap(sub, listed)))
    seen = Counter(hashes)
    starts = [block[0] for block in front[1:]]
    leaders = list(map(front.__getitem__,
                       map(bisect_right, repeat(starts), starmap(sub, listed))))
    inside = list(map(le, starmap(sub, listed), map(itemgetter(1), leaders)))
    at = defaultdict(list)          # c -> its pairs, for each c that may tie
    for (u, v), (_, _, sign, f, _, _, _) in zip(compress(listed, inside),
                                                compress(leaders, inside)):
        w = f - sign * (u - v)
        if w in (nu if sign > 0 else mu):
            pair = (f, w) if sign > 0 else (w, f)
            if pair not in at[u - v]:
                at[u - v].append(pair)
    # each pair standing for several index pairs, with its surplus mu nu - 1
    heavy = [(u - v, (u, v), k * nu[v] - 1) for u, k in mu.items() if k > 1
             for v in vs[bisect_left(vs, u - x):bisect_right(vs, u + x)]]
    heavy += [(u - v, (u, v), k - 1) for v, k in nu.items() if k > 1
              for u in us[bisect_left(us, v - x):bisect_right(us, v + x)] if mu[u] == 1]
    ties = {c: (1 + extra, [pair]) for c, pair, extra in heavy if hash(c) not in seen}
    surplus = defaultdict(int)
    for c, pair, extra in heavy:
        if hash(c) in seen:
            surplus[c] += extra
            if pair not in at[c]:
                at[c].append(pair)
    candidates = at.keys() | surplus.keys() | {
        u - v for u, v in compress(listed, [seen[h] > 1 for h in hashes])}
    wanted = set(map(hash, candidates))
    for u, v in compress(listed, map(wanted.__contains__, hashes)):
        if u - v in candidates and (u, v) not in at[u - v]:
            at[u - v].append((u, v))
    ties.update({c: (len(at[c]) + surplus[c], at[c]) for c in candidates})
    return {c: tie for c, tie in ties.items() if tie[0] > 1}, blocks, balanced


def _count(seqU, seqV, xs, envU, envV):
    """The one enumeration pass, at max(xs), and T and S for every x of xs.

    Returns (counts, ties, runs, entries): one CountResult per x, in order,
    all with the pass's cutoffs and gap margin; ties as _ties gives them for
    max(xs); runs and entries as in _enumerate_pairs.  T(x) is read from
    the runs and S(x) is T(x) - sum of (r(c) - 1) over the ties with
    |c| <= x.
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
    ties, _, _ = _ties(Counter(us), Counter(values[min(lefts, default=0):max(rights, default=0)]),
                       max(xs))
    counts = []
    for x in xs:
        T = sum(rights) - sum(lefts) if x == max(xs) else \
            sum(map(bisect_right, repeat(values), [u + x for u in us], lefts, rights)) - \
            sum(map(bisect_left, repeat(values), [u - x for u in us], lefts, rights))
        S = T - sum(r - 1 for c, (r, _) in ties.items() if abs(c) <= x)
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
    empirical repeat-index witnesses."""
    (count,), ties, runs, entries = _count(seqU, seqV, [x], None, None)
    ns, ms = defaultdict(list), defaultdict(list)     # the indices taking each value, ascending
    for n, u, _, _ in runs:
        ns[u].append(n)
    for v, m in entries:
        ms[v].append(m)
    records = []
    for c in sorted(ties):
        reps = sorted((n, m) for u, v in ties[c][1] for n in ns[u] for m in ms[v])
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
