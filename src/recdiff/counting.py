"""Exact counting of Pillai-type differences U_n - V_m.

T(x) counts pairs (n, m) with |U_n - V_m| <= x; S(x) counts the distinct
values c = U_n - V_m with |c| <= x.  All integer-sequence comparisons are
exact big-integer arithmetic.  The fast counter trusts a verified safety
window (after the last admitted n it rescans a window of equal length and
demands every difference exceed x), not the impractically large effective
bounds; the window is re-verified after every extension and the computation
fails loudly (CutoffUnsafe) instead of reporting a possibly wrong count.

The enumeration keeps, for each U_n, only an index run [left, right) into
the value-sorted V terms.  T and S are counted band by band: each band of
|c| (one sign at a time) gathers its differences from every run by
bisection, sorts them and counts adjacent equal values.  Only one band of
big-integer differences is alive at a time, so the memory of a count grows
with n_cut + m_cut and the band size, not with T(x).  A pass at the largest
x of a grid covers every smaller x, so a grid is enumerated once.

The real-base explorer (pi^n vs e^m) is the one interval-arithmetic consumer;
every comparison there is decided with certified margin or refined.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import mpf_gt, mpi_mul

from .errors import CutoffUnsafe, PrecisionExhausted
from .independence import multiplicative_independence
from .intervals import (
    IntervalField,
    certainly_greater,
    certainly_le,
    ladder,
)
from .recurrences import LinearRecurrence
from .spectral import GrowthEnvelope, analyze_sequence

_WINDOW_EXTRA = 16          # indices scanned past twice the cutoff, each round
_HARD_CAP = 100000          # largest n cutoff before the window counts as a runaway


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
    u_terms = [seqU.term(n) for n in range(n_cap + 1)]
    v_terms = [seqV.term(m) for m in range(m_cap + 1)]
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

    The loop steps on mpmath's raw interval tuples: the same outward-rounded
    products at the field's precision as interval objects would give, but
    without building one per step, which made this search most of the cost
    of a count at small x.
    """
    mod = env.certificate.modulus()
    value = (field.real(env.c_lower) * mod ** env.n0)._mpi_
    step, thr_upper = mod._mpi_, field.real(threshold)._mpi_[1]
    n = env.n0
    while not mpf_gt(value[0], thr_upper):
        value = mpi_mul(value, step, field.prec)
        n += 1
        if n > 10 ** 7:
            raise CutoffUnsafe("growth index search runaway")
    return n


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
    non-empty run appear, in increasing n.  From the third window round on,
    a provably recurring hit raises ValueError.
    """
    field = IntervalField(96)
    n_cut = max(_growth_index(envU, 2 * x + 2, field), 4)
    rounds = 0
    while True:
        rounds += 1
        if n_cut > _HARD_CAP or rounds > 64:
            raise CutoffUnsafe(
                "cutoff extension runaway at n_cut=%d (near-collisions keep "
                "appearing beyond the window)" % n_cut)
        scan_limit = 2 * n_cut + _WINDOW_EXTRA
        u_terms = [seqU.term(n) for n in range(scan_limit + 1)]
        u_max = max(abs(u) for u in u_terms)
        m_big = _growth_index(envV, x + u_max, field)
        entries = sorted((seqV.term(m), m) for m in range(m_big + 1))
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
    if gap_margin is not None and gap_margin <= x:
        raise CutoffUnsafe("safety window contains an unadmitted near-collision")
    return runs, entries, n_cut, m_cut, gap_margin


def _distinct(runs, values, xs, bands):
    """(T(x), S(x)) of the runs for each x of xs, in order, and the set of
    values c = U_n - V_m taken more than once.

    |c| is split at every x + 1 and at 2^int(bits(max xs) sqrt(j / bands)),
    j = 1 .. bands - 1: the pairs with |c| < 2^b grow like b^2, so each band
    holds about T / bands of them.  Each band is gathered one sign at a time
    by bisecting every run, sorted, and scanned for adjacent equal values;
    c = 0 belongs to the non-negative side only.  The bands ascend in |c|,
    so the running totals at the edge x + 1 are T(x) and S(x).
    """
    bits = max(xs).bit_length()
    edges = sorted({0, *(x + 1 for x in xs),
                    *(1 << int(bits * math.sqrt(j / bands)) for j in range(1, bands))})
    T = S = 0
    totals, repeated = {}, set()
    for lo, hi in zip(edges, edges[1:]):
        for negative in (False, True):
            diffs = []
            for _, u, left, right in runs:
                if negative:        # max(lo, 1) <= v - u < hi
                    a = bisect_left(values, u + max(lo, 1), left, right)
                    b = bisect_left(values, u + hi, a, right)
                else:               # lo <= u - v < hi
                    a = bisect_right(values, u - hi, left, right)
                    b = bisect_right(values, u - lo, a, right)
                diffs += [u - v for v in values[a:b]]
            diffs.sort()
            equal = [c for c, d in zip(diffs, diffs[1:]) if c == d]
            T += len(diffs)
            S += len(diffs) - len(equal)
            repeated.update(equal)
        totals[hi] = T, S
    return [totals[x + 1] for x in xs], repeated


def _count(seqU, seqV, xs, envU, envV):
    """The one enumeration pass, at max(xs), and the banded tally of
    c = U_n - V_m for every x of xs.

    Returns (counts, runs, entries, repeated): one CountResult per x, in
    order, all with the pass's cutoffs and gap margin; runs and entries as
    in _enumerate_pairs; repeated the values c taken by two or more pairs.
    About 2^17 differences are alive at a time, whatever T is.
    """
    xs = [_parse_x_int(x) for x in xs]
    if envU is None:
        envU = analyze_sequence(seqU).envelope
    if envV is None:
        envV = analyze_sequence(seqV).envelope
    for seq, env in ((seqU, envU), (seqV, envV)):
        if (env.sequence.coefficients, env.sequence.initial_terms) != \
                (seq.coefficients, seq.initial_terms):
            raise ValueError("the envelope given for %r is that of %r"
                             % (seq.name, env.sequence.name))
    runs, entries, n_cut, m_cut, gap_margin = _enumerate_pairs(seqU, seqV, max(xs), envU, envV)
    pairs = sum(right - left for _, _, left, right in runs)
    totals, repeated = _distinct(runs, [v for v, _ in entries], xs, max(1, pairs >> 17))
    counts = [CountResult(x, T, S, n_cut, m_cut, gap_margin, "fast")
              for x, (T, S) in zip(xs, totals)]
    return counts, runs, entries, repeated


def count_T_S(seqU: LinearRecurrence, seqV: LinearRecurrence, x: int,
              envU: GrowthEnvelope = None, envV: GrowthEnvelope = None
              ) -> CountResult:
    """Exact T(x) and S(x) via envelope-seeded enumeration with a verified
    safety window.  An envelope given for a sequence must come from one with
    the same coefficients and initial terms, or ValueError is raised."""
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
    precision_bits: int


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

    Comparisons are decided with certified margin; an undecidable comparison
    at the precision cap raises PrecisionExhausted rather than guessing.
    """
    alpha_key = _parse_base(alpha_expr)
    beta_key = _parse_base(beta_expr)
    if alpha_key == beta_key:
        raise ValueError("explorer requires distinct (independent-presumed) bases")
    x = Fraction(str(x)) if not isinstance(x, (int, Fraction)) else Fraction(x)
    if x <= 0:
        raise ValueError("x must be positive")

    field = IntervalField(precision_bits)
    for label, key in (("alpha", alpha_key), ("beta", beta_key)):
        if not certainly_greater(_base_value(field, key), field.real(1)):
            raise ValueError("%s must exceed 1" % label)
    undecided = []

    def scan(f):
        """(pairs, last hit) at the precision of f, with running powers; None
        when |alpha^n - beta^m| straddles x there."""
        alpha, beta, xr = _base_value(f, alpha_key), _base_value(f, beta_key), f.real(x)
        pairs, last_hit, n, a_pow = [], -1, 0, f.real(1)
        while True:
            m, b_pow = 0, f.real(1)
            # beyond reach: beta^m - alpha^n > x certified ends the m loop
            while not certainly_greater(b_pow - a_pow, xr):
                diff = abs(a_pow - b_pow)
                if certainly_le(diff, xr):
                    pairs.append((n, m))
                    last_hit = n
                elif not certainly_greater(diff, xr):
                    undecided.append((n, m))
                    return None
                m += 1
                if m > 10 ** 6:
                    raise CutoffUnsafe("m loop runaway")
                b_pow *= beta
            if n >= 2 * max(last_hit, 0) + 8:
                return pairs, last_hit
            n += 1
            if n > 10 ** 6:
                raise CutoffUnsafe("n loop runaway")
            a_pow *= alpha

    try:
        pairs, last_hit = ladder(precision_bits, scan, "")
    except PrecisionExhausted as exc:
        raise PrecisionExhausted("|alpha^%d - beta^%d| straddles x at the precision cap"
                                 % undecided[-1], bits=exc.bits) from None
    m_cut = max((m for _, m in pairs), default=0)
    return RealPowerCount(alpha_key, beta_key, x, len(pairs), tuple(pairs),
                          max(last_hit, 0), m_cut, precision_bits)
