"""Exact counting of Pillai-type differences U_n - V_m.

T(x) counts pairs (n, m) with |U_n - V_m| <= x; S(x) counts the distinct
values c = U_n - V_m with |c| <= x.  All integer-sequence comparisons are
exact big-integer arithmetic.  The fast counter trusts a verified safety
window (after the last admitted n it rescans a window of equal length and
demands every difference exceed x), not the impractically large effective
bounds; the window is re-verified after every extension and the computation
fails loudly (CutoffUnsafe) instead of reporting a possibly wrong count.

The real-base explorer (pi^n vs e^m) is the one interval-arithmetic consumer;
every comparison there is decided with certified margin or refined.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .errors import CutoffUnsafe
from .intervals import (
    IntervalField,
    certainly_greater,
    certainly_le,
    ladder,
)
from .recurrences import LinearRecurrence
from .spectral import GrowthEnvelope, analyze_sequence


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


def brute_force_oracle(seqU: LinearRecurrence, seqV: LinearRecurrence,
                       x: int, n_cap: int, m_cap: int) -> CountResult:
    """Independent oracle: exhaustive double loop, exact integer comparisons.

    Single-threaded by contract so a reviewer can audit it at a glance.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
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


def _envelope_pair(seqU, seqV, envU, envV):
    if envU is None:
        envU = analyze_sequence(seqU).envelope
    if envV is None:
        envV = analyze_sequence(seqV).envelope
    return envU, envV


def _growth_index(env: GrowthEnvelope, threshold, field) -> int:
    """Smallest n >= n0 with c_lower * |alpha|^n certified > threshold."""
    c_low = field.real(env.c_lower)
    mod = env.certificate.modulus()
    thr = field.real(threshold)
    n = env.n0
    value = c_low * mod ** n
    while not certainly_greater(value, thr):
        value = value * mod
        n += 1
        if n > 10 ** 7:
            raise CutoffUnsafe("growth index search runaway")
    return n


def _enumerate_pairs(seqU, seqV, x, envU, envV, window_extra=16,
                     hard_cap=100000):
    """All (n, m, c) with |c| = |U_n - V_m| <= x, plus cutoff metadata.

    Returns (pairs, n_cut, m_cut, gap_margin).  Parallel note: the n-scan
    splits over disjoint ranges with a deterministic merge; this
    implementation keeps it sequential for auditability.
    """
    field = IntervalField(96)
    n_cut = max(_growth_index(envU, 2 * x + 2, field), 4)
    rounds = 0
    while True:
        rounds += 1
        if n_cut > hard_cap or rounds > 64:
            raise CutoffUnsafe(
                "cutoff extension runaway at n_cut=%d (near-collisions keep "
                "appearing beyond the window)" % n_cut)
        scan_limit = 2 * n_cut + window_extra
        u_terms = [seqU.term(n) for n in range(scan_limit + 1)]
        u_max = max(abs(u) for u in u_terms)
        m_big = _growth_index(envV, x + u_max, field)
        entries = sorted((seqV.term(m), m) for m in range(m_big + 1))
        values = [e[0] for e in entries]

        pairs = []
        last_hit = -1
        gap_margin = None
        for n in range(scan_limit + 1):
            u = u_terms[n]
            left = bisect_left(values, u - x)
            right = bisect_right(values, u + x)
            if right > left:
                last_hit = n
                for v, m in entries[left:right]:
                    pairs.append((n, m, u - v))
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
        n_cut = last_hit       # extend and re-verify a fresh window

    m_cut = max((m for _, m, _ in pairs), default=0)
    if gap_margin is not None and gap_margin <= x:
        raise CutoffUnsafe("safety window contains an unadmitted near-collision")
    return pairs, n_cut, m_cut, gap_margin


def count_T_S(seqU: LinearRecurrence, seqV: LinearRecurrence, x: int,
              envU: GrowthEnvelope = None, envV: GrowthEnvelope = None
              ) -> CountResult:
    """Exact T(x) and S(x) via envelope-seeded enumeration with a verified
    safety window."""
    if x < 0:
        raise ValueError("x must be >= 0")
    envU, envV = _envelope_pair(seqU, seqV, envU, envV)
    pairs, n_cut, m_cut, gap_margin = _enumerate_pairs(seqU, seqV, x, envU, envV)
    values = {c for _, _, c in pairs}
    return CountResult(x, len(pairs), len(values), n_cut, m_cut, gap_margin, "fast")


def find_collisions(seqU: LinearRecurrence, seqV: LinearRecurrence, x: int,
                    envU: GrowthEnvelope = None, envV: GrowthEnvelope = None
                    ) -> CollisionScan:
    """Group counted pairs by their difference; report all c with >= 2
    representations and the empirical repeat-index witnesses."""
    if x < 0:
        raise ValueError("x must be >= 0")
    envU, envV = _envelope_pair(seqU, seqV, envU, envV)
    pairs, n_cut, m_cut, gap_margin = _enumerate_pairs(seqU, seqV, x, envU, envV)
    groups = defaultdict(list)
    for n, m, c in pairs:
        groups[c].append((n, m))
    records = []
    for c in sorted(groups):
        reps = sorted(groups[c])
        if len(reps) >= 2:
            records.append(CollisionRecord(c, tuple(reps),
                                           max(n for n, _ in reps),
                                           max(m for _, m in reps)))
    n_emp = max((min(n for n, _ in r.representations) for r in records), default=0)
    m_emp = max((min(m for _, m in r.representations) for r in records), default=0)
    count = CountResult(x, len(pairs), len(groups), n_cut, m_cut, gap_margin, "fast")
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
    alpha = _base_value(field, alpha_key)
    beta = _base_value(field, beta_key)
    for label, base in (("alpha", alpha), ("beta", beta)):
        if not certainly_greater(base, field.real(1)):
            raise ValueError("%s must exceed 1" % label)

    def compare(n, m):
        """Whether |alpha^n - beta^m| <= x, decided with certified margin."""
        def attempt(f):
            diff = abs(_base_value(f, alpha_key) ** n - _base_value(f, beta_key) ** m)
            xr = f.real(x)
            if certainly_le(diff, xr):
                return True
            if certainly_greater(diff, xr):
                return False
            return None

        return ladder(precision_bits, attempt,
                      "|alpha^%d - beta^%d| straddles x at the precision cap" % (n, m))

    pairs = []
    last_hit = -1
    n = 0
    while True:
        a_pow = alpha ** n
        m = 0
        while True:
            b_pow = beta ** m
            # beyond reach: beta^m - alpha^n > x certified ends the m loop
            if certainly_greater(b_pow - a_pow, field.real(x)):
                break
            if compare(n, m):
                pairs.append((n, m))
                last_hit = n
            m += 1
            if m > 10 ** 6:
                raise CutoffUnsafe("m loop runaway")
        if n >= 2 * max(last_hit, 0) + 8:
            break
        n += 1
        if n > 10 ** 6:
            raise CutoffUnsafe("n loop runaway")

    m_cut = max((m for _, m in pairs), default=0)
    return RealPowerCount(alpha_key, beta_key, x, len(pairs), tuple(pairs),
                          max(last_hit, 0), m_cut, precision_bits)
