"""Main-term evaluation, the lower-bound index grid, convergence reports, and
fuzz checks for the two auxiliary inequalities.

The lower-bound grid realises the elementary construction: indices below
log x / log|root| minus a loglog correction give |U_n|, |V_m| <= x/2, so every
grid pair is a solution.  Its validity threshold is computed from the
envelope constants and recorded, since "x large enough" must be concrete to
be testable.

Each lemma's threshold has one implementation, which its fuzz check draws
from: forLowerBound's is this module's, the one the grid applies, and
mlogm's is matveev's, the one the bound chain applies.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .counting import _count, _parse_x_int, brute_force_oracle
from .errors import InvalidBelowThreshold, InvalidParameters
from .matveev import _mlogm_threshold
from .spectral import DominantRootCertificate, GrowthEnvelope, _log_float, analyze_sequence

_VERIFY_LIMIT = 10 ** 6     # largest grid that lower_bound_grid checks


def main_term_value(log_alpha: float, log_beta: float, x) -> float:
    """(log x)^2 / (log|alpha| log|beta|), natural logs."""
    if x <= 1:
        raise ValueError("x must exceed 1")
    return math.log(x) ** 2 / (log_alpha * log_beta)


def main_term(cert_alpha: DominantRootCertificate, cert_beta: DominantRootCertificate, x) -> float:
    return main_term_value(cert_alpha.log_modulus_mid, cert_beta.log_modulus_mid, x)


@dataclass(frozen=True)
class LowerBoundGrid:
    x: int | Fraction | float       # as given, never rounded to float
    n_max: float
    m_max: float
    count: int
    verified: bool


def _grid_axis(env: GrowthEnvelope, z: float, loglog_x: float):
    """(axis bound, validity threshold) for one sequence."""
    la = env.certificate.log_modulus_mid
    c = env.sigma / la + 1.0
    d = (_log_float(env.c_upper) + math.log(2.0)) / la
    return z / la - c * loglog_x, _for_lower_bound_threshold(1.0 / la, c, d)


def lower_bound_grid(envU: GrowthEnvelope, envV: GrowthEnvelope, x) -> LowerBoundGrid:
    """Grid of indices certified to satisfy |U_n - V_m| <= x, with exact
    verification of every pair, by the extreme terms, when the grid is small."""
    if x <= math.e:
        raise InvalidBelowThreshold("need x > e so that loglog x > 0")
    z = _log_float(x) if isinstance(x, Fraction) else math.log(x)
    loglog_x = math.log(z)
    n_max, thr_u = _grid_axis(envU, z, loglog_x)
    m_max, thr_v = _grid_axis(envV, z, loglog_x)
    if z < thr_u or z < thr_v:
        raise InvalidBelowThreshold(
            "log x = %.6g below the construction threshold max(%.6g, %.6g)"
            % (z, thr_u, thr_v))
    if n_max < 0 or m_max < 0:
        raise InvalidBelowThreshold("grid is empty at x = %s" % x)
    count = (int(n_max) + 1) * (int(m_max) + 1)
    verified = False
    if count <= _VERIFY_LIMIT:
        x_exact = Fraction(x) if not isinstance(x, int) else x
        u_terms = envU.sequence.terms(int(n_max) + 1)
        v_terms = envV.sequence.terms(int(m_max) + 1)
        # every |U_n - V_m| <= x exactly when max U - min V <= x and max V - min U <= x
        for u_pick, v_pick in ((max, min), (min, max)):
            n = u_pick(range(len(u_terms)), key=u_terms.__getitem__)
            m = v_pick(range(len(v_terms)), key=v_terms.__getitem__)
            if abs(u_terms[n] - v_terms[m]) > x_exact:
                raise RuntimeError(
                    "grid verification failed at (n=%d, m=%d); envelope "
                    "constants are inconsistent" % (n, m))
        verified = True
    return LowerBoundGrid(x, n_max, m_max, count, verified)


@dataclass(frozen=True)
class ReportRow:
    x: int
    T: int
    S: int
    main: float
    t_ratio: float
    s_ratio: float
    grid_count: int | None
    excess: int


@dataclass(frozen=True)
class AsymptoticReport:
    pair: str
    rows: tuple
    k1: float | None       # fitted |T - main| ~ K1 log x loglog x
    k2: float | None       # fitted |T - main| ~ K2 log x (loglog x)^2


def _origin_fit(samples):
    """Least-squares slope through the origin for (feature, value) pairs."""
    num = sum(f * y for f, y in samples)
    den = sum(f * f for f, _ in samples)
    return num / den if den > 0 else None


def ratio_table(seqU, seqV, x_grid, oracle: bool = False) -> AsymptoticReport:
    """One row per x, in grid order: exact counts, main term, ratios, grid
    count, excess.  The grid shares one enumeration pass, at its largest x;
    the oracle checks each row at 3x that pass's cutoffs."""
    analysis_u = analyze_sequence(seqU)
    analysis_v = analyze_sequence(seqV)
    xs = [_parse_x_int(x) for x in x_grid]
    if any(x <= 1 for x in xs):
        raise ValueError("x must exceed 1")
    counts = _count(seqU, seqV, xs, analysis_u.envelope, analysis_v.envelope)[0] if xs else []
    rows = []
    fit1, fit2 = [], []
    for result in counts:
        x = result.x
        if oracle:
            check = brute_force_oracle(seqU, seqV, x,
                                       3 * result.n_cut, 3 * result.m_cut)
            if (check.T, check.S) != (result.T, result.S):
                raise RuntimeError("fast count disagrees with the oracle at x=%d" % x)
        main = main_term(analysis_u.certificate, analysis_v.certificate, x)
        try:
            grid = lower_bound_grid(analysis_u.envelope, analysis_v.envelope, x)
            grid_count = grid.count
        except InvalidBelowThreshold:
            grid_count = None
        rows.append(ReportRow(x, result.T, result.S, main,
                              result.T / main, result.S / main,
                              grid_count, result.T - result.S))
        lx = math.log(x)
        if lx > 1 and math.log(lx) > 0:
            deviation = abs(result.T - main)
            fit1.append((lx * math.log(lx), deviation))
            fit2.append((lx * math.log(lx) ** 2, deviation))
    pair = "%s vs %s" % (seqU.name, seqV.name)
    return AsymptoticReport(pair, tuple(rows), _origin_fit(fit1), _origin_fit(fit2))


# ---------------------------------------------------------------------------
# auxiliary inequalities


@dataclass(frozen=True)
class LemmaCheckResult:
    lemma: str
    trials: int
    passed: bool
    counterexample: dict | None


def _for_lower_bound_threshold(k, c, d) -> float:
    """forLowerBound's hypothesis on z, which the grid checks: z >= max(k^(c-1) e^d, 1).
    A threshold past the float range is infinite: no z meets it."""
    try:
        return max(k ** (c - 1.0) * math.exp(d), 1.0)
    except OverflowError:
        return math.inf


def _check_for_lower_bound(k, c, d, z, n) -> bool:
    return n + (c - 1.0) * math.log(n) + d <= k * z


def _check_mlogm(k, c, z, n) -> bool:
    return n <= k * z + 4.0 * c * math.log(z) ** 2


def auxiliary_inequality_check(lemma: str, trials: int = 10 ** 4,
                               seed: int = 0) -> LemmaCheckResult:
    """Fuzz check of the auxiliary lemmas over random constants and points.

    forLowerBound: k > 0, c >= 1, z >= max(k^(c-1) e^d, 1) and
    n <= k z - c log z imply n + (c-1) log n + d <= k z.  The grid applies it
    at c = 1 for a simple dominant root; the draws here take c > 1.

    mlogm: k, c > 0, n >= N(k, c) = matveev._mlogm_threshold(k, c), z >= 2/k
    and n <= k z + c (log n)^2 imply n <= k z + 4 c (log z)^2.

    Random draws keep a small relative margin inside the hypothesis region so
    that double-precision evaluation of the conclusion is conclusive.
    """
    if lemma not in ("forLowerBound", "mlogm"):
        raise InvalidParameters("unknown lemma %r" % lemma)
    rng = random.Random(seed)
    done = 0
    while done < trials:
        if lemma == "forLowerBound":
            k = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
            c = 1.0 + math.exp(rng.uniform(math.log(0.05), math.log(7.0)))
            d = rng.uniform(-5.0, 5.0)
            z_min = _for_lower_bound_threshold(k, c, d)
            zv = z_min * math.exp(rng.uniform(0.0, 9.0))
            n_hi = (k * zv - c * math.log(zv)) * (1.0 - 1e-9) - 1e-9
            if n_hi < 1.0:
                continue
            nv = rng.uniform(1.0, n_hi)
            ok = _check_for_lower_bound(k, c, d, zv, nv)
            sample = {"k": k, "c": c, "d": d, "z": zv, "n": nv}
        else:
            k = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            c = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            n_min = _mlogm_threshold(k, c)
            nv = n_min * math.exp(rng.uniform(0.0, 10.0))
            z_need = max(2.0 / k, (nv - c * math.log(nv) ** 2) / k, 1.0)
            zv = z_need * (1.0 + rng.uniform(1e-6, 3.0))
            if nv > k * zv + c * math.log(nv) ** 2:
                continue
            ok = _check_mlogm(k, c, zv, nv)
            sample = {"k": k, "c": c, "z": zv, "n": nv}
        done += 1
        if not ok:
            return LemmaCheckResult(lemma, done, False, sample)
    return LemmaCheckResult(lemma, trials, True, None)
