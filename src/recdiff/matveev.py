"""Matveev's lower bound for linear forms in logarithms, certified evaluation
of the linear form itself, and the effective upper-bound chain.

The chain composes growth envelopes with the Matveev bound to produce
coefficient records n_max(|c|) = P + Q log|c| + R (loglog|c|)^2 (Q exactly
1/log|dominant root|).  The constants are astronomically large, so the
records are verifiable artifacts of effectivity, not enumeration cutoffs;
every constant is written to a provenance ledger with its defining formula
and a rigor flag.

The envelope (``spectral``) proves each side's growth constants and its
floor on |a(n)|; this module rounds them to floats, each bound on its
certified side, and proves the Matveev step and the mlogm threshold, which
``asymptotics`` fuzzes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameters, PrecisionExhausted, UnsupportedDegree
from .heights import compound_height, height_constant_probe, log_height
from .independence import multiplicative_independence
from .intervals import (
    _field_at,
    certainly_greater,
    ladder,
    lower_float,
    midpoint_float,
    upper_float,
)
from .quadratic import QuadraticElement
from .spectral import SequenceAnalysis, _decomposition_at


@dataclass(frozen=True)
class MatveevInput:
    t: int                 # number of logarithms
    D: int                 # field degree
    B: float               # >= max |b_i|
    A: tuple               # A_1..A_t, each >= max{D h(gamma_i), |log gamma_i|, 0.16}

    def __post_init__(self):
        if self.t < 1 or self.D < 1:
            raise ValueError("t and D must be positive integers")
        if not 1 <= self.B < math.inf:          # NaN fails every comparison
            raise ValueError("B must be finite and >= 1")
        if len(self.A) != self.t:
            raise ValueError("need exactly t values A_1..A_t")
        if not all(0.16 <= a < math.inf for a in self.A):
            raise ValueError("each A_i must be finite and >= 0.16")


def matveev_constant(t: int, D: int) -> float:
    """Matveev's constant C(t, D) = 3 * 30^(t+4) * (t+1)^5.5 * D^2 (1+log D)."""
    return 3.0 * 30.0 ** (t + 4) * (t + 1) ** 5.5 * D * D * (1.0 + math.log(D))


def matveev_lower_bound(inp: MatveevInput) -> float:
    """-C(t, D) (1+log tB) A_1...A_t."""
    value = matveev_constant(inp.t, inp.D) * (1.0 + math.log(inp.t * inp.B))
    for a in inp.A:
        value *= a
    return -value


@dataclass(eq=False)
class LinearFormSample:
    n: int
    m: int
    lambda_abs: object          # certified interval for |Lambda|
    status: str                 # "nonzero" | "zero" | "undecided"

    @property
    def log_lambda_lower(self) -> float:
        return math.log(lower_float(self.lambda_abs))


def _exact_dominant_side(cert, idx):
    """a(idx) alpha^idx exactly (a(X) lies in alpha's field), or None above order 2."""
    decomp = cert.decomposition
    if decomp.exact is None:
        return None
    i = cert.root_index
    coeffs = decomp.exact[i]
    acc = QuadraticElement.from_rational(0)
    power = QuadraticElement.from_rational(1)
    for c in coeffs:
        acc = acc + c * power
        power = power * idx
    return acc * (decomp.spectrum.roots[i].exact ** idx)


def lambda_value(u: SequenceAnalysis, v: SequenceAnalysis, n: int, m: int) -> LinearFormSample:
    """Certified interval for |Lambda| = |a(n) alpha^n / (b(m) beta^m) - 1|.

    Zero detection is exact in degree <= 2 (quadratic-field arithmetic);
    otherwise an interval containing zero is returned flagged "undecided".
    """
    certU, certV = u.certificate, v.certificate
    status = None
    exact_u = _exact_dominant_side(certU, n)
    exact_v = _exact_dominant_side(certV, m)
    if exact_u is not None and exact_v is not None:
        if exact_v.is_zero():
            raise ZeroDivisionError("b(m) beta^m = 0 exactly")
        status = "zero" if exact_u == exact_v else "nonzero"

    undecided = []

    def at(decomp, field):
        if field.prec <= decomp.spectrum.precision_bits:
            return decomp
        found = _decomposition_at(decomp.sequence, field)
        return found and found[0]

    def attempt(field):
        du, dv = at(u.decomposition, field), at(v.decomposition, field)
        if du is None or dv is None:
            return None
        iu, iv = certU.root_index, certV.root_index
        num = du.coefficient_value(iu, n) * (du.spectrum.roots[iu].box ** n)
        den = dv.coefficient_value(iv, m) * (dv.spectrum.roots[iv].box ** m)
        if den.contains_zero():
            return None
        lam = (num / den - 1).modulus()
        if status == "zero":
            return LinearFormSample(n, m, lam, "zero")
        if certainly_greater(lam, field.real(0)):
            return LinearFormSample(n, m, lam, "nonzero")
        undecided.append(lam)       # not separated from zero at this rung
        return None

    try:
        return ladder(192, attempt, "|Lambda| interval did not separate from zero")
    except PrecisionExhausted:
        if status is not None or not undecided:
            raise
    return LinearFormSample(n, m, undecided[-1], "undecided")


# ---------------------------------------------------------------------------
# effective upper-bound chain


@dataclass(frozen=True)
class ConstantRecord:
    name: str
    value: float
    formula: str
    rigorous: bool = True


@dataclass(frozen=True)
class BoundRecord:
    """index_max(|c|) = P + Q log c + R (loglog c)^2 evaluated at c = max(|c|, c0)."""

    P: float
    Q: float
    R: float

    def evaluate(self, c_abs, c0: float) -> float:
        c_eff = max(abs(c_abs), c0)
        lc = math.log(c_eff)
        return self.P + self.Q * lc + self.R * math.log(lc) ** 2


@dataclass(eq=False)
class EffectiveBounds:
    n_bound: BoundRecord
    m_bound: BoundRecord
    c0: float
    ledger: tuple
    rigorous: bool

    def n_max(self, c_abs) -> float:
        return self.n_bound.evaluate(c_abs, self.c0)

    def m_max(self, c_abs) -> float:
        return self.m_bound.evaluate(c_abs, self.c0)


def _log_plus(x: float) -> float:
    return max(0.0, math.log(x)) if x > 0 else 0.0


def _compositum_degree(alpha, beta) -> int:
    """[Q(alpha, beta):Q] bound: 2 for two roots of one quadratic field, else
    the product of the degrees."""
    if alpha.degree == beta.degree == 2 and alpha.exact.shares_field(beta.exact):
        return 2
    return alpha.degree * beta.degree


def _log_abs_upper(box, is_real, field) -> float:
    """Upper bound for |log z| (principal branch) over the box of z: the
    larger endpoint magnitude of log|z|, plus pi off the positive reals."""
    log_mod = field.log(box.modulus())
    log_abs = max(abs(lower_float(log_mod)), abs(upper_float(log_mod)))
    if is_real and lower_float(box.re) > 0:
        return log_abs
    return math.hypot(log_abs, upper_float(field.pi()))


def _matveev_a_value(cert, field, D) -> float:
    root = cert.root
    h = upper_float(log_height(root))
    return max(D * h, _log_abs_upper(root.box, root.is_real, field), 0.16)


def _rational_poly_k_constant(coeffs) -> float | None:
    """K with h(p(n)) <= K log n for n >= 2, for rational coefficients."""
    fracs = []
    for c in coeffs:
        if not c.is_rational:
            return None
        fracs.append(c.a)
    deg = len(fracs) - 1
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // math.gcd(denom, f.denominator)
    coeff_sum = float(sum(abs(f) for f in fracs))
    return deg + _log_plus(denom * (coeff_sum + 1.0)) / math.log(2)


def _a1_constant(certU, certV, D, field):
    """(C10, rigorous, formula) with A_1 = C10 log max(n, m) valid for n, m >= 2."""
    decompU, decompV = certU.decomposition, certV.decomposition
    pu = decompU.exact[certU.root_index] if decompU.exact is not None else None
    qv = decompV.exact[certV.root_index] if decompV.exact is not None else None
    if pu is not None and qv is not None:
        if len(pu) == 1 and len(qv) == 1:
            try:
                ratio = pu[0] / qv[0]
                h = compound_height(ratio)
                log_term = _log_abs_upper(ratio.box(field), ratio.is_rational or ratio.d > 0,
                                          field)
                c10 = max(D * h, log_term, 0.16) / math.log(2)
                return c10, True, "max{D h(a/b), |log(a/b)|, 0.16}/log 2 (constant ratio)"
            except UnsupportedDegree:
                pass
        else:
            kp = _rational_poly_k_constant(pu)
            kq = _rational_poly_k_constant(qv)
            if kp is not None and kq is not None:
                c10 = max(D * (kp + kq), 0.16 / math.log(2))
                return (c10, True,
                        "D (K_p + K_q), K = deg + log(den (1+sum|coef|))/log 2")
    # empirical fallback: sampled max of the height quantity over a window
    best = 0.16 / math.log(2)
    iu, iv = certU.root_index, certV.root_index
    for n in range(2, 62, 6):
        for m in range(2, 62, 6):
            num = decompU.coefficient_value(iu, n)
            den = decompV.coefficient_value(iv, m)
            if den.contains_zero():
                continue
            ratio = num / den
            mod = ratio.modulus()
            if lower_float(mod) <= 0:
                continue
            happrox = abs(math.log(midpoint_float(mod)))   # crude height stand-in
            best = max(best, max(D * happrox, happrox, 0.16) / math.log(max(n, m)))
    return 1.5 * best, False, "1.5 x sampled max of the A_1 quantity (non-rigorous)"


def _fixpoint_threshold(fn) -> float:
    """Smallest x = 3 * 2^k > e^4 with fn(x) <= x.  The chain's fn are a
    nonnegative constant plus nonnegative multiples of log, loglog, log^2 and
    log^4, so fn(y)/y does not increase for y >= e^4 and fn(y) <= y then
    holds for every y >= x."""
    x = 3.0
    for _ in range(256):
        if x > math.exp(4.0) and fn(x) <= x:
            return x
        x *= 2.0
    return x


def _mlogm_threshold(k, c) -> float:
    """A point from which the hypotheses of the mlogm lemma hold for every n:
    n >= e^(sqrt 2 / sqrt c) and k^2 c^2 (log n)^4 <= n."""
    thr1 = math.exp(math.sqrt(2.0) / math.sqrt(c)) if c > 0 else 3.0
    return max(thr1, _fixpoint_threshold(lambda x: (k * c) ** 2 * math.log(x) ** 4))


@dataclass(frozen=True)
class _Side:
    """One sequence's inputs to the chain, read once from its analysis."""

    la: float           # log|root|
    lap: float          # log alpha'
    c_lower: float
    c_upper: float
    a_prime: float
    sigma: int
    n0: int
    a_floor: float      # |a(n)| >= a_floor for n >= n0: the envelope's, rounded down


def _rounded(env, name: str, down: bool) -> float:
    """The float nearest the envelope constant ``name`` on its certified
    side: at most it when down, at least it otherwise.  The chain's
    arithmetic is floats, so a constant past their range refuses it."""
    bound = getattr(env, name)
    try:
        f = float(bound)
    except OverflowError:
        raise InvalidParameters("envelope constant %s of %r is past the float range of "
                                "the bound chain" % (name, env.sequence.name)) from None
    if Fraction(f) > bound if down else Fraction(f) < bound:
        f = math.nextafter(f, -math.inf if down else math.inf)
    return f


def _side(analysis: SequenceAnalysis) -> _Side:
    env = analysis.envelope
    return _Side(analysis.certificate.log_modulus_mid, math.log(float(env.alpha_prime)),
                 _rounded(env, "c_lower", True), _rounded(env, "c_upper", False),
                 _rounded(env, "a_prime", False), env.sigma, env.n0,
                 _rounded(env, "a_floor", True))


def _case2_constants(prefix, suffix, C_boundfor, main, other, C11, C12, ledger):
    """Case 2 block: the main index n satisfies |c| < (main inner base)^n.

    Returns (C17, C18, threshold) with (other index) <= C17 (log n)^2 and
    log|c| >= n log|main root| - C18 (log n)^2 for n >= threshold.
    """
    la, lb, lap, lbp = main.la, other.la, main.lap, other.lap
    tau = other.sigma
    C15 = C_boundfor / 2.0 + (la + lap) / lb + main.sigma * (1.0 / math.e) / lb
    inv_gamma = max((math.exp(lap) / math.exp(la)) ** (1.0 / C15),
                    math.exp(lbp) / math.exp(lb))
    log_gamma = -math.log(inv_gamma)
    C16 = C12                   # the case 2 envelope sums the same C7 + C8 + C9
    C17 = (C11 * (1.0 + _log_plus(C15)) ** 2 + _log_plus(C16)) / log_gamma
    C18 = C17 * lb + _log_plus(other.c_upper) + abs(math.log(main.c_lower)) \
        + tau * _log_plus(C17) + 2.0 * tau
    ledger.append(ConstantRecord(prefix + "15" + suffix, C15,
                                 "bound-for constant/2 + (log main + log main')/log other"
                                 " + sigma/(e log other)"))
    ledger.append(ConstantRecord(prefix + "16" + suffix, C16,
                                 "C7 + C8 + C9 (case 2 envelope)"))
    ledger.append(ConstantRecord(prefix + "17" + suffix, C17,
                                 "(C11 (1+log+ C15)^2 + log+ C16)/log gamma"))
    ledger.append(ConstantRecord(prefix + "18" + suffix, C18,
                                 "C17 log other + log+ C_upper + |log C_lower|"
                                 " + tau log+ C17 + 2 tau"))
    # growth validity: C1 alpha^n >= C4 (C17 (log n)^2)^tau beta^(C17 (log n)^2) + 2
    def growth_gap(x):
        lx = math.log(x)
        rhs = math.log(other.c_upper + 2.0) + tau * (_log_plus(C17) + 2.0 * math.log(max(lx, 1.0))) \
            + C17 * lx * lx * lb + 2.0
        return (rhs - math.log(main.c_lower)) / la

    thr_growth = _fixpoint_threshold(growth_gap)
    return C17, C18, max(thr_growth, _mlogm_threshold(1.0 / la, C18 / la), 3.0)


def _directional_chain(U, V, C10, A2, A3, D, ledger, primed=False):
    """One directional chain (wlog |alpha|^n <= |beta|^m) over the sides U and
    V.  Returns (Q, R, P) for n, the same for m, and (C17, C17b)."""
    la, lb = U.la, V.la
    p = "C" if not primed else "C'"

    C5 = (math.log(V.c_upper) - math.log(U.c_lower) + 2.0 * math.log(2.0)) / la
    C6 = (math.log(U.c_upper) - math.log(V.c_lower) + 2.0 * math.log(2.0)) / lb
    C7 = U.a_prime / V.a_floor
    C8 = V.a_prime / V.a_floor
    C9 = 1.0 / V.a_floor
    C11 = matveev_constant(3, D) * (1.0 + (1.0 + math.log(3.0)) / math.log(2.0)) \
        * C10 * A2 * A3
    C12 = C7 + C8 + C9
    C13 = max(1.0 / U.lap, 1.0 / V.lap)
    C14 = C11 * (1.0 + _log_plus(C13)) ** 2 + _log_plus(C12)

    ledger.extend([
        ConstantRecord(p + "5", C5, "(log C4 - log C1 + 2 log 2)/log a"),
        ConstantRecord(p + "6", C6, "(log C2 - log C3 + 2 log 2)/log b"),
        ConstantRecord(p + "7", C7, "a'/inf|b(m)|"),
        ConstantRecord(p + "8", C8, "b'/inf|b(m)|"),
        ConstantRecord(p + "9", C9, "1/inf|b(m)|"),
        ConstantRecord(p + "11", C11,
                       "C(3,D) (1 + (1+log 3)/log 2) C10 A2 A3"),
        ConstantRecord(p + "12", C12, "C7 + C8 + C9 (case 1 envelope)"),
        ConstantRecord(p + "13", C13, "max(1/log a', 1/log b')"),
        ConstantRecord(p + "14", C14, "C11 (1 + log+ C13)^2 + log+ C12"),
    ])

    # case 2a bounds n; case 2b is its mirror and bounds m
    C17a, C18a, thr2a = _case2_constants(p, "", C6, U, V, C11, C12, ledger)
    C17b, C18b, thr2b = _case2_constants(p, "b", C5, V, U, C11, C12, ledger)

    r_n = max(C14 / la, 4.0 * C18a / la)
    r_m = max(C14 / lb, 4.0 * C18b / lb)
    p_n = max(float(U.n0) + 1.0, thr2a, 3.0)
    p_m = max(float(V.n0) + 1.0, thr2b, 3.0)
    return (1.0 / la, r_n, p_n), (1.0 / lb, r_m, p_m), (C17a, C17b)


def effective_upper_bounds(u: SequenceAnalysis, v: SequenceAnalysis) -> EffectiveBounds:
    """Compose the effective chain into n_max/m_max coefficient records."""
    field = _field_at(192)
    certU, certV = u.certificate, v.certificate
    alpha, beta = certU.root, certV.root
    independence = multiplicative_independence(alpha, beta)
    if independence.status == "dependent":
        raise ValueError("dominant roots are multiplicatively dependent: "
                         "alpha^%d = beta^%d" % (independence.n, independence.m))
    rigorous = independence.status != "unknown"

    D = _compositum_degree(alpha, beta)
    A2 = _matveev_a_value(certU, field, D)
    A3 = _matveev_a_value(certV, field, D)
    C10, c10_rig, c10_formula = _a1_constant(certU, certV, D, field)
    rigorous = rigorous and c10_rig

    ledger = [
        ConstantRecord("D", float(D), "[Q(alpha, beta):Q] (upper bound)"),
        ConstantRecord("A2", A2, "max{D h(alpha), |log alpha|, 0.16}"),
        ConstantRecord("A3", A3, "max{D h(beta), |log beta|, 0.16}"),
        ConstantRecord("C10", C10, c10_formula, c10_rig),
    ]

    side_u, side_v = _side(u), _side(v)
    a_n, a_m, (c17a, c17b) = _directional_chain(side_u, side_v, C10, A2, A3, D, ledger)
    # branch B bounds (m, n) in its own orientation
    b_m, b_n, (c17a_b, c17b_b) = _directional_chain(side_v, side_u, C10, A3, A2, D, ledger,
                                                    primed=True)
    q_n, q_m = a_n[0], a_m[0]
    r_n, r_m = max(a_n[1], b_n[1]), max(a_m[1], b_m[1])
    p_n, p_m = max(a_n[2], b_n[2]), max(a_m[2], b_m[2])
    c0 = max(16.0, math.e ** math.e, math.exp(2.0 * side_u.la), math.exp(2.0 * side_v.la))

    # small-index contributions: in case 2a of branch A m <= C17 (log n)^2 with
    # n <= n_max; the mirrored statements contribute symmetric R terms
    scale_n = 1.0 + _log_plus(p_n + q_n + r_n) + 3.0
    scale_m = 1.0 + _log_plus(p_m + q_m + r_m) + 3.0
    r_m = max(r_m, c17a * scale_n ** 2, c17b_b * scale_n ** 2)
    r_n = max(r_n, c17b * scale_m ** 2, c17a_b * scale_m ** 2)

    # Lambda = 0 branch: C0 max{n,m} <= C10 log 2 * log max{n,m}
    try:
        probe = height_constant_probe(alpha, beta, 8, assume_independent=True)
        c0_height = probe.c0_emp
        c0_rig = alpha.exact is not None and alpha.exact.is_rational and \
            beta.exact is not None and beta.exact.is_rational
    except UnsupportedDegree:
        c0_height, c0_rig = None, False
    if c0_height and c0_height > 0:
        ratio = C10 * math.log(2.0) / c0_height
        zero_branch = _fixpoint_threshold(lambda x: ratio * math.log(x))
        ledger.append(ConstantRecord("C0", c0_height,
                                     "empirical height-growth witness (probe minimum)",
                                     c0_rig))
        rigorous = rigorous and c0_rig
        p_n = max(p_n, zero_branch)
        p_m = max(p_m, zero_branch)
    else:
        rigorous = False

    ledger.append(ConstantRecord("c0", c0, "validity threshold for |c|"))
    ledger.append(ConstantRecord("Q_n", q_n, "1/log|alpha| (exact)"))
    ledger.append(ConstantRecord("Q_m", q_m, "1/log|beta| (exact)"))
    ledger.append(ConstantRecord("R_n", r_n, "max over cases of the (loglog)^2 slope"))
    ledger.append(ConstantRecord("R_m", r_m, "max over cases of the (loglog)^2 slope"))
    ledger.append(ConstantRecord("P_n", p_n, "max over cases of the additive threshold"))
    ledger.append(ConstantRecord("P_m", p_m, "max over cases of the additive threshold"))

    return EffectiveBounds(BoundRecord(p_n, q_n, r_n), BoundRecord(p_m, q_m, r_m),
                           c0, tuple(ledger), rigorous)
