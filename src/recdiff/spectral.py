"""Characteristic roots, Binet decompositions, dominance certificates, growth envelopes.

All numeric statements produced here are certified: roots are isolated boxes,
the Binet reconstruction is checked to pin down the exact integer term, and
envelope inequalities are verified exactly on a window plus a proved
geometric tail.  A Binet rung is refused before its check loop when a real
root box makes the n = _CHECK_BOUND reconstruction provably too wide to pin
an integer, so the loop's verdict comes without its cost.
``analyze_sequence`` is the one entry point: it climbs ``intervals.ladder``
once for all four stages.

Within one rung the envelope reuses the Binet check loop's products
``a_i(n) * root_i^n`` for n <= _WINDOW: its window and its exact check read
them, and continue the same running powers past _WINDOW, so each product is
computed once and has the bits the check loop gave it.  These rows are
dropped with the rung and never kept on an analysis.  The exact check tests
the squared remainder modulus against the exact square of its bound, which
decides as the interval square root would without taking it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from fractions import Fraction

from mpmath.libmp import (
    from_int,
    mpf_abs,
    mpf_add,
    mpf_le,
    mpf_mul,
    mpf_neg,
    mpf_sub,
    mpi_abs,
    mpi_mul,
    mpi_pow_int,
    mpi_sub,
    round_ceiling,
    round_floor,
)

from ._roots import (
    AlgebraicNumber,
    all_pairwise_disjoint,
    factor_integer_poly,
    isolate_factor_roots,
)
from .errors import NoDominantRoot, RootNotLargerThanOne
from .intervals import (
    ComplexBox,
    IntervalField,
    certainly_greater,
    certainly_le,
    certainly_less,
    contains_zero,
    interval_inf_fraction,
    interval_sup_fraction,
    ladder,
    lower_float,
    midpoint_float,
)
from .quadratic import QuadraticElement
from .recurrences import LinearRecurrence

_CHECK_BOUND = 200         # Binet reconstruction pinned to U_n for n <= _CHECK_BOUND
_VERIFY_TO = 500           # envelope inequalities checked exactly for n0 <= n <= _VERIFY_TO
_WINDOW = 64               # smallest envelope window, largest n0; Binet products kept up to it


@dataclass(eq=False)
class CharacteristicSpectrum:
    sequence: LinearRecurrence
    roots: tuple
    precision_bits: int

    def __post_init__(self):
        assert sum(r.multiplicity for r in self.roots) == self.sequence.order


@dataclass(eq=False)
class BinetDecomposition:
    """U_n = sum_i a_i(n) root_i^n with certified interval coefficients.

    coefficients[i][j] is the degree-j coefficient of a_i(X); for order <= 2
    the same data is also available exactly (quadratic-field elements).
    """

    spectrum: CharacteristicSpectrum
    coefficients: tuple      # per root: tuple of ComplexBox, length = multiplicity
    exact: tuple | None      # same shape with QuadraticElement entries, or None

    @property
    def sequence(self):
        return self.spectrum.sequence

    def coefficient_value(self, i, n) -> ComplexBox:
        coeffs = self.coefficients[i]
        acc = coeffs[-1]
        for j in range(len(coeffs) - 2, -1, -1):
            acc = acc * n + coeffs[j]
        return acc

    def reconstruct(self, n) -> ComplexBox:
        total = None
        for i, root in enumerate(self.spectrum.roots):
            part = self.coefficient_value(i, n) * (root.box ** n)
            total = part if total is None else total + part
        return total


@dataclass(eq=False)
class DominantRootCertificate:
    decomposition: BinetDecomposition
    root_index: int
    sigma: int               # degree of the dominant coefficient polynomial
    margin_lower: Fraction   # certified lower bound on min_i(|alpha| - |alpha_i|)

    @property
    def root(self) -> AlgebraicNumber:
        return self.decomposition.spectrum.roots[self.root_index]

    @property
    def min_poly(self) -> tuple:
        return self.root.min_poly

    @property
    def sequence(self):
        return self.decomposition.sequence

    def modulus(self):
        return self.root.modulus()

    def modulus_bounds(self) -> tuple:
        m = self.modulus()
        return interval_inf_fraction(m), interval_sup_fraction(m)


@dataclass(eq=False)
class GrowthEnvelope:
    """Certified constants: c_lower*|alpha|^n <= |U_n| <= c_upper*n^sigma*|alpha|^n
    and |U_n - a(n) alpha^n| <= a_prime * alpha_prime^n, all for n >= n0.

    For the second sequence of a pair the same fields play the roles of the
    companion constants (lower/upper bound constants, inner base, remainder
    scale, threshold).  Every constant is an exact dyadic rational so that
    downstream interval checks carry no representation slop.
    """

    certificate: DominantRootCertificate
    c_lower: Fraction
    c_upper: Fraction
    alpha_prime: Fraction
    a_prime: Fraction
    n0: int
    sigma: int
    verified_to: int

    @property
    def sequence(self):
        return self.certificate.sequence

    def log_alpha(self, field: IntervalField):
        return field.log(self.certificate.modulus())


@dataclass(eq=False)
class SequenceAnalysis:
    sequence: LinearRecurrence
    spectrum: CharacteristicSpectrum
    decomposition: BinetDecomposition
    certificate: DominantRootCertificate
    envelope: GrowthEnvelope


# ---------------------------------------------------------------------------
# stage 1: spectrum


def _spectrum_at(seq: LinearRecurrence, field: IntervalField):
    factors = factor_integer_poly(seq.characteristic_polynomial())
    eps_bits = max(32, min(field.prec // 4, 256))
    roots = []
    for coeffs, mult in factors:
        isolated = isolate_factor_roots(field, coeffs, eps_bits=eps_bits)
        if isolated is None:
            return None
        roots += [replace(root, multiplicity=mult) for root in isolated]
    if not all_pairwise_disjoint(roots):
        return None
    for r in roots:
        if r.box.contains_zero():     # c_k != 0 forbids a zero root; just unresolved
            return None
    roots.sort(key=lambda r: (-midpoint_float(r.modulus()),
                              -midpoint_float(r.box.re),
                              -midpoint_float(r.box.im)))
    return CharacteristicSpectrum(seq, tuple(roots), field.prec)


# ---------------------------------------------------------------------------
# stage 2: Binet decomposition


def _solve_box_system(matrix, rhs):
    """Gaussian elimination over complex boxes; None when a pivot is ambiguous."""
    k = len(rhs)
    rows = [list(matrix[i]) + [rhs[i]] for i in range(k)]
    for col in range(k):
        pivot_row, pivot_size = None, None
        for r in range(col, k):
            entry = rows[r][col]
            if entry.contains_zero():
                continue
            size = lower_float(entry.abs_squared())
            if pivot_size is None or size > pivot_size:
                pivot_row, pivot_size = r, size
        if pivot_row is None:
            return None
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col][col]
        for r in range(k):
            if r == col:
                continue
            factor = rows[r][col] / pivot
            rows[r] = [rows[r][j] - factor * rows[col][j] for j in range(k + 1)]
    return [rows[i][k] / rows[i][i] for i in range(k)]


def _exact_binet(seq, spectrum):
    """Exact coefficients for order <= 2; None otherwise."""
    k = seq.order
    u0, u1 = seq.initial_terms[0], seq.initial_terms[-1]
    if k == 1:
        return ((QuadraticElement.from_rational(u0),),)
    if k != 2:
        return None
    roots = spectrum.roots
    if len(roots) == 1:           # double rational root r: U_n = (c0 + c1 n) r^n
        r = roots[0].exact
        c0 = QuadraticElement.from_rational(u0)
        c1 = QuadraticElement.from_rational(u1) / r - c0
        return ((c0, c1),)
    r1, r2 = roots[0].exact, roots[1].exact
    denom = r1 - r2
    a1 = (QuadraticElement.from_rational(u1) - r2 * u0) / denom
    a2 = (r1 * u0 - QuadraticElement.from_rational(u1)) / denom
    return ((a1,), (a2,))


def _unique_integer_in(field, re_interval, value: int) -> bool:
    return (certainly_greater(re_interval, field.real(value - 1))
            and certainly_less(re_interval, field.real(value + 1)))


def _check_fails_at_bound(decomp, field) -> bool:
    """True when the n = N = _CHECK_BOUND reconstruction is surely at least 2
    wide, so ``_unique_integer_in`` must fail there: interval arithmetic
    encloses ranges, so a real root box that excludes 0 makes its real part
    at least inf|Re a_i(N)| * (|r|_hi^N - |r|_lo^N) wide."""
    prec, n = field.prec, _CHECK_BOUND
    for i, root in enumerate(decomp.spectrum.roots):
        coeff = decomp.coefficient_value(i, n).re
        if contains_zero(coeff) or contains_zero(root.box.re) or not contains_zero(root.box.im):
            continue
        c, r_lo, r_hi = mpi_abs(coeff._mpi_)[0], *mpi_abs(root.box.re._mpi_)
        spread = mpi_sub(mpi_pow_int((r_hi, r_hi), n, prec),
                         mpi_pow_int((r_lo, r_lo), n, prec), prec)
        if mpf_le(from_int(2), mpi_mul((c, c), spread, prec)[0]):
            return True
    return False


def _binet_at(seq, spectrum, field):
    k = seq.order
    columns = [(i, j) for i, r in enumerate(spectrum.roots) for j in range(r.multiplicity)]
    matrix = []
    for n in range(k):
        row = []
        for (i, j) in columns:
            scale = 1 if j == 0 else n ** j        # 0^0 = 1
            row.append((spectrum.roots[i].box ** n) * scale)
        matrix.append(row)
    rhs = [field.box(seq.initial_terms[n]) for n in range(k)]
    solution = _solve_box_system(matrix, rhs)
    if solution is None:
        return None
    grouped, pos = [], 0
    for r in spectrum.roots:
        grouped.append(tuple(solution[pos:pos + r.multiplicity]))
        pos += r.multiplicity
    exact = _exact_binet(seq, spectrum)
    if exact is not None:
        for i, group in enumerate(exact):       # exact values must overlap the boxes
            for j, val in enumerate(group):
                if val.box(field).is_disjoint_from(grouped[i][j]):
                    return None
    decomp = BinetDecomposition(spectrum, tuple(grouped), exact)
    if _check_fails_at_bound(decomp, field):
        return None
    roots = spectrum.roots
    powers = [field.box(1) for _ in roots]
    rows = []
    for n in range(_CHECK_BOUND + 1):
        parts = [_binet_part(decomp, i, n, powers[i]) for i in range(len(roots))]
        powers = [p * r.box for p, r in zip(powers, roots)]
        if n <= _WINDOW:
            rows.append(parts)
        if n == _WINDOW:
            products = (rows, powers)
        total = sum(parts[1:], parts[0])
        if not contains_zero(total.im):
            return None
        if not _unique_integer_in(field, total.re, seq.term(n)):
            return None
    return decomp, products


def _binet_part(decomp, i, n, power):
    """a_i(n) * root_i^n, given root_i^n as ``power``."""
    return decomp.coefficient_value(i, n) * power


def _binet_parts(decomp, products, columns, start, stop):
    """The parts of ``columns`` for n = start..stop (start <= _WINDOW + 1):
    the check loop's rows up to _WINDOW, then its running powers continued."""
    rows, powers = products
    roots = decomp.spectrum.roots
    powers = {i: powers[i] for i in columns}
    for n in range(start, stop + 1):
        if n <= _WINDOW:
            yield [rows[n][i] for i in columns]
            continue
        parts = []
        for i in columns:
            parts.append(_binet_part(decomp, i, n, powers[i]))
            powers[i] = powers[i] * roots[i].box
        yield parts


def _decomposition_at(seq, field):
    """Spectrum, then Binet, at one field: (decomposition, the check loop's
    products as ``_binet_parts`` reads them), or None when either stage is
    not certified."""
    spectrum = _spectrum_at(seq, field)
    if spectrum is None:
        return None
    return _binet_at(seq, spectrum, field)


# ---------------------------------------------------------------------------
# stage 3: dominant root certificate


def _normalize_poly(coeffs):
    if coeffs[0] < 0:
        coeffs = tuple(-c for c in coeffs)
    return tuple(coeffs)


def _poly_negated(coeffs):
    """Coefficients of p(-X), primitive normalized."""
    deg = len(coeffs) - 1
    return _normalize_poly(tuple(c if (deg - i) % 2 == 0 else -c
                                 for i, c in enumerate(coeffs)))


def _is_binomial(coeffs) -> bool:
    """X^d - c form: all roots share the modulus |c|^(1/d) exactly."""
    return len(coeffs) > 2 and all(c == 0 for c in coeffs[1:-1])


def _is_negation_pair(cand: AlgebraicNumber, other: AlgebraicNumber, roots) -> bool:
    """Exact test for other == -cand (both real)."""
    if not (cand.is_real and other.is_real):
        return False
    if other.min_poly != _poly_negated(cand.min_poly):
        return False
    neg_box = -cand.box
    hits = [r for r in roots
            if r.min_poly == other.min_poly and not neg_box.is_disjoint_from(r.box)]
    return len(hits) == 1 and hits[0] is other


def _certificate_at(seq, decomp, field):
    spectrum = decomp.spectrum
    roots = spectrum.roots
    moduli = [r.modulus() for r in roots]
    cand = max(range(len(roots)), key=lambda i: lower_float(moduli[i]))
    overlapping = [i for i in range(len(roots))
                   if i != cand and not certainly_less(moduli[i], moduli[cand])]
    if overlapping:
        if not roots[cand].is_real:
            raise NoDominantRoot(
                "maximal-modulus root of %r is complex; its conjugate ties" % seq.name)
        cand_m2 = roots[cand].exact_modulus_squared()
        for i in overlapping:
            if _is_negation_pair(roots[cand], roots[i], roots):
                raise NoDominantRoot(
                    "roots alpha and -alpha of %r share the maximal modulus" % seq.name)
            if _is_binomial(roots[cand].min_poly) and \
                    roots[i].min_poly == roots[cand].min_poly:
                raise NoDominantRoot(
                    "binomial factor of %r: all its roots share one modulus" % seq.name)
            other_m2 = roots[i].exact_modulus_squared()
            if cand_m2 is not None and other_m2 is not None and cand_m2 == other_m2:
                raise NoDominantRoot(
                    "two maximal-modulus roots of %r (equal exact modulus)" % seq.name)
        return None     # genuine overlap: refine precision

    # degree of the dominant coefficient polynomial
    coeffs = decomp.coefficients[cand]
    exact = decomp.exact[cand] if decomp.exact is not None else None
    sigma = None
    for j in range(len(coeffs) - 1, -1, -1):
        if not coeffs[j].contains_zero():
            sigma = j
            break
        if exact is not None:
            if not exact[j].is_zero():
                return None       # exact nonzero but box straddles zero: refine
            continue
        return None               # cannot separate zero from tiny: refine
    if sigma is None:
        if exact is not None and all(e.is_zero() for e in exact):
            raise NoDominantRoot(
                "dominant coefficient polynomial of %r vanishes identically" % seq.name)
        return None

    mod = moduli[cand]
    if not certainly_greater(mod, field.real(1)):
        if certainly_le(mod, field.real(1)):
            raise RootNotLargerThanOne("|dominant root| <= 1 for %r" % seq.name)
        exact_val = roots[cand].exact
        if exact_val is not None and exact_val.is_rational and abs(exact_val.a) <= 1:
            raise RootNotLargerThanOne("|dominant root| <= 1 for %r" % seq.name)
        return None

    gaps = [interval_inf_fraction(mod - moduli[i])
            for i in range(len(roots)) if i != cand]
    margin_lower = min(gaps) if gaps else interval_inf_fraction(mod)
    if gaps and margin_lower <= 0:
        return None
    return DominantRootCertificate(decomp, cand, sigma, margin_lower)


# ---------------------------------------------------------------------------
# stage 4: growth envelope


def _dyadic_mid(x) -> Fraction:
    lo, hi = interval_inf_fraction(x), interval_sup_fraction(x)
    return (lo + hi) / 2


def _poly_abs_upper(field, coeff_boxes):
    """Interval upper bound for sum_j |a_j|."""
    total = field.real(0)
    for c in coeff_boxes:
        total = total + c.modulus()
    return total


def _decay_threshold(field, rho, degree) -> int | None:
    """Smallest n with (1+1/n)^degree * rho certified <= 1."""
    if degree == 0:
        return 0
    n = 1
    while n < 10 ** 9:
        lhs = (field.real(1) + field.real(Fraction(1, n))) ** degree * rho
        if certainly_le(lhs, field.real(1)):
            return n
        n *= 2
    return None


def _envelope_at(decomp, cert, field, products):
    spectrum = decomp.spectrum
    seq = spectrum.sequence
    dom = cert.root_index
    sigma = cert.sigma
    mod_alpha = spectrum.roots[dom].modulus()
    others = [i for i in range(len(spectrum.roots)) if i != dom]

    # alpha': dyadic midpoint of sqrt(max(|alpha_2|,1) * |alpha|)
    if others:
        second_sup = max(interval_sup_fraction(spectrum.roots[i].modulus())
                         for i in others)
        base = field.real(max(second_sup, Fraction(1)))
    else:
        base = field.real(1)
    alpha_prime = _dyadic_mid(field.sqrt(base * mod_alpha))
    ap = field.real(alpha_prime)
    if not (certainly_greater(ap, field.real(1)) and certainly_less(ap, mod_alpha)):
        return None

    # remainder scale a': window max of |tail(n)|/alpha'^n plus a certified
    # geometric tail bound using per-root decay of s_i(n) * (|root_i|/alpha')^n
    rhos = []
    for i in others:
        rho = spectrum.roots[i].modulus() / ap
        if not certainly_less(rho, field.real(1)):
            return None
        rhos.append(rho)
    n_seg = _WINDOW
    for idx, i in enumerate(others):
        thr = _decay_threshold(field, rhos[idx], spectrum.roots[i].multiplicity - 1)
        if thr is None:
            return None
        n_seg = max(n_seg, thr + 1)
    n_seg = min(n_seg, 4096)

    if others:
        window_sup = Fraction(0)
        ap_pow = field.real(1)
        for parts in _binet_parts(decomp, products, others, 0, n_seg):
            tail = sum(parts[1:], parts[0])
            window_sup = max(window_sup, interval_sup_fraction(tail.modulus() / ap_pow))
            ap_pow = ap_pow * ap
        tail_bound = field.real(0)
        for idx, i in enumerate(others):
            s_val = field.real(0)
            for j, c in enumerate(decomp.coefficients[i]):
                s_val = s_val + c.modulus() * ((n_seg + 1) ** j)
            tail_bound = tail_bound + s_val * rhos[idx] ** (n_seg + 1)
        sup = max(window_sup, interval_sup_fraction(tail_bound))
        a_prime = sup * (1 + Fraction(1, 1024))
    else:
        a_prime = Fraction(1, 2 ** 64)
    a_prime = max(a_prime, Fraction(1, 2 ** 64))

    # upper constant: |a(n)| <= sum|a_j| n^sigma for n >= 1, so this holds for
    # every n >= max(1, n0)
    dom_abs_sum = _poly_abs_upper(field, decomp.coefficients[dom])
    c_upper = (interval_sup_fraction(dom_abs_sum) + a_prime) * (1 + Fraction(1, 1024))

    # lower constant: need inf_{n >= n0} (|a(n)| - a'(alpha'/|alpha|)^n) > 0
    rho_dom = ap / mod_alpha
    apf = field.real(a_prime)
    dom_coeffs = decomp.coefficients[dom]

    constant_abs = dom_coeffs[0].modulus() if len(dom_coeffs) == 1 else None   # simple root

    def dom_poly_abs(n):
        if constant_abs is not None:
            return constant_abs
        return decomp.coefficient_value(dom, n).modulus()

    g_lower = []
    rho_pow = field.real(1)
    for n in range(n_seg + 1):
        g = dom_poly_abs(n) - apf * rho_pow
        g_lower.append(interval_inf_fraction(g))
        rho_pow = rho_pow * rho_dom

    # certified inf of |a(n)| for n > N: window plus the |lead|*n^sigma/2 bound
    lead = dom_coeffs[sigma].modulus()
    if sigma > 0:
        rest = field.real(0)
        for j in range(sigma):
            rest = rest + dom_coeffs[j].modulus()
        n2_frac = 2 * interval_sup_fraction(rest) / interval_inf_fraction(lead)
        n2 = max(n_seg + 1, int(n2_frac) + 2)
        inf_a_beyond = None
        for n in range(n_seg + 1, n2 + 1):
            v = interval_inf_fraction(dom_poly_abs(n))
            inf_a_beyond = v if inf_a_beyond is None else min(inf_a_beyond, v)
        growth_floor = interval_inf_fraction(lead) * Fraction(n2 + 1) ** sigma / 2
        inf_a_beyond = growth_floor if inf_a_beyond is None else min(inf_a_beyond, growth_floor)
    else:
        inf_a_beyond = interval_inf_fraction(lead)
    tail_low = inf_a_beyond - interval_sup_fraction(apf * rho_dom ** (n_seg + 1))
    if tail_low <= 0:
        return None

    n0 = None
    for start in range(_WINDOW + 1):
        if all(g > 0 for g in g_lower[start:]):
            n0 = start
            break
    if n0 is None:
        return None
    if sigma > 0:
        n0 = max(n0, 1)

    ratio_min = None
    alpha_pow = field.real(1)
    for n in range(n_seg + 1):
        if n >= n0:
            r = field.real(abs(seq.term(n))) / alpha_pow
            v = interval_inf_fraction(r)
            ratio_min = v if ratio_min is None else min(ratio_min, v)
        alpha_pow = alpha_pow * mod_alpha
    c_lower = min(ratio_min, tail_low) * (1 - Fraction(1, 1024))
    if c_lower <= 0:
        return None

    env = GrowthEnvelope(cert, c_lower, c_upper, alpha_prime, a_prime,
                         n0, sigma, _VERIFY_TO)
    if not _verify_envelope(env, decomp, field, products):
        return None
    return env


def _verify_envelope(env, decomp, field, products):
    """Exact check of both envelope inequalities and the remainder bound for
    n0 <= n <= env.verified_to.

    Each step works on mpmath's raw endpoints and computes only the endpoint
    a test reads: the bounds are products of positive intervals, so that
    endpoint is the ``mpf_mul`` with the rounding ``mpi_mul`` would use, and
    n^0 is not multiplied in.  U_n is rounded once,
    to its (floor, ceiling) pair, which gives |U_n| and the real part of the
    remainder U_n - a(n) alpha^n.  The remainder test compares the upper end
    s of its squared modulus with b*b, exactly, where b is the lower end of
    a' alpha'^n: b is a nonnegative float of the field's precision and
    ``mpf_sqrt`` rounds correctly, so sqrt(s) rounded up is <= b exactly
    when s <= b*b, and the verdict is the interval square root's.
    a(n) alpha^n is the check loop's product (``_binet_parts``).
    """
    seq = decomp.sequence
    dom, sigma, n0 = env.certificate.root_index, env.sigma, env.n0
    prec = field.prec
    mod_alpha = decomp.spectrum.roots[dom].modulus()._mpi_
    cl = field.real(env.c_lower)._mpi_[1]
    cu = field.real(env.c_upper)._mpi_[0]
    ap = field.real(env.alpha_prime)._mpi_
    apr = field.real(env.a_prime)._mpi_[0]
    pow_lo, pow_hi = mpi_pow_int(mod_alpha, n0, prec)
    ap_pow = mpi_pow_int(ap, n0, prec)[0]
    parts = _binet_parts(decomp, products, (dom,), n0, env.verified_to)
    for n, (part,) in enumerate(parts, n0):
        term = seq.term(n)
        t_lo, t_hi = from_int(term, prec, round_floor), from_int(term, prec, round_ceiling)
        u_lo, u_hi = (t_lo, t_hi) if term >= 0 else (mpf_neg(t_hi), mpf_neg(t_lo))
        if not mpf_le(mpf_mul(cl, pow_hi, prec, round_ceiling), u_lo):
            return False
        upper = cu if sigma == 0 else mpf_mul(cu, from_int(n ** sigma, prec, round_floor),
                                              prec, round_floor)
        if not mpf_le(u_hi, mpf_mul(upper, pow_lo, prec, round_floor)):
            return False
        (p_lo, p_hi), p_im = part.re._mpi_, part.im._mpi_
        squared = mpf_add(_square_up((mpf_sub(t_lo, p_hi, prec, round_floor),
                                      mpf_sub(t_hi, p_lo, prec, round_ceiling)), prec),
                          _square_up(p_im, prec), prec, round_ceiling)
        bound = mpf_mul(apr, ap_pow, prec, round_floor)
        if not mpf_le(squared, mpf_mul(bound, bound)):
            return False
        pow_lo = mpf_mul(pow_lo, mod_alpha[0], prec, round_floor)
        pow_hi = mpf_mul(pow_hi, mod_alpha[1], prec, round_ceiling)
        ap_pow = mpf_mul(ap_pow, ap[0], prec, round_floor)
    return True


def _square_up(interval, prec):
    """Upper end of ``mpi_pow_int(interval, 2, prec)``: the larger endpoint
    modulus, squared and rounded up."""
    lo, hi = mpf_abs(interval[0]), mpf_abs(interval[1])
    top = hi if mpf_le(lo, hi) else lo
    return mpf_mul(top, top, prec, round_ceiling)


# ---------------------------------------------------------------------------
# entry point


def analyze_sequence(seq: LinearRecurrence) -> SequenceAnalysis:
    """Full certified pipeline (spectrum, Binet, certificate, envelope).

    The result, or the refusal NoDominantRoot / RootNotLargerThanOne, is
    kept per sequence object, so ``analyze_sequence(s).sequence is s``.
    """
    result = _cached_analysis(seq)
    if isinstance(result, Exception):
        raise result.with_traceback(None)
    return result


@functools.lru_cache(maxsize=64)
def _cached_analysis(seq):
    try:
        return _analyze_uncached(seq)
    except (NoDominantRoot, RootNotLargerThanOne) as refusal:
        return refusal.with_traceback(None)


def _analyze_uncached(seq):
    def attempt(field):
        found = _decomposition_at(seq, field)
        if found is None:
            return None
        decomp, products = found
        cert = _certificate_at(seq, decomp, field)
        if cert is None:
            return None
        env = _envelope_at(decomp, cert, field, products)
        if env is None:
            return None
        return SequenceAnalysis(seq, decomp.spectrum, decomp, cert, env)

    return ladder(256, attempt,
                  "sequence analysis for %r not certified at the precision cap" % seq.name)
