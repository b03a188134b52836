"""Characteristic roots, Binet decompositions, dominance certificates, growth envelopes.

The analysis runs on the sequence's minimal recurrence, where each root's
Binet coefficient polynomial has degree exactly its multiplicity minus one.
All numeric statements produced here are certified: roots are isolated boxes,
the Binet reconstruction is checked to pin down the exact integer term, and
envelope inequalities are verified exactly on a window plus a proved
geometric tail.  When every root is simple, each Binet coefficient is
a_i = R(alpha_i) / f'(alpha_i) on its root box, the partial fractions of the
generating function, in O(k) box operations; only a repeated root takes
elimination over the boxes of U_0..U_(k-1).  A Binet rung is refused before
its check loop when a real root box makes the n = _CHECK_BOUND
reconstruction provably too wide to pin an integer, so the loop's verdict
comes without its cost.  ``analyze_sequence`` is the one entry point: it
climbs ``intervals.ladder`` once for all four stages.

Within one rung the Binet check loop's real parts on integer balls
(``intervals.ball_mul``), a_i(n) root_i^n per real root and
2 Re(a_i(n) root_i^n) per conjugate pair, are the one stream every later
stage reads: the envelope's window and its exact check take its rows for
n <= _CHECK_BOUND as they are and continue its running values past it, so
each part is computed once.  At a simple root the running value is
a_i root_i^n itself, one ball product a step.  The rows are dropped with the
rung and never kept on an analysis.  The check loop pins U_n; the envelope
reads one table of running ball powers |alpha|^n and alpha'^n per rung for
its window maximum, its n0 and its ratio minimum, and its exact check tests
the envelope's inequalities, all by comparing integers.  The dominant
root's column carries the balls of a(X)'s coefficients, whence the envelope
reads c_upper and every bound on |a(n)|, past the window by Taylor shifts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from mpmath.libmp import (
    from_int,
    mpf_le,
    mpi_abs,
    mpi_add,
    mpi_mul,
    mpi_neg,
    mpi_pow_int,
    mpi_sub,
)

from ._roots import (
    AlgebraicNumber,
    all_pairwise_disjoint,
    factor_integer_poly,
    isolate_factor_roots,
    only_root_meeting,
)
from ._zpoly import negated, primitive
from .errors import NoDominantRoot, RootNotLargerThanOne
from .intervals import (
    ComplexBox,
    IntervalField,
    _field_at,
    ball_add,
    ball_from_mpi,
    ball_mul,
    ball_neg,
    certainly_greater,
    certainly_le,
    certainly_less,
    contains_zero,
    interval_inf_fraction,
    interval_sup_fraction,
    ladder,
    lower_float,
    midpoint_float,
    poly_eval_box,
)
from .quadratic import QuadraticElement
from .recurrences import LinearRecurrence, minimal_recurrence

_CHECK_BOUND = 200         # Binet reconstruction pinned to U_n for n <= _CHECK_BOUND
_VERIFY_TO = 500           # envelope inequalities checked exactly for n0 <= n <= _VERIFY_TO
_WINDOW = 64               # smallest envelope window, largest n0 on it
_WINDOW_CAP = 4096         # largest envelope window
_BALL_ONE, _BALL_ZERO = (1, 0, 0), (0, 0, 0)


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
    """The dominant root alpha: the one place |alpha| and log|alpha| are read."""

    decomposition: BinetDecomposition
    root_index: int
    sigma: int               # degree of a(X) at the dominant root: its multiplicity - 1
    margin_lower: Fraction   # certified lower bound on min_i(|alpha| - |alpha_i|)
    modulus_low: Fraction    # the exact lower end of modulus(), at the certificate's rung
    log_modulus: tuple       # the exact ends of modulus()'s 96-bit log, around log|alpha|

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
        return self.modulus_low, interval_sup_fraction(self.modulus())

    @property
    def log_modulus_mid(self) -> float:     # the midpoint of log_modulus, rounded
        return float(sum(self.log_modulus) / 2)


@dataclass(eq=False)
class GrowthEnvelope:
    """Certified constants: c_lower*|alpha|^n <= |U_n| <= c_upper*n^sigma*|alpha|^n,
    |U_n - a(n) alpha^n| <= a_prime * alpha_prime^n and |a(n)| >= a_floor > 0,
    all for n >= n0.  a_floor is the least inf |a(n)| that the window and its
    tail bound prove; the bound chain divides by it.

    For the second sequence of a pair the same fields play the roles of the
    companion constants (lower/upper bound constants, inner base, remainder
    scale, threshold).  Every constant is an exact dyadic rational (no
    representation slop); |alpha| and log|alpha| are the certificate's.
    """

    certificate: DominantRootCertificate
    c_lower: Fraction
    c_upper: Fraction
    alpha_prime: Fraction
    a_prime: Fraction
    n0: int
    sigma: int
    verified_to: int
    a_floor: Fraction

    @property
    def sequence(self):
        return self.certificate.sequence


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
    roots = []
    for coeffs, mult in factors:
        isolated = isolate_factor_roots(field, coeffs)
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


def _check_fails_at_bound(decomp, field) -> bool:
    """True when the n = N = _CHECK_BOUND reconstruction is surely at least 2
    wide, so the check loop cannot pin an integer there.  Interval arithmetic
    encloses ranges, and a_i(N) r^N over a real root box r that excludes 0
    and the coefficient box ranges over at least
    inf|Re a_i(N)| * (|r|_hi^N - |r|_lo^N) + width(Re a_i(N)) * |r|_lo^N,
    with inf|Re a_i(N)| = 0 when that box holds 0."""
    prec, n = field.prec, _CHECK_BOUND
    for i, root in enumerate(decomp.spectrum.roots):
        if contains_zero(root.box.re) or not contains_zero(root.box.im):
            continue
        coeff = decomp.coefficient_value(i, n).re._mpi_
        c, (r_lo, r_hi) = mpi_abs(coeff)[0], mpi_abs(root.box.re._mpi_)
        low = mpi_pow_int((r_lo, r_lo), n, prec)
        spread = mpi_sub(mpi_pow_int((r_hi, r_hi), n, prec), low, prec)
        width = mpi_sub((coeff[1], coeff[1]), (coeff[0], coeff[0]), prec)
        total = mpi_add(mpi_mul((c, c), spread, prec), mpi_mul(width, low, prec), prec)
        if mpf_le(from_int(2), total[0]):
            return True
    return False


def _real_coefficients(field, roots, grouped):
    """(coefficient boxes, stream columns) from the solved boxes ``grouped``.

    U is real and its Binet decomposition unique, so a real root's
    coefficients are real and those at conj(r) are the conjugates of those
    at r.  So each true value stays in its box when a real root's box gets
    the point 0 as imaginary part, and when the later root of a conjugate
    pair takes the exact conjugates of its mirror's boxes (same minimal
    polynomial, exactly mirrored box; isolation gives every non-real root
    one, so a KeyError here is an internal error).  A column is (root index,
    the balls of its boxes' real parts, of their imaginary parts or None,
    the root's ball or (real, imaginary) pair of balls).
    """
    where = {(r.min_poly, r.box.re._mpi_, r.box.im._mpi_): i for i, r in enumerate(roots)}
    zero = field.real(0)
    coefficients, columns = [], []
    for i, (root, group) in enumerate(zip(roots, grouped)):
        re = tuple(ball_from_mpi(c.re._mpi_) for c in group)
        if root.is_real:
            coefficients.append(tuple(field.box_from_intervals(c.re, zero) for c in group))
            columns.append((i, re, None, ball_from_mpi(root.box.re._mpi_)))
            continue
        mirror = where[root.min_poly, root.box.re._mpi_, mpi_neg(root.box.im._mpi_)]
        if mirror < i:
            coefficients.append(tuple(c.conjugate() for c in coefficients[mirror]))
            continue
        coefficients.append(group)
        columns.append((i, re, tuple(ball_from_mpi(c.im._mpi_) for c in group),
                        (ball_from_mpi(root.box.re._mpi_), ball_from_mpi(root.box.im._mpi_))))
    return coefficients, columns


def _partial_fractions(seq, roots):
    """a_i = R(alpha_i) / f'(alpha_i) on each root box, all roots simple:
    the partial fractions sum_i a_i / (1 - alpha_i z) of the generating
    function sum_n U_n z^n, with f the characteristic polynomial,
    R(X) = sum_j d_j X^(k-1-j) and d_j = U_j - c_1 U_(j-1) - ... - c_j U_0
    (Everest, van der Poorten, Shparlinski and Ward, *Recurrence
    Sequences*, ch. 1).  None when an f'(alpha_i) box holds 0."""
    c, u, k = seq.coefficients, seq.initial_terms, seq.order
    numerator = [u[j] - sum(c[i] * u[j - 1 - i] for i in range(j)) for j in range(k)]
    derivative = [(k - j) * f for j, f in enumerate(seq.characteristic_polynomial()[:-1])]
    grouped = []
    for root in roots:
        den = poly_eval_box(derivative, root.box)
        if den.contains_zero():
            return None
        grouped.append((poly_eval_box(numerator, root.box) / den,))
    return grouped


def _eliminated(seq, roots, field):
    """a_i(X)'s coefficients by elimination on U_0..U_(k-1), for a
    repeated root: n^j root_i^n is a column per root and j below its
    multiplicity.  None when a pivot is ambiguous."""
    columns = [(r, j) for r in roots for j in range(r.multiplicity)]
    matrix = [[(r.box ** n) * (1 if j == 0 else n ** j) for r, j in columns]   # 0^0 = 1
              for n in range(seq.order)]
    solution = _solve_box_system(matrix, [field.box(t) for t in seq.initial_terms])
    if solution is None:
        return None
    grouped, pos = [], 0
    for r in roots:
        grouped.append(tuple(solution[pos:pos + r.multiplicity]))
        pos += r.multiplicity
    return grouped


def _binet_at(seq, spectrum, field):
    """The coefficient boxes, by partial fractions when every root is simple
    and by elimination otherwise, then the check loop: the stream pins U_n
    for n <= _CHECK_BOUND.  (decomposition, the loop's products) or None."""
    roots = spectrum.roots
    if all(r.multiplicity == 1 for r in roots):
        grouped = _partial_fractions(seq, roots)
    else:
        grouped = _eliminated(seq, roots, field)
    if grouped is None:
        return None
    grouped, columns = _real_coefficients(field, roots, grouped)
    exact = _exact_binet(seq, spectrum)
    if exact is not None:
        for i, group in enumerate(exact):       # exact values must overlap the boxes
            for j, val in enumerate(group):
                if val.box(field).is_disjoint_from(grouped[i][j]):
                    return None
    decomp = BinetDecomposition(spectrum, tuple(grouped), exact)
    if _check_fails_at_bound(decomp, field):
        return None
    prec = field.prec
    powers = [_stream_start(column) for column in columns]
    rows = []
    for n, term in enumerate(seq.terms(_CHECK_BOUND + 1)):
        rows.append(_stream_row(columns, powers, n, prec))
        # pinned when t - 1 < lower end <= upper end < t + 1 for the row's sum
        if _le(1, 0, *_distance(term, functools.reduce(ball_add, rows[-1]))):
            return None
    return decomp, (columns, rows, powers)


def _stream_start(column):
    """A column's running value at n = 0: a, when a(X) is a constant a (a
    simple root), so that the stream carries a r^n, and otherwise 1, so
    that it carries r^n; a pair of balls (real, imaginary) at a pair."""
    _, re, im, _ = column
    if len(re) > 1:
        return _BALL_ONE if im is None else (_BALL_ONE, _BALL_ZERO)
    return re[0] if im is None else (re[0], im[0])


def _stream_row(columns, powers, n, prec):
    """The parts of ``columns`` at n as balls, given their running values at
    n, which it advances to n + 1 in place: a(n) r^n at a real root, and
    2 Re(a(n) r^n) = 2 (Re a(n) Re r^n - Im a(n) Im r^n) at a conjugate
    pair, whose later root adds the conjugate product; doubling is exact.
    A simple root's running value is a r^n itself (``_stream_start``): its
    part is read, not multiplied."""
    row = []
    for c, (_, re, im, root) in enumerate(columns):
        power = powers[c]
        if im is None:
            row.append(power if len(re) == 1 else ball_mul(_divided(re, n, prec)[0], power, prec))
            powers[c] = ball_mul(power, root, prec)
            continue
        (p, q), (r, s) = power, root
        if len(re) == 1:
            m, rad, e = p
        else:
            a, b = _divided(re, n, prec)[0], _divided(im, n, prec)[0]
            m, rad, e = ball_add(ball_mul(a, p, prec), ball_neg(ball_mul(b, q, prec)))
        row.append((m, rad, e + 1))
        powers[c] = (ball_add(ball_mul(p, r, prec), ball_neg(ball_mul(q, s, prec))),
                     ball_add(ball_mul(p, s, prec), ball_mul(q, r, prec)))
    return row


def _divided(coeffs, n, prec):
    """a(X) divided by X - n on the balls of its coefficients, lowest degree
    first, by Horner's rule at n as ``coefficient_value`` takes it: a(n),
    then the quotient's coefficients."""
    b, point = list(coeffs), (n, 0, 0)
    for j in range(len(b) - 2, -1, -1):
        b[j] = ball_add(ball_mul(b[j + 1], point, prec), b[j])
    return b


def _shifted(coeffs, n, prec):
    """The balls of the coefficients of a(n + t) in t, from those of a(X),
    lowest degree first, by synthetic division: each pass divides the last
    quotient by X - n again.  The top coefficient is kept as it is."""
    b = list(coeffs)
    for i in range(len(b) - 1):
        b[i:] = _divided(b[i:], n, prec)
    return b


def _le(a, ea, b, eb) -> bool:
    """a 2^ea <= b 2^eb, for integers a and b."""
    return a << (ea - eb) <= b if ea >= eb else a <= b << (eb - ea)


def _distance(t, ball):
    """(d, e): d 2^e is the largest distance from the integer t to a point
    of ``ball``, exactly."""
    m, r, e = ball
    if e >= 0:
        return abs(t - (m << e)) + (r << e), 0
    return abs((t << -e) - m) + r, e


def _binet_parts(products, keep, start, stop, prec):
    """The parts of the columns of the roots in ``keep``, for n = start..stop
    (start <= _CHECK_BOUND + 1): the check loop's rows up to _CHECK_BOUND,
    then its running powers continued on a copy, so that two reads of one
    ``products`` get the same parts."""
    columns, rows, powers = products
    chosen = [c for c, column in enumerate(columns) if column[0] in keep]
    columns, powers = [columns[c] for c in chosen], [powers[c] for c in chosen]
    for n in range(start, stop + 1):
        yield [rows[n][c] for c in chosen] if n <= _CHECK_BOUND else \
            _stream_row(columns, powers, n, prec)


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


def _is_binomial(coeffs) -> bool:
    """X^d - c form: all roots share the modulus |c|^(1/d) exactly."""
    return len(coeffs) > 2 and all(c == 0 for c in coeffs[1:-1])


def _is_negation_pair(cand: AlgebraicNumber, other: AlgebraicNumber, roots) -> bool:
    """Exact test for other == -cand (both real)."""
    if not (cand.is_real and other.is_real):
        return False
    if other.min_poly != primitive(negated(cand.min_poly)):
        return False
    same = [r for r in roots if r.min_poly == other.min_poly]
    j = only_root_meeting(-cand.box, same)
    return j is not None and same[j] is other


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

    # a minimal recurrence's a(X) has degree multiplicity - 1; refine until its top box excludes 0
    coeffs = decomp.coefficients[cand]
    sigma = len(coeffs) - 1
    if coeffs[sigma].contains_zero():
        return None

    mod = moduli[cand]
    if not certainly_greater(mod, field.real(1)):
        if certainly_le(mod, field.real(1)):
            raise RootNotLargerThanOne("|dominant root| <= 1 for %r" % seq.name)
        return None

    gaps = [interval_inf_fraction(mod - moduli[i]) for i in range(len(roots)) if i != cand]
    margin_lower = min(gaps) if gaps else interval_inf_fraction(mod)
    if gaps and margin_lower <= 0:
        return None
    log_mod = _field_at(96).log(mod)
    return DominantRootCertificate(decomp, cand, sigma, margin_lower, interval_inf_fraction(mod),
                                   (interval_inf_fraction(log_mod), interval_sup_fraction(log_mod)))


# ---------------------------------------------------------------------------
# stage 4: growth envelope


def _dyadic_mid(x) -> Fraction:
    lo, hi = interval_inf_fraction(x), interval_sup_fraction(x)
    return (lo + hi) / 2


def _log_float(q: Fraction) -> float:
    """log q for q > 0: math.log(float(q)), through q = r 2^e, 1/2 < r < 2,
    only when float(q) overflows."""
    try:
        return math.log(float(q))
    except OverflowError:
        e = q.numerator.bit_length() - q.denominator.bit_length()
        return math.log(float(q / 2 ** e)) + e * math.log(2.0)


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
    dom = cert.root_index
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
    n_seg = min(n_seg, _WINDOW_CAP)
    powers = (_power_table(ball_from_mpi(mod_alpha._mpi_), field.prec),
              _power_table(ball_from_mpi(ap._mpi_), field.prec))
    env, wider = _envelope_on(decomp, cert, field, products, alpha_prime, rhos, powers,
                              n_seg, _WINDOW)
    if env is None and n_seg < wider <= _WINDOW_CAP:
        # a second root close in modulus: a' (alpha'/|alpha|)^n falls below
        # |a(n)| only past the window, so size the window from that gap
        env, _ = _envelope_on(decomp, cert, field, products, alpha_prime, rhos, powers,
                              wider, wider)
    return env


def _abs_ends(ball):
    """(inf |x|, sup |x|) over the ball x, exactly."""
    m, r, e = ball
    return max(abs(m) - r, 0) * Fraction(2) ** e, (abs(m) + r) * Fraction(2) ** e


def _power_table(x, prec):
    """upto(n): the list x^0, x^1, ... as balls, extended in place to at
    least x^n, so that each product is made once per rung."""
    table = [_BALL_ONE]

    def upto(n):
        while len(table) <= n:
            table.append(ball_mul(table[-1], x, prec))
        return table
    return upto


def _ratio_le(x, y) -> bool:
    """x <= y for ratios (num, den, e) = num / den 2^e, den > 0."""
    (a, b, ea), (c, d, ec) = x, y
    return _le(a * d, ea, c * b, ec)


def _dyadic(num, den, e, prec, up) -> Fraction:
    """num / den 2^e, for integers num >= 0 and den > 0, rounded up or down
    to a dyadic rational of ``prec`` bits."""
    s = prec + den.bit_length() - num.bit_length()
    q, rest = divmod(num << s, den) if s >= 0 else divmod(num, den << -s)
    q, e = q + (up and rest > 0), e - s
    return Fraction(q << e) if e >= 0 else Fraction(q, 1 << -e)


def _envelope_on(decomp, cert, field, products, alpha_prime, rhos, powers, n_seg, n0_max):
    """(envelope, 0) on the window 0..n_seg with n0 <= n0_max, or (None, n)
    when no n0 or no tail bound was found (else 0), with n one past where
    a' (alpha'/|alpha|)^n falls below half the lead of a(X), as the certified
    gap alpha'/|alpha| sizes, and past where the Taylor loop stopped unless
    that is past _WINDOW_CAP, where no window is tried.

    The window's three loops read the rung's running ball powers of |alpha|
    and alpha' (``powers``, two ``_power_table``s) and compare integers: the
    maximum of sup|tail(n)| / inf alpha'^n and the minimum of
    |U_n| / sup |alpha|^n, each rounded outward once to the rung's bits, and
    the sign of inf|a(n)| inf |alpha|^n - a' sup alpha'^n at each n, whose
    positive run to the window's end starts at n0.  a(X) is the balls of
    the dominant column in ``products[0]``; past the window its Taylor
    coefficients at n_seg + 1 shift by 1 until all have the lead's sign,
    after which |a(n)| grows.  The least inf|a(n)| from n0 on is a_floor."""
    spectrum, prec = decomp.spectrum, field.prec
    dom, sigma = cert.root_index, cert.sigma
    mod_alpha = spectrum.roots[dom].modulus()
    others = [i for i in range(len(spectrum.roots)) if i != dom]
    ap = field.real(alpha_prime)
    alpha_pows, ap_pows = (upto(n_seg) for upto in powers)

    a_prime = Fraction(1, 2 ** 64)
    if others:
        window_sup = (0, 1, 0)
        for parts, (pm, pr, pe) in zip(_binet_parts(products, others, 0, n_seg, prec), ap_pows):
            m, r, e = functools.reduce(ball_add, parts)
            if pm <= pr:
                return None, 0
            ratio = (abs(m) + r, pm - pr, e - pe)
            if not _ratio_le(ratio, window_sup):
                window_sup = ratio
        tail_bound = field.real(0)
        for idx, i in enumerate(others):
            s_val = field.real(0)
            for j, c in enumerate(decomp.coefficients[i]):
                s_val = s_val + c.modulus() * ((n_seg + 1) ** j)
            tail_bound = tail_bound + s_val * rhos[idx] ** (n_seg + 1)
        sup = max(_dyadic(*window_sup, prec, True), interval_sup_fraction(tail_bound))
        a_prime = max(a_prime, sup * (1 + Fraction(1, 1024)))

    # upper constant: |a(n)| <= sum|a_j| n^sigma for n >= 1, so this holds for
    # every n >= max(1, n0); a dominant root is real, so its stream column
    # carries the balls of a(X)'s coefficients
    dom_coeffs = next(re for i, re, _, _ in products[0] if i == dom)
    c_upper = (sum(_abs_ends(c)[1] for c in dom_coeffs) + a_prime) * (1 + Fraction(1, 1024))

    # lower constant: need inf_{n >= n0} (|a(n)| - a'(alpha'/|alpha|)^n) > 0
    rho_dom = ap / mod_alpha
    apf = field.real(a_prime)
    apn, apd = a_prime.as_integer_ratio()
    positive, a_infs = [], []
    for n in range(n_seg + 1):
        if n == 0 or sigma > 0:         # a(n) = a_0 at every n when sigma = 0
            a_infs.append(_abs_ends(_divided(dom_coeffs, n, prec)[0])[0])
            ln, ld = a_infs[-1].as_integer_ratio()
        (m, r, e), (pm, pr, pe) = alpha_pows[n], ap_pows[n]
        # inf|a(n)| inf |alpha|^n > a' sup alpha'^n
        positive.append(not _le(ln * apd * (m - r), e, apn * ld * (pm + pr), pe))

    # inf |a(n)| for n > n_seg: once every Taylor coefficient of a(top + t)
    # has the lead's sign, |a(n)| grows from n = top on
    sign = 1 if dom_coeffs[sigma][0] > 0 else -1
    top, shifted = n_seg + 1, _shifted(dom_coeffs, n_seg + 1, prec)
    inf_a_beyond = _abs_ends(shifted[0])[0]
    while not all(sign * m >= r for m, r, _ in shifted):
        top, shifted = top + 1, _shifted(shifted, 1, prec)
        inf_a_beyond = min(inf_a_beyond, _abs_ends(shifted[0])[0])
    tail_low = inf_a_beyond - interval_sup_fraction(apf * rho_dom ** (n_seg + 1))
    n0 = next((start for start in range(n0_max + 1) if all(positive[start:])), None)
    if tail_low <= 0 or n0 is None:
        rho_high = interval_sup_fraction(rho_dom)
        if rho_high >= 1:
            return None, 0
        gap = math.ceil(_log_float(2 * a_prime / _abs_ends(dom_coeffs[sigma])[0])
                        / -_log_float(rho_high))
        return None, (max(top, gap) if top <= _WINDOW_CAP else gap) + 1
    n0 = max(n0, 1) if sigma > 0 else n0

    terms = spectrum.sequence.terms(n_seg + 1)
    ratio_min = None
    for n in range(n0, n_seg + 1):
        m, r, e = alpha_pows[n]
        ratio = (abs(terms[n]), m + r, -e)
        if ratio_min is None or not _ratio_le(ratio_min, ratio):
            ratio_min = ratio
    c_lower = min(_dyadic(*ratio_min, prec, False), tail_low) * (1 - Fraction(1, 1024))
    if c_lower <= 0:
        return None, 0

    env = GrowthEnvelope(cert, c_lower, c_upper, alpha_prime, a_prime,
                         n0, sigma, max(_VERIFY_TO, n0 + _VERIFY_TO - _WINDOW),
                         min(min(a_infs[n0 if sigma else 0:]), inf_a_beyond))
    if not _verify_envelope(env, decomp, field, products, powers):
        return None, 0
    return env, 0


def _verify_envelope(env, decomp, field, products, powers):
    """Exact check of both envelope inequalities and the remainder bound for
    n0 <= n <= env.verified_to.

    |alpha|^n and alpha'^n are read from the rung's running ball powers of
    |alpha| and env.alpha_prime (``powers``, two ``_power_table``s, extended
    here as far as the check reads), and a(n) alpha^n from the stream as one
    real ball: a dominant root is real (a non-real one ties with its
    conjugate).  Each inequality compares integers against the exact
    c_lower, c_upper and a_prime: c_lower times the upper end of |alpha|^n,
    c_upper n^sigma times its lower end, and a_prime times the lower end of
    alpha'^n, with the largest distance from U_n to the stream's ball.
    """
    dom, n0, top = env.certificate.root_index, env.n0, env.verified_to
    alpha_pows, ap_pows = (upto(top) for upto in powers)
    cl, cl_den = env.c_lower.as_integer_ratio()
    cu, cu_den = env.c_upper.as_integer_ratio()
    apr, apr_den = env.a_prime.as_integer_ratio()
    terms = decomp.sequence.terms(top + 1)
    for n, (part,) in enumerate(_binet_parts(products, [dom], n0, top, field.prec), n0):
        term = terms[n]
        m, r, e = alpha_pows[n]
        if not (_le(cl * (m + r), e, cl_den * abs(term), 0)
                and _le(cu_den * abs(term), 0, cu * n ** env.sigma * (m - r), e)):
            return False
        d, de = _distance(term, part)
        m, r, e = ap_pows[n]
        if not _le(apr_den * d, de, apr * (m - r), e):
            return False
    return True


# ---------------------------------------------------------------------------
# entry point


def analyze_sequence(seq: LinearRecurrence) -> SequenceAnalysis:
    """Full certified pipeline (spectrum, Binet, certificate, envelope) on
    the minimal recurrence of ``seq``, which all four stages describe;
    ``sigma`` is the dominant root's multiplicity minus one.

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
    minimal = minimal_recurrence(seq)
    if minimal is None:
        raise NoDominantRoot("%r is the zero sequence" % seq.name)

    def attempt(field):
        found = _decomposition_at(minimal, field)
        if found is None:
            return None
        decomp, products = found
        cert = _certificate_at(minimal, decomp, field)
        if cert is None:
            return None
        env = _envelope_at(decomp, cert, field, products)
        if env is None:
            return None
        return SequenceAnalysis(seq, decomp.spectrum, decomp, cert, env)

    return ladder(256, attempt,
                  "sequence analysis for %r not certified at the precision cap" % seq.name)
