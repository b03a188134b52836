import functools
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    fone,
    from_int,
    fzero,
    mpf_le,
    mpf_lt,
    mpf_shift,
    mpi_abs,
    mpi_add,
    mpi_mul,
    mpi_neg,
    mpi_pow_int,
    mpi_sub,
    round_ceiling,
    round_floor,
)

from recdiff import spectral
from recdiff.counting import brute_force_oracle, count_T_S
from recdiff.errors import NoDominantRoot, PrecisionExhausted, RootNotLargerThanOne
from recdiff.heights import AlgebraicNumber
from recdiff.independence import multiplicative_independence
from recdiff.intervals import (
    IntervalField,
    ball_add,
    ball_from_mpi,
    ball_to_mpi,
    contains,
    contains_zero,
    interval_inf_fraction,
    interval_sup_fraction,
    is_subset,
    lower_float,
    midpoint_float,
    upper_float,
)
from recdiff.quadratic import QuadraticElement, quadratic_roots
from recdiff.recurrences import BUILTIN_SEQUENCES, LinearRecurrence, minimal_recurrence
from recdiff.spectral import _spectrum_at, analyze_sequence

FIB = BUILTIN_SEQUENCES["fib"]
LUCAS = BUILTIN_SEQUENCES["lucas"]
POW2 = BUILTIN_SEQUENCES["pow2"]
TRIB = BUILTIN_SEQUENCES["tribonacci"]
N2N = LinearRecurrence("n2n", (4, -4), (0, 2))

PHI = (1 + math.sqrt(5)) / 2


def test_fibonacci_roots():
    spec = analyze_sequence(FIB).spectrum
    mods = sorted(midpoint_float(r.box.re) for r in spec.roots)
    assert abs(mods[0] + 0.6180339887498949) < 1e-12
    assert abs(mods[1] - PHI) < 1e-12
    assert all(r.multiplicity == 1 and r.is_real for r in spec.roots)


def test_pow2_root_exact():
    spec = analyze_sequence(POW2).spectrum
    assert len(spec.roots) == 1
    assert spec.roots[0].exact == QuadraticElement.from_rational(2)


def test_tribonacci_roots():
    spec = analyze_sequence(TRIB).spectrum
    real = [r for r in spec.roots if r.is_real]
    cplx = [r for r in spec.roots if not r.is_real]
    assert len(real) == 1 and len(cplx) == 2
    assert abs(midpoint_float(real[0].box.re) - 1.8392867552141612) < 1e-9
    assert sum(r.multiplicity for r in spec.roots) == 3


def test_double_root_multiplicity():
    spec = analyze_sequence(N2N).spectrum
    assert len(spec.roots) == 1
    assert spec.roots[0].multiplicity == 2
    assert spec.roots[0].exact == QuadraticElement.from_rational(2)


def test_root_refinement_nested():
    lo = _spectrum_at(TRIB, IntervalField(192))
    hi = _spectrum_at(TRIB, IntervalField(384))
    for a, b in zip(lo.roots, hi.roots):
        assert is_subset(b.box.re, a.box.re)
        assert is_subset(b.box.im, a.box.im)


def test_binet_fibonacci_coefficient():
    decomp = analyze_sequence(FIB).decomposition
    idx = max(range(2), key=lambda i: midpoint_float(decomp.spectrum.roots[i].box.re))
    a = decomp.coefficients[idx][0]
    assert abs(midpoint_float(a.re) - 1 / math.sqrt(5)) < 1e-20
    other = decomp.coefficients[1 - idx][0]
    assert abs(midpoint_float(other.re) + 1 / math.sqrt(5)) < 1e-20
    # exact counterpart: 1/sqrt(5) = (1/5) sqrt(5)
    exact = decomp.exact[idx][0]
    assert exact == QuadraticElement.make(0, Fraction(1, 5), 5)


def test_binet_n2n_coefficients():
    decomp = analyze_sequence(N2N).decomposition
    c0, c1 = decomp.coefficients[0]
    assert contains_zero(c0.re) and contains(c1.re, 1)   # a(X) = X
    assert decomp.exact[0][0].is_zero()
    assert decomp.exact[0][1] == QuadraticElement.from_rational(1)


@pytest.mark.parametrize("seq", [FIB, LUCAS, POW2, TRIB, N2N],
                         ids=lambda s: s.name)
def test_binet_reconstruction_exact(seq):
    decomp = analyze_sequence(seq).decomposition
    for n in (0, 1, 7, 50, 133, 200):
        box = decomp.reconstruct(n)
        target = seq.term(n)
        assert contains_zero(box.im)
        assert contains(box.re, target)
        # the interval pins down the single integer target
        assert bool(box.re.a > target - 1) and bool(box.re.b < target + 1)


def test_dominant_certificate_fibonacci():
    cert = analyze_sequence(FIB).certificate
    assert abs(midpoint_float(cert.modulus()) - PHI) < 1e-12
    assert cert.sigma == 0
    assert cert.min_poly == (1, -1, -1)
    assert float(cert.margin_lower) > 0.99   # phi - |psi| = 1


def test_dominant_certificate_n2n():
    cert = analyze_sequence(N2N).certificate
    assert cert.sigma == 1
    assert midpoint_float(cert.modulus()) == 2.0


def test_no_dominant_root_cases():
    with pytest.raises(NoDominantRoot):
        analyze_sequence(LinearRecurrence("pm_i", (0, -1), (0, 1)))     # roots +-i
    with pytest.raises(NoDominantRoot):
        analyze_sequence(LinearRecurrence("pm2", (0, 4), (1, 1)))       # roots +-2
    with pytest.raises(NoDominantRoot):
        analyze_sequence(LinearRecurrence("zero", (1, 1), (0, 0)))      # a(X) == 0


def test_genuine_tie_and_zero_sequence_are_still_refused():
    # 4^(n/2) and 3 * 4^(n/2), interleaved: the roots 2 and -2 both stay
    with pytest.raises(NoDominantRoot, match="share the maximal modulus"):
        analyze_sequence(LinearRecurrence("tie", (0, 4), (1, 3)))
    for coeffs in ((1, 1), (3,), (1, 0, 2)):
        with pytest.raises(NoDominantRoot, match="the zero sequence"):
            analyze_sequence(LinearRecurrence("zero", coeffs, (0,) * len(coeffs)))


@pytest.mark.parametrize("coeffs,init,minimal,sigma", [
    ((5, -6), (1, 2), (2,), 0),                 # (x - 2)(x - 3): 2^n
    ((4, -2, -3), (0, 1, 1), (1, 1), 0),        # (x - 3)(x^2 - x - 1): Fibonacci
    ((6, -11, 6), (1, 2, 4), (2,), 0),          # (x - 1)(x - 2)(x - 3): 2^n
    ((0, 4), (1, 2), (2,), 0),                  # (x - 2)(x + 2): 2^n, no tie
    ((5, -8, 4), (0, 2, 8), (4, -4), 1),        # (x - 1)(x - 2)^2: n 2^n
    ((7, -16, 12), (1, 2, 4), (2,), 0),         # (x - 2)^2 (x - 3): 2^n
])
def test_the_minimal_recurrence_is_analysed(coeffs, init, minimal, sigma):
    # each of the first three exited 3 or 4 when the given characteristic
    # polynomial was analysed: a root whose Binet coefficient is 0 was kept
    seq = LinearRecurrence("presented", coeffs, init)
    a = analyze_sequence(seq)
    assert a.sequence is seq and a.spectrum.sequence.coefficients == minimal
    assert a.spectrum.precision_bits == 256
    assert a.certificate.sigma == sigma == a.certificate.root.multiplicity - 1


def test_root_not_larger_than_one():
    with pytest.raises(RootNotLargerThanOne):
        analyze_sequence(LinearRecurrence("const", (1,), (1,)))


def test_envelope_certified_window():
    env = analyze_sequence(FIB).envelope
    assert 0 < float(env.c_lower) < float(env.c_upper)
    assert 1 < float(env.alpha_prime) < PHI
    assert env.verified_to == 500
    # re-verify the two-sided inequality on a sample, exactly
    F = IntervalField(256)
    mod = env.certificate.modulus()
    for n in (env.n0, 10, 100, 500):
        u = abs(FIB.term(n))
        assert upper_float(F.real(env.c_lower) * mod ** n) <= u
        assert u <= lower_float(F.real(env.c_upper) * mod ** n)


@pytest.mark.parametrize("coeffs, init, bits, n0", [
    ((3, -5, 4, 4), (-1, 3, 2, 2), 512, 79),         # roots 2 and a pair of modulus 1.950
    ((8, -18, 0, 26, 3, 9, -27), (-2, 1, 4, -2, -4, -2, -2), 1024, 101),   # roots 3 and 2.94
], ids=["pair-1.95", "root-2.94"])
def test_a_close_second_root_sizes_the_window_from_the_gap(coeffs, init, bits, n0):
    # a' (alpha'/|alpha|)^n falls below the dominant coefficient only past
    # n = 64, so with n0 searched in 0..64 alone no rung had an envelope and
    # the analysis exhausted the cap; the counts against pow2 are the oracle's
    seq = LinearRecurrence("close", coeffs, init)
    analysis = analyze_sequence(seq)
    env = analysis.envelope
    assert (analysis.spectrum.precision_bits, env.n0) == (bits, n0)
    assert env.verified_to == n0 + spectral._VERIFY_TO - spectral._WINDOW
    for x in (10 ** 6, 10 ** 30):
        result = count_T_S(seq, POW2, x)
        oracle = brute_force_oracle(seq, POW2, x, 3 * result.n_cut + 5, 3 * result.m_cut + 5)
        assert (result.T, result.S) == (oracle.T, oracle.S)


def test_envelope_spec_witnesses():
    # stated example constants are valid: fib C1=0.4/C2=0.5 beyond n=3,
    # lucas C1=0.9 beyond n=5 (|L_n - phi^n| < 1)
    for n in range(3, 501):
        f = FIB.term(n)
        assert 0.4 * PHI ** n <= f <= 0.5 * PHI ** n * 1.0000001
    for n in range(5, 501):
        assert 0.9 * PHI ** n <= LUCAS.term(n)


def test_envelope_remainder_bound():
    analysis = analyze_sequence(FIB)
    env, decomp = analysis.envelope, analysis.decomposition
    F = IntervalField(256)
    dom = env.certificate.root_index
    for n in (env.n0, 5, 60):
        rem = F.box(FIB.term(n)) - decomp.coefficient_value(dom, n) * \
            (decomp.spectrum.roots[dom].box ** n)
        bound = F.real(env.a_prime) * F.real(env.alpha_prime) ** n
        assert upper_float(rem.modulus()) <= lower_float(bound)


def test_pow2_envelope_tight():
    env = analyze_sequence(POW2).envelope
    assert env.sigma == 0 and env.n0 == 0
    assert 0.99 <= float(env.c_lower) <= 1.0 <= float(env.c_upper) <= 1.01


# ---------------------------------------------------------------------------
# multiplicative independence


def _alg(x):
    if isinstance(x, QuadraticElement):
        return AlgebraicNumber.from_quadratic(x)
    return AlgebraicNumber.from_rational(x)


PHI_EXACT, _ = quadratic_roots(1, -1, -1)


def test_independence_examples():
    assert multiplicative_independence(_alg(2), _alg(3)).status == "independent"
    dep = multiplicative_independence(_alg(2), _alg(8))
    assert (dep.status, dep.n, dep.m) == ("dependent", 3, 1)
    assert multiplicative_independence(_alg(PHI_EXACT), _alg(2)).status == "independent"


def test_independence_rational_cases():
    assert multiplicative_independence(_alg(Fraction(3, 2)), _alg(Fraction(9, 4))).status == "dependent"
    assert multiplicative_independence(_alg(Fraction(3, 2)), _alg(2)).status == "independent"
    d = multiplicative_independence(_alg(-2), _alg(2))
    assert d.status == "dependent" and (-2) ** d.n == 2 ** d.m


def test_independence_quadratic_cases():
    s2 = QuadraticElement.make(0, 1, 2)
    r = multiplicative_independence(_alg(s2), _alg(2))
    assert r.status == "dependent" and (r.n, r.m) == (2, 1)
    assert multiplicative_independence(_alg(s2), _alg(3)).status == "independent"
    silver = QuadraticElement.make(1, 1, 2)
    assert multiplicative_independence(_alg(PHI_EXACT), _alg(silver)).status == "independent"
    # large one-sided exponent found through the modulus-ratio candidate
    big = multiplicative_independence(_alg(PHI_EXACT), _alg(PHI_EXACT ** 21))
    assert big.status == "dependent"
    assert PHI_EXACT ** big.n == (PHI_EXACT ** 21) ** big.m


def test_independence_never_false_negative_small_relations():
    # any verified relation with exponents <= 20 must be found
    bases = [_alg(2), _alg(4), _alg(8), _alg(PHI_EXACT), _alg(PHI_EXACT ** 3)]
    for i, a in enumerate(bases):
        for b in bases:
            r = multiplicative_independence(a, b)
            if r.status == "dependent":
                lhs = a.exact ** r.n
                rhs = b.exact ** r.m
                assert lhs == rhs
            else:
                assert r.status != "dependent"


def test_independence_precondition():
    with pytest.raises(ValueError):
        multiplicative_independence(_alg(1), _alg(2))
    with pytest.raises(ValueError):
        multiplicative_independence(_alg(Fraction(1, 2)), _alg(3))


def _verify_envelope_by_operators(env, decomp, field, verify_to):
    """The envelope check written with mpmath's interval operators."""
    seq = decomp.sequence
    root = decomp.spectrum.roots[env.certificate.root_index]
    dom = env.certificate.root_index
    cl, cu = field.real(env.c_lower), field.real(env.c_upper)
    ap, apr = field.real(env.alpha_prime), field.real(env.a_prime)
    alpha_pow, alpha_box_pow = root.modulus() ** env.n0, root.box ** env.n0
    ap_pow = ap ** env.n0
    for n in range(env.n0, verify_to + 1):
        uf = field.ctx.mpf(abs(seq.term(n)))
        n_sig = 1 if env.sigma == 0 else n ** env.sigma
        remainder = field.box(seq.term(n)) - decomp.coefficient_value(dom, n) * alpha_box_pow
        if not (bool((cl * alpha_pow).b <= uf.a) and bool(uf.b <= (cu * n_sig * alpha_pow).a)
                and bool(remainder.modulus().b <= (apr * ap_pow).a)):
            return False
        alpha_pow, alpha_box_pow, ap_pow = alpha_pow * root.modulus(), alpha_box_pow * root.box, \
            ap_pow * ap
    return True


def _powers(env, decomp, field):
    """The rung's two running power tables the envelope check reads: of
    |alpha| and of env.alpha_prime."""
    modulus = decomp.spectrum.roots[env.certificate.root_index].modulus()
    return tuple(spectral._power_table(ball_from_mpi(value._mpi_), field.prec)
                 for value in (modulus, field.real(env.alpha_prime)))


def _tightened(env):
    """The envelope and four tightened ones; the last remainder bound decays
    too fast, so it holds at first and fails further on."""
    return [env, replace(env, c_lower=env.c_lower * 2), replace(env, c_upper=env.c_upper / 2),
            replace(env, a_prime=env.a_prime / 64),
            replace(env, alpha_prime=Fraction(1, 2), a_prime=env.a_prime * 2 ** 20)]


@pytest.mark.parametrize("seq", [FIB, TRIB, N2N, LinearRecurrence("padovan", (0, 1, 1), (1, 1, 1))],
                         ids=lambda s: s.name)
def test_envelope_check_decides_as_the_interval_operators(seq):
    # the raw-tuple loop accepts the certified envelope and rejects each
    # tightened one exactly where the operator loop does
    analysis = analyze_sequence(seq)
    env, decomp = analysis.envelope, analysis.certificate.decomposition
    field = IntervalField(analysis.spectrum.precision_bits)
    products = spectral._binet_at(seq, analysis.spectrum, field)[1]
    verdicts = []
    for e in _tightened(env):
        for top in (e.n0 + 3, 120):
            got = spectral._verify_envelope(replace(e, verified_to=top), decomp, field, products,
                                            _powers(e, decomp, field))
            assert got == _verify_envelope_by_operators(e, decomp, field, top)
            verdicts.append(got)
    assert verdicts[:2] == [True, True] and False in verdicts


def _verify_envelope_by_interval_sqrt(env, decomp, field, verify_to):
    """The raw-tuple envelope check with an interval square root of each
    remainder and the dominant power from ``root_box ** n0``."""
    seq = decomp.sequence
    dom = env.certificate.root_index
    root_box = decomp.spectrum.roots[dom].box
    prec = field.prec
    mod_alpha = root_box.modulus()._mpi_
    cl, cu = field.real(env.c_lower)._mpi_, field.real(env.c_upper)._mpi_
    ap, apr = field.real(env.alpha_prime)._mpi_, field.real(env.a_prime)._mpi_
    alpha_pow = mpi_pow_int(mod_alpha, env.n0, prec)
    alpha_box_pow = root_box ** env.n0
    ap_pow = mpi_pow_int(ap, env.n0, prec)
    for n in range(env.n0, verify_to + 1):
        term = seq.term(n)
        u = field.real(abs(term))._mpi_
        if not mpf_le(mpi_mul(cl, alpha_pow, prec)[1], u[0]):
            return False
        n_sig = 1 if env.sigma == 0 else n ** env.sigma
        upper = mpi_mul(mpi_mul(cu, field.real(n_sig)._mpi_, prec), alpha_pow, prec)
        if not mpf_le(u[1], upper[0]):
            return False
        remainder = field.box(term) - decomp.coefficient_value(dom, n) * alpha_box_pow
        if not mpf_le(remainder.modulus()._mpi_[1], mpi_mul(apr, ap_pow, prec)[0]):
            return False
        alpha_pow = mpi_mul(alpha_pow, mod_alpha, prec)
        alpha_box_pow = alpha_box_pow * root_box
        ap_pow = mpi_mul(ap_pow, ap, prec)
    return True


def test_envelope_check_decides_as_the_square_root_loop_on_every_rung(monkeypatch):
    # every rung that reaches the envelope check, on the seed-1 batch of the
    # spectral-cold benchmark and five builtins: the squared test on the
    # check loop's products returns the interval square root loop's verdict
    from test_bit_identity import BATCH

    seqs = [LinearRecurrence(*spec) for spec in BATCH[:9]]
    seqs += [BUILTIN_SEQUENCES[name] for name in ("fib", "lucas", "pow2", "pow3", "tribonacci")]
    verify, rungs = spectral._verify_envelope, []

    def spy(env, decomp, field, products, powers):
        rungs.append((env, decomp, field, products))
        return verify(env, decomp, field, products, powers)

    monkeypatch.setattr(spectral, "_verify_envelope", spy)
    for seq in seqs:
        spectral._analyze_uncached(seq)
    assert {decomp.sequence for _, decomp, _, _ in rungs} == set(seqs)
    verdicts = []
    for env, decomp, field, products in rungs:
        for e in _tightened(env):
            got = verify(e, decomp, field, products, _powers(e, decomp, field))
            assert got == _verify_envelope_by_interval_sqrt(e, decomp, field, 500), \
                (decomp.sequence.name, field.prec)
            verdicts.append(got)
    assert True in verdicts and False in verdicts


def _check_loop_by_intervals(seq, decomp, field):
    """The Binet check loop on mpmath's raw interval tuples: a(n) r^n per
    real root and 2 Re(a(n) r^n) per conjugate pair (its root above the
    axis) by ``mpi_mul``, the row summed by ``mpi_add``, and U_n pinned
    between t - 1 rounded up and t + 1 rounded down: the first n not
    pinned, or None when every n up to _CHECK_BOUND is."""
    prec, roots = field.prec, decomp.spectrum.roots

    def mul(x, y):
        return mpi_mul(x, y, prec)

    def value(coeffs, n):           # a(n) by Horner's rule, lowest degree first
        acc = coeffs[-1]
        for c in coeffs[-2::-1]:
            acc = mpi_add(mul(acc, (from_int(n),) * 2), c, prec)
        return acc

    columns = [i for i, r in enumerate(roots) if r.is_real or bool(r.box.im.a > 0)]
    powers = {i: ((fone, fone), (fzero, fzero)) for i in columns}
    for n in range(spectral._CHECK_BOUND + 1):
        total = None
        for i in columns:
            coeffs, root = decomp.coefficients[i], roots[i].box
            (p, q), (r, s) = powers[i], (root.re._mpi_, root.im._mpi_)
            re = value([c.re._mpi_ for c in coeffs], n)
            if roots[i].is_real:
                part, powers[i] = mul(re, p), (mul(p, r), q)
            else:
                lo, hi = mpi_sub(mul(re, p), mul(value([c.im._mpi_ for c in coeffs], n), q), prec)
                part = (mpf_shift(lo, 1), mpf_shift(hi, 1))
                powers[i] = (mpi_sub(mul(p, r), mul(q, s), prec),
                             mpi_add(mul(p, s), mul(q, r), prec))
            total = part if total is None else mpi_add(total, part, prec)
        term = seq.term(n)
        if not (mpf_lt(from_int(term - 1, prec, round_ceiling), total[0])
                and mpf_lt(total[1], from_int(term + 1, prec, round_floor))):
            return n
    return None


def test_ball_check_loop_pins_as_the_interval_loop(monkeypatch):
    # the seed-1 batch of the spectral-cold benchmark and every builtin, at
    # 256 and 512 bits, with the early refusal off: the check loop on balls
    # accepts a rung exactly when the loop on interval tuples does; a
    # refused rung fails at the same n in both, or one step earlier on balls
    # (the reducible cubics at 256 bits), never later
    from test_bit_identity import BATCH

    seqs = [LinearRecurrence(*spec) for spec in BATCH] + list(BUILTIN_SEQUENCES.values())
    step, reached, steps = spectral._stream_row, [], []

    def refusal_spy(decomp, field):
        reached.append(decomp)
        return False

    def step_spy(columns, powers, n, prec):
        steps.append(n)
        return step(columns, powers, n, prec)

    monkeypatch.setattr(spectral, "_check_fails_at_bound", refusal_spy)
    monkeypatch.setattr(spectral, "_stream_row", step_spy)
    failed_at = {}
    for bits in (256, 512):
        field = IntervalField(bits)
        for seq in seqs:
            minimal = minimal_recurrence(seq)
            reached.clear()
            steps.clear()
            found = spectral._binet_at(minimal, _spectrum_at(minimal, field), field)
            assert len(reached) == 1, (seq.name, bits)
            got = None if found is not None else steps[-1]
            want = _check_loop_by_intervals(minimal, reached[0], field)
            assert got == want or want is not None and got == want - 1, (seq.name, bits)
            failed_at[seq.name, bits] = got
    assert failed_at["pow3", 256] is not None and failed_at["pow3", 512] is None
    assert failed_at["tribonacci", 256] is not None and failed_at["pow2", 256] is None


@pytest.mark.parametrize("seq", [FIB, TRIB, N2N, LinearRecurrence("padovan", (0, 1, 1), (1, 1, 1))],
                         ids=lambda s: s.name)
def test_envelope_checks_on_one_stream_decide_as_fresh_streams(seq):
    # a check that reads past _CHECK_BOUND continues the running powers of
    # the stream and the power tables it is given; a second check on the
    # same products and tables, with another verified_to, must still get the
    # verdict of a fresh stream and fresh tables
    analysis = analyze_sequence(seq)
    env, decomp = analysis.envelope, analysis.decomposition
    field = IntervalField(analysis.spectrum.precision_bits)

    def fresh():
        return spectral._binet_at(seq, analysis.spectrum, field)[1]

    verdicts = []
    for e in _tightened(env):
        shared, powers = fresh(), _powers(e, decomp, field)
        for top in (300, 500, 250):
            e_top = replace(e, verified_to=top)
            got = spectral._verify_envelope(e_top, decomp, field, shared, powers)
            assert got == spectral._verify_envelope(e_top, decomp, field, fresh(),
                                                    _powers(e, decomp, field)), (e, top)
            verdicts.append(got)
    assert verdicts[:3] == [True, True, True] and False in verdicts


@pytest.mark.parametrize("bits", [256, 512])
def test_partial_fractions_meet_the_eliminated_boxes(bits):
    # the two spectral-cold batches and k-bonacci 3-8, orders 3 to 8, all
    # roots simple: each closed-form coefficient box R(alpha)/f'(alpha)
    # meets the box that elimination over the root boxes gives
    from test_bit_identity import BATCH, BATCH_5_7

    seqs = [LinearRecurrence(*spec) for spec in BATCH + BATCH_5_7]
    seqs += [LinearRecurrence("kbonacci", (1,) * k, (0,) * (k - 1) + (1,)) for k in range(3, 9)]
    field = IntervalField(bits)
    checked = set()
    for seq in seqs:
        roots = _spectrum_at(seq, field).roots
        if any(r.multiplicity > 1 for r in roots):
            continue
        closed = spectral._partial_fractions(seq, roots)
        eliminated = spectral._eliminated(seq, roots, field)
        assert len(closed) == len(eliminated) == seq.order
        for (a,), (b,) in zip(closed, eliminated):
            assert not a.is_disjoint_from(b), (seq.name, bits)
        checked.add(seq.order)
    assert checked == set(range(3, 9)) and len(checked) < len(seqs)


@pytest.mark.parametrize("coeffs, init", [
    ((1, 1), (0, 1)), ((1, 1), (2, 1)), ((5, -6), (1, 4)), ((2, 1), (0, 1)),
    ((0, 2), (1, 3)), ((3, -1), (2, 7)), ((-1, 3), (5, -2)), ((2,), (1,)), ((-3,), (7,)),
])
@pytest.mark.parametrize("bits", [256, 512])
def test_low_order_partial_fractions_meet_the_exact_values(coeffs, init, bits):
    seq, field = LinearRecurrence("low", coeffs, init), IntervalField(bits)
    spectrum = _spectrum_at(seq, field)
    closed = spectral._partial_fractions(seq, spectrum.roots)
    exact = spectral._exact_binet(seq, spectrum)
    assert len(closed) == len(exact) == seq.order
    for (a,), (value,) in zip(closed, exact):
        assert not value.box(field).is_disjoint_from(a), (coeffs, init, bits)


def _ratio_value(ratio):
    num, den, e = ratio
    return Fraction(num, den) * Fraction(2) ** e


_ratios = st.tuples(st.integers(0, 2 ** 700), st.integers(1, 2 ** 700), st.integers(-1500, 1500))


@settings(max_examples=200, deadline=None)
@given(ratio=_ratios, prec=st.integers(16, 1024))
def test_a_ratio_rounds_once_outward_to_a_dyadic(ratio, prec):
    # down <= num / den 2^e <= up, one unit of prec bits apart at most, each
    # a dyadic rational whose odd part has at most prec + 1 bits
    exact = _ratio_value(ratio)
    down, up = (spectral._dyadic(*ratio, prec, way) for way in (False, True))
    assert down <= exact <= up and up - down <= exact / 2 ** (prec - 1)
    for q in (down, up):
        assert q.denominator & (q.denominator - 1) == 0
        odd = q.numerator // (q.numerator & -q.numerator) if q else 0
        assert odd.bit_length() <= prec + 1


@settings(max_examples=200, deadline=None)
@given(x=_ratios, y=_ratios)
def test_ratios_compare_exactly(x, y):
    assert spectral._ratio_le(x, y) == (_ratio_value(x) <= _ratio_value(y))
    assert spectral._ratio_le(x, x)


def _envelope_loops_by_intervals(decomp, cert, field, products, alpha_prime, rhos, n_seg,
                                 n0_max):
    """``_envelope_on``'s window maximum, n0 search and ratio minimum on
    mpmath's interval operators, each n's bound read as an exact Fraction:
    (a_prime, n0, c_lower), with n0 None when no n0 <= n0_max is found and
    c_lower None when either bound fails."""
    roots, prec = decomp.spectrum.roots, field.prec
    dom, sigma = cert.root_index, cert.sigma
    others = [i for i in range(len(roots)) if i != dom]
    mod_alpha, ap = roots[dom].modulus(), field.real(alpha_prime)
    a_prime = Fraction(1, 2 ** 64)
    if others:
        window_sup, ap_pow = Fraction(0), field.real(1)
        for parts in spectral._binet_parts(products, others, 0, n_seg, prec):
            tail = ball_to_mpi(functools.reduce(ball_add, parts), prec)
            window_sup = max(window_sup, interval_sup_fraction(
                field.ctx.make_mpf(mpi_abs(tail)) / ap_pow))
            ap_pow = ap_pow * ap
        tail_bound = field.real(0)
        for rho, i in zip(rhos, others):
            for j, c in enumerate(decomp.coefficients[i]):
                tail_bound = tail_bound + c.modulus() * (n_seg + 1) ** j * rho ** (n_seg + 1)
        a_prime = max(a_prime, max(window_sup, interval_sup_fraction(tail_bound))
                      * (1 + Fraction(1, 1024)))

    def dom_abs(n):
        return decomp.coefficient_value(dom, n).modulus()

    rho_dom, apf = ap / mod_alpha, field.real(a_prime)
    g_lower, rho_pow = [], field.real(1)
    for n in range(n_seg + 1):
        g_lower.append(interval_inf_fraction(dom_abs(n) - apf * rho_pow))
        rho_pow = rho_pow * rho_dom
    n0 = next((start for start in range(n0_max + 1)
               if all(g > 0 for g in g_lower[start:])), None)
    lead = interval_inf_fraction(decomp.coefficients[dom][sigma].modulus())
    inf_a_beyond = lead
    if sigma > 0:
        rest = sum(interval_sup_fraction(c.modulus()) for c in decomp.coefficients[dom][:sigma])
        n2 = max(n_seg + 1, int(2 * rest / lead) + 2)
        inf_a_beyond = min([interval_inf_fraction(dom_abs(n)) for n in range(n_seg + 1, n2 + 1)]
                           + [lead * Fraction(n2 + 1) ** sigma / 2])
    tail_low = inf_a_beyond - interval_sup_fraction(apf * rho_dom ** (n_seg + 1))
    if n0 is None or tail_low <= 0:
        return a_prime, n0, None
    n0 = max(n0, 1) if sigma > 0 else n0
    ratio_min, alpha_pow = None, mod_alpha ** n0
    for term in decomp.sequence.terms(n_seg + 1)[n0:]:
        v = interval_inf_fraction(field.real(abs(term)) / alpha_pow)
        ratio_min = v if ratio_min is None else min(ratio_min, v)
        alpha_pow = alpha_pow * mod_alpha
    return a_prime, n0, min(ratio_min, tail_low) * (1 - Fraction(1, 1024))


def test_envelope_loops_decide_as_the_interval_operators(monkeypatch):
    # every window of every rung that reaches the envelope, on the seed-1
    # batch, five builtins, n 2^n, padovan and the two close-root cases,
    # whose first window finds no n0: the loops on integer balls find the
    # same n0, and a_prime and c_lower within a few units of the rung's
    # last bit per window step, as the loops on interval operators
    from test_bit_identity import BATCH

    seqs = [LinearRecurrence(*spec) for spec in BATCH[:9]] + [N2N]
    seqs += [BUILTIN_SEQUENCES[name] for name in ("fib", "lucas", "pow2", "pow3", "tribonacci")]
    seqs += [LinearRecurrence("padovan", (0, 1, 1), (1, 1, 1)),
             LinearRecurrence("close", (3, -5, 4, 4), (-1, 3, 2, 2)),
             LinearRecurrence("close", (8, -18, 0, 26, 3, 9, -27), (-2, 1, 4, -2, -4, -2, -2))]
    on, windows = spectral._envelope_on, []

    def spy(decomp, cert, field, products, alpha_prime, rhos, powers, n_seg, n0_max):
        found = on(decomp, cert, field, products, alpha_prime, rhos, powers, n_seg, n0_max)
        windows.append(((decomp, cert, field, products, alpha_prime, rhos, n_seg, n0_max), found))
        return found

    monkeypatch.setattr(spectral, "_envelope_on", spy)
    for seq in seqs:
        spectral._analyze_uncached(seq)
    certified, wider = 0, 0
    for args, (env, width) in windows:
        a_prime, n0, c_lower = _envelope_loops_by_intervals(*args)
        prec = args[2].prec
        if width:
            assert c_lower is None, (args[0].sequence.name, prec)
            wider += 1
        if env is None:
            continue
        assert env.n0 == n0, (args[0].sequence.name, prec)
        # both sides round each running power of the window once a step, a
        # ball's radius by up to two units of 2^-prec, an interval's ends by
        # one: n_seg units bound the drift (12.8 is the largest seen)
        n_seg = args[6]
        for got, want in ((env.a_prime, a_prime), (env.c_lower, c_lower)):
            assert abs(got - want) <= want * n_seg / 2 ** prec, (args[0].sequence.name, prec)
        certified += 1
    assert certified == len(seqs) and wider >= 2


@pytest.mark.parametrize("k, constants", [
    (12, ("0.000244260294067", "0.0113076966657", "0.0110518663218")),
    (16, ("1.52457490754e-05", "0.0027826520489", "0.00276467498394")),
])
def test_kbonacci_12_and_16_certify_at_512_bits(k, constants):
    # the closed-form coefficient boxes pin U_200 at 512 bits, where the
    # boxes from elimination needed 1024; c_lower, c_upper and a_prime agree
    # with the 1024-bit analysis to 12 digits
    seq = LinearRecurrence("kbonacci-%d" % k, (1,) * k, (0,) * (k - 1) + (1,))
    analysis = spectral._analyze_uncached(seq)
    env = analysis.envelope
    assert analysis.spectrum.precision_bits == 512
    assert tuple("%.12g" % v for v in (env.c_lower, env.c_upper, env.a_prime)) == constants


@st.composite
def _order_2_to_5(draw):
    """Recurrences of order 2-5; in about half the draws of order >= 3 the
    characteristic polynomial has a double root 2, -2 or 3."""
    k = draw(st.sampled_from((2, 3, 4, 5)))
    double = k >= 3 and draw(st.booleans())
    size = k - 2 if double else k
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size)
                  .filter(lambda c: not c or c[-1] != 0))
    if double:
        r = draw(st.sampled_from((2, -2, 3)))
        poly = [1] + [-c for c in coeffs]
        poly = [a - 2 * r * b + r * r * c
                for a, b, c in zip(poly + [0, 0], [0] + poly + [0], [0, 0] + poly)]
        coeffs = [-c for c in poly[1:]]
    init = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
    return LinearRecurrence("random", tuple(coeffs), tuple(init))


@settings(max_examples=25, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate),
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(seq=_order_2_to_5())
def test_binet_coefficients_are_real_and_conjugate(seq):
    # on every certified analysis: a real root's coefficient boxes have the
    # point 0 as imaginary part, the coefficients of a mirrored pair are
    # exact conjugates, and the decomposition alone, with powers of the root
    # boxes and no stream, pins U_n for n <= _CHECK_BOUND
    try:
        decomp = analyze_sequence(seq).decomposition
    except (NoDominantRoot, RootNotLargerThanOne, PrecisionExhausted):
        return
    roots = decomp.spectrum.roots
    for i, root in enumerate(roots):
        group = decomp.coefficients[i]
        if root.is_real:
            assert all(c.im._mpi_ == (fzero, fzero) for c in group)
            continue
        mirrors = [j for j, r in enumerate(roots)
                   if r.min_poly == root.min_poly and r.box.re._mpi_ == root.box.re._mpi_
                   and r.box.im._mpi_ == mpi_neg(root.box.im._mpi_)]
        assert len(mirrors) == 1 and mirrors[0] != i
        for c, m in zip(group, decomp.coefficients[mirrors[0]]):
            assert c.re._mpi_ == m.re._mpi_ and c.im._mpi_ == mpi_neg(m.im._mpi_)
    for n in range(spectral._CHECK_BOUND + 1):
        box, target = decomp.reconstruct(n), seq.term(n)
        assert contains_zero(box.im)
        assert bool(box.re.a > target - 1) and bool(box.re.b < target + 1), n


def test_a_non_real_root_without_its_mirror_is_an_internal_error():
    decomp = analyze_sequence(TRIB).decomposition
    roots, field = decomp.spectrum.roots, IntervalField(decomp.spectrum.precision_bits)
    # the real root and the root above the axis make one column each
    assert [c[0] for c in spectral._real_coefficients(field, roots, decomp.coefficients)[1]] \
        == [i for i, r in enumerate(roots) if lower_float(r.box.im) >= 0]
    lone = [(r, c) for r, c in zip(roots, decomp.coefficients) if upper_float(r.box.im) <= 0]
    assert len(lone) == 2
    with pytest.raises(KeyError):           # the root below the axis without its mirror
        spectral._real_coefficients(field, *zip(*lone))


def test_independence_of_one_cubic_root_and_itself():
    cubic = (1, 0, -3, 1)                           # roots -1.879, 0.347, 1.532
    root = AlgebraicNumber.from_min_poly(cubic, 2)              # 192-bit box
    assert -1.9 < midpoint_float(root.box.re) < -1.8
    again = analyze_sequence(LinearRecurrence("r", (0, 3, -1), (4, 4, 4))).certificate.root
    assert again.box.re._mpi_ != root.box.re._mpi_               # another precision
    same = multiplicative_independence(root, again)
    assert (same.status, same.n, same.m) == ("dependent", 1, 1)
    # overlapping boxes of two distinct roots prove nothing: unknown, not dependent
    F = IntervalField(64)
    low = AlgebraicNumber(cubic, F.box_from_intervals(
        F.from_endpoints(F.real(Fraction(3, 10)), F.real(1)), F.real(0)), True)
    high = AlgebraicNumber(cubic, F.box_from_intervals(
        F.from_endpoints(F.real(Fraction(9, 10)), F.real(Fraction(8, 5))), F.real(0)), True)
    assert not low.box.is_disjoint_from(high.box)
    assert multiplicative_independence(low, high).status == "unknown"
    top = AlgebraicNumber.from_min_poly(cubic, 0)
    assert multiplicative_independence(top, high).status == "dependent"
