import math
from dataclasses import replace
from fractions import Fraction

import pytest
from mpmath.libmp import mpf_le, mpi_mul, mpi_pow_int

from recdiff import spectral
from recdiff.errors import NoDominantRoot, RootNotLargerThanOne
from recdiff.heights import AlgebraicNumber
from recdiff.independence import multiplicative_independence
from recdiff.intervals import (
    IntervalField,
    contains,
    contains_zero,
    is_subset,
    lower_float,
    midpoint_float,
    upper_float,
)
from recdiff.quadratic import QuadraticElement, quadratic_roots
from recdiff.recurrences import BUILTIN_SEQUENCES, LinearRecurrence
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
            got = spectral._verify_envelope(replace(e, verified_to=top), decomp, field, products)
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

    def spy(env, decomp, field, products):
        rungs.append((env, decomp, field, products))
        return verify(env, decomp, field, products)

    monkeypatch.setattr(spectral, "_verify_envelope", spy)
    for seq in seqs:
        spectral._analyze_uncached(seq)
    assert {decomp.sequence for _, decomp, _, _ in rungs} == set(seqs)
    verdicts = []
    for env, decomp, field, products in rungs:
        for e in _tightened(env):
            got = verify(e, decomp, field, products)
            assert got == _verify_envelope_by_interval_sqrt(e, decomp, field, 500), \
                (decomp.sequence.name, field.prec)
            verdicts.append(got)
    assert True in verdicts and False in verdicts


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
