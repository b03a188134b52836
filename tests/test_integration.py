"""Cross-module checks on harder sequences: higher order, negative dominant
root, mixed-sign terms."""

import pytest
from hypothesis import HealthCheck, Phase, assume, given, settings
from hypothesis import strategies as st

from recdiff.counting import brute_force_oracle, count_T_S
from recdiff.errors import (
    CutoffUnsafe,
    NoDominantRoot,
    PrecisionExhausted,
    RootNotLargerThanOne,
)
from recdiff.intervals import midpoint_float
from recdiff.matveev import effective_upper_bounds
from recdiff.recurrences import BUILTIN_SEQUENCES, LinearRecurrence
from recdiff.spectral import analyze_sequence

TETRA = LinearRecurrence("tetranacci", (1, 1, 1, 1), (0, 0, 0, 1))
PADOVAN = LinearRecurrence("padovan", (0, 1, 1), (1, 1, 1))
NEG2 = LinearRecurrence("neg2", (-2,), (1,))
N2N = LinearRecurrence("n2n", (4, -4), (0, 2))
NEG_FIB = LinearRecurrence("negfib", (1, 1), (0, -1))
NEG_PHI = LinearRecurrence("negphi", (-1, 1), (1, 1))          # dominant root -phi
KBONACCI_5 = LinearRecurrence("kbonacci-5", (1,) * 5, (0,) * 4 + (1,))
KBONACCI_6 = LinearRecurrence("kbonacci-6", (1,) * 6, (0,) * 5 + (1,))
N2_2N = LinearRecurrence("n2-2n", (6, -12, 8), (0, 1, 8))      # n^2 2^(n-1)


def test_tetranacci_analysis():
    a = analyze_sequence(TETRA)
    assert abs(midpoint_float(a.certificate.modulus()) - 1.9275619754829254) < 1e-9
    assert a.certificate.sigma == 0
    assert float(a.envelope.c_lower) > 0


def test_padovan_analysis():
    a = analyze_sequence(PADOVAN)
    assert abs(midpoint_float(a.certificate.modulus()) - 1.3247179572447460) < 1e-9
    assert float(a.certificate.margin_lower) > 0.4


def test_negative_dominant_root():
    a = analyze_sequence(NEG2)
    assert midpoint_float(a.certificate.root.box.re) == -2.0
    assert midpoint_float(a.certificate.modulus()) == 2.0
    assert [NEG2.term(i) for i in range(5)] == [1, -2, 4, -8, 16]


@pytest.mark.parametrize("seq_u,seq_v,x", [
    (TETRA, BUILTIN_SEQUENCES["pow2"], 50),
    (NEG2, BUILTIN_SEQUENCES["pow3"], 100),     # alternating-sign U
    (PADOVAN, NEG2, 30),                        # alternating-sign V
    (NEG2, BUILTIN_SEQUENCES["pow3"], 10 ** 6),
    (NEG_FIB, BUILTIN_SEQUENCES["pow2"], 10 ** 6),  # negative terms throughout
    (NEG_PHI, BUILTIN_SEQUENCES["pow3"], 10 ** 6),  # negative irrational dominant root
    (N2N, BUILTIN_SEQUENCES["pow3"], 10 ** 9),      # sigma = 1 on the U side
    (N2N, KBONACCI_5, 10 ** 9),
    (KBONACCI_6, N2_2N, 10 ** 9),                   # sigma = 2 on the V side
    # presentations that are not minimal: T/S = 266/261, 409/387, 266/261, 266/261
    (LinearRecurrence("pow2-5-6", (5, -6), (1, 2)), BUILTIN_SEQUENCES["pow3"], 10 ** 6),
    (LinearRecurrence("fib-cubic", (4, -2, -3), (0, 1, 1)), BUILTIN_SEQUENCES["pow3"], 10 ** 6),
    (LinearRecurrence("pow2-cubic", (6, -11, 6), (1, 2, 4)), BUILTIN_SEQUENCES["pow3"], 10 ** 6),
    (LinearRecurrence("pow2-0-4", (0, 4), (1, 2)), BUILTIN_SEQUENCES["pow3"], 10 ** 6),
], ids=("tetra-pow2", "neg2-pow3", "padovan-neg2", "neg2-pow3-1e6", "negfib-pow2-1e6",
        "negphi-pow3-1e6", "n2n-pow3-1e9", "n2n-kbonacci5-1e9", "kbonacci6-n2-2n-1e9",
        "pow2-5-6-pow3-1e6", "fib-cubic-pow3-1e6", "pow2-cubic-pow3-1e6", "pow2-0-4-pow3-1e6"))
def test_fast_count_matches_oracle(seq_u, seq_v, x):
    fast = count_T_S(seq_u, seq_v, x)
    oracle = brute_force_oracle(seq_u, seq_v, x,
                                3 * fast.n_cut + 5, 3 * fast.m_cut + 5)
    assert (fast.T, fast.S) == (oracle.T, oracle.S)


def test_effective_bounds_polynomial_coefficient_side():
    # tau = 1 on the V side exercises the |b(m)| floor machinery
    a_p3 = analyze_sequence(BUILTIN_SEQUENCES["pow3"])
    a_n2n = analyze_sequence(N2N)
    eb = effective_upper_bounds(a_p3, a_n2n)
    assert eb.rigorous
    assert eb.m_bound.Q == pytest.approx(1.4426950408889634, rel=1e-12)
    for n in range(0, 30):
        for m in range(1, 25):
            c = BUILTIN_SEQUENCES["pow3"].term(n) - N2N.term(m)
            if abs(c) <= 50:
                assert n <= eb.n_max(abs(c)) and m <= eb.m_max(abs(c))


from recdiff.errors import NoDominantRoot


# a deterministic spread of order <= 2 shapes: negative roots, negative and
# mixed-sign initial terms, non-monotone growth
CROSS_CASES = [
    ((3, -1), (1, 4), 40),
    ((2, 1), (-1, 3), 25),
    ((-3,), (2,), 60),
    ((1, 2), (0, 1), 33),       # roots 2 and -1
    ((-1, 2), (5, -3), 50),
    ((3,), (-1,), 17),
    ((2, 2), (1, 1), 48),
    ((1, 1), (-2, 1), 29),
]


@pytest.mark.parametrize("coeffs,init,x", CROSS_CASES)
def test_varied_sequences_fast_vs_oracle(coeffs, init, x):
    seq = LinearRecurrence("case", coeffs, init)
    pow2 = BUILTIN_SEQUENCES["pow2"]
    fast = count_T_S(seq, pow2, x)
    oracle = brute_force_oracle(seq, pow2, x, 3 * fast.n_cut + 5, 3 * fast.m_cut + 5)
    assert (fast.T, fast.S) == (oracle.T, oracle.S)


def test_binomial_tie_rejected_quickly():
    with pytest.raises(NoDominantRoot):
        analyze_sequence(LinearRecurrence("cbrt2", (0, 0, 2), (1, 1, 1)))   # X^3 = 2


@st.composite
def _recurrences(draw):
    k = draw(st.sampled_from((2, 3, 4, 5)))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)
                  .filter(lambda c: c[-1] != 0))
    init = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
    if draw(st.booleans()):     # (-1)^n U_n: the dominant root changes sign
        coeffs = [c * (-1) ** i for i, c in enumerate(coeffs, 1)]
        init = [u * (-1) ** n for n, u in enumerate(init)]
    if draw(st.booleans()):     # times (X - r)^2: a double root r, dominant when |r| wins
        r = draw(st.sampled_from((2, -2, 3)))
        poly = [1] + [-c for c in coeffs]
        poly = [a - 2 * r * b + r * r * c
                for a, b, c in zip(poly + [0, 0], [0] + poly + [0], [0, 0] + poly)]
        coeffs = [-c for c in poly[1:]]
        init = draw(st.lists(st.integers(-4, 4), min_size=k + 2, max_size=k + 2))
    return LinearRecurrence("random", tuple(coeffs), tuple(init))


@settings(max_examples=6, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate),
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(seq_u=_recurrences(), seq_v=_recurrences(), x=st.integers(0, 200))
def test_random_recurrences_fast_vs_oracle(seq_u, seq_v, x):
    # orders 2-7, so non-real roots from seed boxes and, in about half the
    # draws, a double dominant root (sigma = 1) reach the oracle; every
    # analysis over these coefficient ranges ends within a second.  Two
    # copies of one cubic recurrence are drawn too: their shared dominant root
    # gives alpha^1 = beta^1, and the count refuses with the dependent-roots
    # ValueError in well under a second.  The drawn terms take both signs and
    # zero, so c = 0 and equal terms occur; each x is counted twice, in
    # rising and falling order.  A CutoffUnsafe on a drawn pair fails the test
    for seq in (seq_u, seq_v):
        try:
            analyze_sequence(seq)
        except (NoDominantRoot, RootNotLargerThanOne, PrecisionExhausted):
            assume(False)
    try:
        counts = [count_T_S(seq_u, seq_v, y)
                  for y in (x // 49, x // 7, x, x // 7, x // 49, x)]
    except ValueError as exc:
        assert "multiplicatively dependent" in str(exc)
        return
    for fast in counts:
        oracle = brute_force_oracle(seq_u, seq_v, fast.x, 3 * fast.n_cut + 5, 3 * fast.m_cut + 5)
        assert (fast.T, fast.S) == (oracle.T, oracle.S)


def _count_outcome(seq_u, seq_v, x):
    """(T, S), or the refusal's type and message."""
    try:
        fast = count_T_S(seq_u, seq_v, x)
    except (ValueError, CutoffUnsafe) as exc:
        return type(exc), str(exc)
    return fast.T, fast.S


@settings(max_examples=8, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate),
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(seq=_recurrences(), r=st.sampled_from((-3, -2, -1, 1, 2, 3)), x=st.integers(0, 10 ** 4))
def test_a_spare_root_changes_nothing(seq, r, x):
    # the characteristic polynomial times (X - r), with the first k + 1 terms
    # kept: the same sequence, so the same minimal recurrence, analysis and
    # count.  Draws whose original is refused are not compared
    try:
        original = analyze_sequence(seq)
    except (NoDominantRoot, RootNotLargerThanOne, PrecisionExhausted):
        assume(False)
    poly = [1] + [-c for c in seq.coefficients] + [0]
    poly = [a - r * b for a, b in zip(poly, [0] + poly)]
    spare = LinearRecurrence(seq.name, tuple(-c for c in poly[1:]),
                             tuple(seq.terms(seq.order + 1)))
    cert, spare_cert = original.certificate, analyze_sequence(spare).certificate
    assert spare_cert.sigma == cert.sigma
    (lo, hi), (spare_lo, spare_hi) = cert.modulus_bounds(), spare_cert.modulus_bounds()
    assert lo <= spare_hi and spare_lo <= hi
    pow2 = BUILTIN_SEQUENCES["pow2"]
    assert _count_outcome(spare, pow2, x) == _count_outcome(seq, pow2, x)
