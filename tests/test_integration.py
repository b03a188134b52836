"""Cross-module checks on harder sequences: higher order, negative dominant
root, mixed-sign terms."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
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
], ids=("tetra-pow2", "neg2-pow3", "padovan-neg2", "neg2-pow3-1e6", "negfib-pow2-1e6",
        "negphi-pow3-1e6", "n2n-pow3-1e9", "n2n-kbonacci5-1e9", "kbonacci6-n2-2n-1e9"))
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
    k = draw(st.sampled_from((2, 3)))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)
                  .filter(lambda c: c[-1] != 0))
    init = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
    return LinearRecurrence("random", tuple(coeffs), tuple(init))


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(seq_u=_recurrences(), seq_v=_recurrences(), x=st.integers(0, 200))
def test_random_recurrences_fast_vs_oracle(seq_u, seq_v, x):
    # every analysis over these coefficient ranges ends within a second.  Two
    # copies of one cubic recurrence are drawn too: their shared dominant root
    # gives alpha^1 = beta^1, and the count refuses with the dependent-roots
    # ValueError in well under a second
    for seq in (seq_u, seq_v):
        try:
            analyze_sequence(seq)
        except (NoDominantRoot, RootNotLargerThanOne, PrecisionExhausted):
            assume(False)
    try:
        fast = count_T_S(seq_u, seq_v, x)
    except CutoffUnsafe:
        return
    except ValueError as exc:
        assert "multiplicatively dependent" in str(exc)
        return
    oracle = brute_force_oracle(seq_u, seq_v, x, 3 * fast.n_cut + 5, 3 * fast.m_cut + 5)
    assert (fast.T, fast.S) == (oracle.T, oracle.S)
