"""Every constant of the effective upper-bound chain for seven pairs, pinned
by one SHA-256.

The digest covers the full-precision ``repr`` of each ``EffectiveBounds``:
every ledger record (name, value, formula, rigor flag), the P/Q/R records
of n_max and m_max, c0 and the ``rigorous`` flag.  A change to the chain
that moves one bit of one constant fails here.  The pairs cover a shared
quadratic field in both orders, a cubic dominant root, a polynomial
coefficient (n 2^n has sigma = 1) on either side, and a rational pair.

Run as a script, ``python tests/test_ledger_identity.py`` prints the digest
of the checkout it sits in, to compare two commits of the bound layer.
"""

import hashlib
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from recdiff.matveev import effective_upper_bounds  # noqa: E402
from recdiff.recurrences import BUILTIN_SEQUENCES, LinearRecurrence  # noqa: E402
from recdiff.spectral import analyze_sequence  # noqa: E402

N2N = LinearRecurrence("n2n", (4, -4), (0, 2))
SEQUENCES = dict(BUILTIN_SEQUENCES, n2n=N2N)
PAIRS = [
    ("fib", "pow2"), ("pow2", "fib"), ("tribonacci", "pow3"), ("pow3", "n2n"),
    ("n2n", "pow3"), ("lucas", "pow3"), ("pow2", "pow3"),
]
DIGEST = "a43deab3744fef1f8f4950b7911eb6de11eb4b6a98bd513b52f3a213a9ef8476"


def raw_bounds(eb):
    """Every number of one chain result, with its repr at full precision."""
    return (eb.ledger, eb.n_bound, eb.m_bound, eb.c0, eb.rigorous)


def digest(pairs):
    """SHA-256 of the chain results of ``pairs``, by sequence name."""
    records = [raw_bounds(effective_upper_bounds(analyze_sequence(SEQUENCES[u]),
                                                 analyze_sequence(SEQUENCES[v])))
               for u, v in pairs]
    return hashlib.sha256(repr(records).encode()).hexdigest()


def test_ledger_is_bit_identical():
    assert digest(PAIRS) == DIGEST


if __name__ == "__main__":
    print("PAIRS", digest(PAIRS))
