"""Every endpoint of a set of cold analyses, pinned by one SHA-256, and the
early refusal of a Binet rung, which must never change a rung's verdict.

The digest covers the raw mpmath endpoint tuples of each root box and Binet
coefficient box, the certificate (dominant root, sigma, ``margin_lower``),
every envelope field and the precision of each stage, so a change to the
spectral pipeline that moves a single bit of any of them fails here.  The
recurrences are the seed-1 batch of the spectral-cold benchmark, k-bonacci
of order 5, and x^5 - x - 1 as a recurrence.
"""

import hashlib

from recdiff import spectral
from recdiff.intervals import IntervalField
from recdiff.recurrences import BUILTIN_SEQUENCES, LinearRecurrence
from recdiff.spectral import analyze_sequence

BATCH = [
    ("tribonacci", (1, 1, 1), (0, 0, 1)),
    ("tetranacci", (1, 1, 1, 1), (0, 0, 0, 1)),
    ("irreducible-cubic-a", (0, 2, 2), (9, 1, 4)),
    ("irreducible-cubic-b", (0, 2, 2), (1, 7, 7)),
    ("irreducible-quartic", (1, 0, 2, 2), (6, 3, 1, 7)),
    ("reducible-cubic-0", (0, 2, 1), (6, 9, 0)),
    ("reducible-cubic-1", (1, 3, 1), (7, 4, 3)),
    ("reducible-quartic-0", (2, 2, 2, 3), (5, 0, 0, 0)),
    ("reducible-quartic-1", (0, 1, 2, 1), (8, 0, 6, 3)),
    ("kbonacci-5", (1, 1, 1, 1, 1), (0, 0, 0, 0, 1)),
    ("x^5-x-1", (0, 0, 0, 1, 1), (0, 0, 0, 0, 1)),
]
DIGEST = "5c5ef224aa9c33211a7a403e79745e26a5eac0512c039d4310260aff3d451e64"


def raw_box(box):
    """(re, im) as mpmath's (sign, mantissa, exponent, bitcount) endpoint tuples."""
    return tuple(tuple(tuple(int(v) for v in end) for end in part._mpi_)
                 for part in (box.re, box.im))


def raw_analysis(analysis):
    """Every number of one analysis, as raw endpoints and exact strings."""
    decomp, cert, env = analysis.decomposition, analysis.certificate, analysis.envelope
    return (
        analysis.spectrum.precision_bits,
        [(r.min_poly, r.is_real, r.multiplicity, raw_box(r.box))
         for r in analysis.spectrum.roots],
        decomp.precision_bits, decomp.check_bound,
        [[raw_box(c) for c in group] for group in decomp.coefficients],
        cert.root_index, cert.sigma, str(cert.margin_lower), cert.precision_bits,
        [str(v) for v in (env.c_lower, env.c_upper, env.alpha_prime, env.a_prime)],
        env.n0, env.sigma, env.verified_to, env.precision_bits,
    )


def test_cold_analyses_are_bit_identical():
    records = [raw_analysis(analyze_sequence(LinearRecurrence(*spec))) for spec in BATCH]
    assert hashlib.sha256(repr(records).encode()).hexdigest() == DIGEST


def test_early_refusal_keeps_every_rung_verdict(monkeypatch):
    # the seed-1 batch and five builtins: at 256 and 512 bits, _binet_at
    # returns None exactly when its check loop alone would
    seqs = [LinearRecurrence(*spec) for spec in BATCH[:9]]
    seqs += [BUILTIN_SEQUENCES[name] for name in ("fib", "lucas", "pow2", "pow3", "tribonacci")]
    refusal, fired = spectral._check_fails_at_bound, []

    def spy(decomp, field):
        if refusal(decomp, field):
            fired.append((decomp.sequence.name, field.prec))
            return True
        return False

    for bits in (256, 512):
        field = IntervalField(bits)
        for seq in seqs:
            spectrum = spectral._spectrum_at(seq, field)
            assert spectrum is not None
            monkeypatch.setattr(spectral, "_check_fails_at_bound", spy)
            early = spectral._binet_at(seq, spectrum, field)
            monkeypatch.setattr(spectral, "_check_fails_at_bound", lambda decomp, field: False)
            late = spectral._binet_at(seq, spectrum, field)
            assert (early is None) == (late is None), (seq.name, bits)
    assert ("tribonacci", 256) in fired
