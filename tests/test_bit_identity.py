"""Every endpoint of two sets of cold analyses, each pinned by one SHA-256;
the early refusal of a Binet rung, which must never change a rung's verdict;
and the Binet products the envelope shares with the check loop.

A digest covers the raw mpmath endpoint tuples of each root box and Binet
coefficient box, the certificate (dominant root, sigma, ``margin_lower``),
every envelope field and the precision of each stage, so a change to the
spectral pipeline that moves a single bit of any of them fails here.  The
first set is the seed-1 batch of the spectral-cold benchmark, k-bonacci of
order 5, and x^5 - x - 1 as a recurrence.  The second is the drawn members
of the seed-5 and seed-7 batches (their anchors are in the first set) and
k-bonacci of order 8.  A third digest pins the seed path of root isolation,
which none of those takes: the boxes of x^4 + 3x^2 + 1 (roots on Re = 0) at
192 and 512 bits and the analysis of (x - 3)(x^4 + 3x^2 + 1).

Run as a script, ``python tests/test_bit_identity.py`` prints the three
digests of the checkout it sits in, to compare two commits of the spectral
layer.
"""

import hashlib
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from recdiff import _roots, spectral  # noqa: E402
from recdiff.intervals import IntervalField  # noqa: E402
from recdiff.recurrences import BUILTIN_SEQUENCES, LinearRecurrence  # noqa: E402
from recdiff.spectral import analyze_sequence  # noqa: E402

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
BATCH_5_7 = [
    ("irreducible-cubic-a", (1, 0, 3), (4, 5, 8)),
    ("irreducible-cubic-b", (1, 0, 3), (0, 7, 3)),
    ("irreducible-quartic", (1, 1, 1, 1), (0, 2, 1, 5)),
    ("reducible-cubic-0", (1, 3, 1), (6, 8, 1)),
    ("reducible-cubic-1", (0, 3, 2), (9, 3, 0)),
    ("reducible-quartic-0", (1, 0, 1, 1), (4, 2, 6, 2)),
    ("reducible-quartic-1", (1, 2, 3, 1), (1, 2, 9, 9)),
    ("irreducible-cubic-a", (0, 2, 3), (2, 6, 0)),
    ("irreducible-cubic-b", (0, 2, 3), (1, 8, 1)),
    ("irreducible-quartic", (0, 3, 1, 1), (9, 0, 8, 3)),
    ("reducible-cubic-0", (0, 2, 1), (6, 6, 1)),
    ("reducible-cubic-1", (2, 2, 3), (3, 1, 8)),
    ("reducible-quartic-0", (1, 2, 3, 1), (9, 1, 3, 9)),
    ("reducible-quartic-1", (0, 0, 3, 2), (0, 9, 9, 6)),
    ("kbonacci-8", (1,) * 8, (0,) * 7 + (1,)),
]
DIGEST = "5c5ef224aa9c33211a7a403e79745e26a5eac0512c039d4310260aff3d451e64"
DIGEST_5_7 = "b6ab4b2e5423c4df5bb3973de361e23c770a733ece639cd854af0883caea2efd"
SEED_PATH_DIGEST = "490ba8eff2533df1501db609b1e1911b40dd92bf70cb20b24c30fdd8e465f4c0"


def raw_box(box):
    """(re, im) as mpmath's (sign, mantissa, exponent, bitcount) endpoint tuples."""
    return tuple(tuple(tuple(int(v) for v in end) for end in part._mpi_)
                 for part in (box.re, box.im))


def raw_analysis(analysis):
    """Every number of one analysis, as raw endpoints and exact strings."""
    decomp, cert, env = analysis.decomposition, analysis.certificate, analysis.envelope
    bits = analysis.spectrum.precision_bits     # every stage runs on this one rung
    return (
        bits,
        [(r.min_poly, r.is_real, r.multiplicity, raw_box(r.box))
         for r in analysis.spectrum.roots],
        bits, spectral._CHECK_BOUND,
        [[raw_box(c) for c in group] for group in decomp.coefficients],
        cert.root_index, cert.sigma, str(cert.margin_lower), bits,
        [str(v) for v in (env.c_lower, env.c_upper, env.alpha_prime, env.a_prime)],
        env.n0, env.sigma, env.verified_to, bits,
    )


def digest(batch):
    """SHA-256 of the raw records of fresh analyses of ``batch``."""
    records = [raw_analysis(analyze_sequence(LinearRecurrence(*spec))) for spec in batch]
    return hashlib.sha256(repr(records).encode()).hexdigest()


def seed_path_digest():
    """SHA-256 of the x^4 + 3x^2 + 1 boxes at 192 and 512 bits, at spectral's
    eps for each rung, and of a fresh analysis of (x - 3)(x^4 + 3x^2 + 1)."""
    boxes = [[raw_box(r.box) for r in _roots.isolate_factor_roots(
        IntervalField(bits), (1, 0, 3, 0, 1), eps_bits=max(32, min(bits // 4, 256)))]
        for bits in (192, 512)]
    analysis = spectral._analyze_uncached(LinearRecurrence("imag3", (3, -3, 9, -1, 3),
                                                           (0, 0, 0, 0, 1)))
    return hashlib.sha256(repr((boxes, raw_analysis(analysis))).encode()).hexdigest()


def test_cold_analyses_are_bit_identical():
    assert digest(BATCH) == DIGEST


def test_seed_5_and_7_analyses_are_bit_identical():
    assert digest(BATCH_5_7) == DIGEST_5_7


def test_seed_path_is_bit_identical():
    assert seed_path_digest() == SEED_PATH_DIGEST


def test_cached_analysis_keeps_no_binet_rows():
    for name in ("fib", "tribonacci"):
        decomp = analyze_sequence(BUILTIN_SEQUENCES[name]).decomposition
        assert set(vars(decomp)) == {f.name for f in fields(decomp)}


def test_each_window_product_is_computed_once_per_rung(monkeypatch):
    # a_i(n) * root_i^n for n <= _WINDOW comes from the Binet check loop
    # alone; the envelope's window and exact check only continue past it
    part, envelope = spectral._binet_part, spectral._envelope_at
    calls, stage = [], ["binet"]

    def part_spy(decomp, i, n, power):
        calls.append((stage[0], decomp, i, n))
        return part(decomp, i, n, power)

    def envelope_spy(*args):
        stage[0] = "envelope"
        try:
            return envelope(*args)
        finally:
            stage[0] = "binet"

    monkeypatch.setattr(spectral, "_binet_part", part_spy)
    monkeypatch.setattr(spectral, "_envelope_at", envelope_spy)
    for spec in BATCH[:9]:
        spectral._analyze_uncached(LinearRecurrence(*spec))
    window = Counter(call for call in calls if call[3] <= spectral._WINDOW)
    assert set(window.values()) == {1}
    assert {call[0] for call in window} == {"binet"}
    rungs = {decomp for kind, decomp, _, _ in calls if kind == "envelope"}
    assert len(rungs) >= 9
    for decomp in rungs:
        assert {(i, n) for _, d, i, n in window if d is decomp} == \
            {(i, n) for i in range(len(decomp.spectrum.roots))
             for n in range(spectral._WINDOW + 1)}


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


if __name__ == "__main__":
    for name, batch in (("BATCH", BATCH), ("BATCH_5_7", BATCH_5_7)):
        print(name, digest(batch))
    print("SEED_PATH", seed_path_digest())
