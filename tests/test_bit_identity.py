"""Every endpoint of two sets of cold analyses, each pinned by one SHA-256;
the early refusal of a Binet rung, which must never change a rung's verdict;
and the Binet products the envelope shares with the check loop: one stream
per rung, computed once.

A digest covers the raw mpmath endpoint tuples of each root box and Binet
coefficient box, the certificate (dominant root, sigma, ``margin_lower``),
every envelope field and the precision of each stage, so a change to the
spectral pipeline that moves a single bit of any of them fails here.  The
first set is the seed-1 batch of the spectral-cold benchmark, k-bonacci of
order 5, and x^5 - x - 1 as a recurrence.  The second is the drawn members
of the seed-5 and seed-7 batches (their anchors are in the first set) and
k-bonacci of order 8.  A third digest pins the seed boxes of roots on
Re = 0, a line on which sympy's bisection splits: the boxes of
x^4 + 3x^2 + 1 at 192 and 512 bits and the analysis of
(x - 3)(x^4 + 3x^2 + 1).  A fourth pins the root boxes alone, at their
certified rungs, of both batches and of k-bonacci of orders 3-16, so that a
change which moves only coefficient boxes re-pins the batch digests and
leaves this one.

Run as a script, ``python tests/test_bit_identity.py`` prints the four
digests of the checkout it sits in, and after each batch digest the rung of
each of its analyses in batch order, to compare two commits of the spectral
layer: a re-pin then shows whether a rung moved.
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
KBONACCI = [("kbonacci-%d" % k, (1,) * k, (0,) * (k - 1) + (1,)) for k in range(3, 17)]
DIGEST = "3edb785ae1d1ce372841477f3faeaf9b734fcef5c8d4e318b17ce4e33c46cbbe"
DIGEST_5_7 = "75e9578ef3da1f743058fd80b86a903aa42446d2e6e176bbb019ceff9afc393e"
SEED_PATH_DIGEST = "25577c58e722cd09185469c335fe5cc969081aea2f83bd7dc791147e756ed166"
ROOT_DIGEST = "b790dcf389611e4387a5ec16041df25571cec7589a3a47e12233eee46b0fb0ea"


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


def analyses(batch):
    """Fresh analyses of ``batch``, in its order."""
    return [analyze_sequence(LinearRecurrence(*spec)) for spec in batch]


def digest(done):
    """SHA-256 of the raw records of the analyses ``done``."""
    return hashlib.sha256(repr([raw_analysis(a) for a in done]).encode()).hexdigest()


def root_digest(done):
    """SHA-256 of the rung and the raw root boxes of the analyses ``done``."""
    return hashlib.sha256(repr([(a.spectrum.precision_bits,
                                 [raw_box(r.box) for r in a.spectrum.roots])
                                for a in done]).encode()).hexdigest()


def seed_path_digest():
    """SHA-256 of the x^4 + 3x^2 + 1 boxes at 192 and 512 bits and of a fresh
    analysis of (x - 3)(x^4 + 3x^2 + 1)."""
    boxes = [[raw_box(r.box) for r in _roots.isolate_factor_roots(IntervalField(bits),
                                                                  (1, 0, 3, 0, 1))]
             for bits in (192, 512)]
    analysis = spectral._analyze_uncached(LinearRecurrence("imag3", (3, -3, 9, -1, 3),
                                                           (0, 0, 0, 0, 1)))
    return hashlib.sha256(repr((boxes, raw_analysis(analysis))).encode()).hexdigest()


def test_cold_analyses_are_bit_identical():
    assert digest(analyses(BATCH)) == DIGEST


def test_seed_5_and_7_analyses_are_bit_identical():
    assert digest(analyses(BATCH_5_7)) == DIGEST_5_7


def test_seed_path_is_bit_identical():
    assert seed_path_digest() == SEED_PATH_DIGEST


def test_root_boxes_are_bit_identical():
    assert root_digest(analyses(BATCH + BATCH_5_7 + KBONACCI)) == ROOT_DIGEST


def test_every_analysis_certifies_at_its_pinned_rung():
    # the rungs on their own, so that a digest re-pinned for a moved low bit
    # of a constant cannot hide a moved rung
    assert [a.spectrum.precision_bits for a in analyses(BATCH)] == \
        [512, 512, 512, 512, 512, 256, 512, 512, 256, 512, 256]
    assert [a.spectrum.precision_bits for a in analyses(BATCH_5_7)] == \
        [512, 512, 512, 512, 256, 256, 512, 512, 512, 512, 256, 512, 512, 256, 512]
    assert {name: analyze_sequence(seq).spectrum.precision_bits
            for name, seq in BUILTIN_SEQUENCES.items()} == \
        {"fib": 256, "lucas": 256, "pow2": 256, "pow3": 512, "tribonacci": 512}


def test_cached_analysis_keeps_no_binet_rows():
    for name in ("fib", "tribonacci"):
        decomp = analyze_sequence(BUILTIN_SEQUENCES[name]).decomposition
        assert set(vars(decomp)) == {f.name for f in fields(decomp)}


def test_each_window_product_is_computed_once_per_rung(monkeypatch):
    # the part of each stream column (a real root, or a conjugate pair) for
    # n <= _CHECK_BOUND comes from the Binet check loop alone; the
    # envelope's window and exact check only continue past it, and a
    # certified envelope computes just the dominant column's parts for
    # n = _CHECK_BOUND + 1 .. verified_to
    step, envelope = spectral._stream_row, spectral._envelope_at
    calls, stage, rungs = [], ["binet"], {}

    def step_spy(columns, powers, n, prec):
        # keeps each column, so its id stays its own
        calls.extend((stage[0], column, n) for column in columns)
        return step(columns, powers, n, prec)

    def envelope_spy(decomp, cert, field, products):
        rungs[decomp] = (cert.root_index, products[0])
        stage[0] = "envelope"
        try:
            return envelope(decomp, cert, field, products)
        finally:
            stage[0] = "binet"

    monkeypatch.setattr(spectral, "_stream_row", step_spy)
    monkeypatch.setattr(spectral, "_envelope_at", envelope_spy)
    done = [spectral._analyze_uncached(LinearRecurrence(*spec)) for spec in BATCH[:9]]
    calls = [(where, id(column), n) for where, column, n in calls]
    assert set(Counter(call[1:] for call in calls).values()) == {1}
    bound = spectral._CHECK_BOUND
    assert {call[0] for call in calls if call[2] <= bound} == {"binet"}
    assert len(rungs) >= 9
    for decomp, (dom, columns) in rungs.items():
        roots = decomp.spectrum.roots
        # one column per real root and one per conjugate pair
        assert len(columns) == sum(r.is_real for r in roots) + \
            sum(not r.is_real for r in roots) // 2
        ids = {id(c) for c in columns}
        assert {(c, n) for where, c, n in calls if c in ids and where == "binet"} == \
            {(c, n) for c in ids for n in range(bound + 1)}
        dom_column = next(id(c) for c in columns if c[0] == dom)
        assert {c for where, c, _ in calls if c in ids and where == "envelope"} <= {dom_column}
    for analysis in done:
        dom, columns = rungs[analysis.decomposition]
        dom_column = next(id(c) for c in columns if c[0] == dom)
        assert sorted((c, n) for where, c, n in calls
                      if where == "envelope" and c in {id(c) for c in columns}) == \
            [(dom_column, n) for n in range(bound + 1, analysis.envelope.verified_to + 1)]


def test_early_refusal_keeps_every_rung_verdict(monkeypatch):
    # the seed-1 batch, the seed-7 reducible cubic (x - 3)(x^2 + x + 1) and
    # five builtins: at 256 and 512 bits, _binet_at returns None exactly
    # when its check loop alone would
    seqs = [LinearRecurrence(*spec) for spec in BATCH[:9] + [BATCH_5_7[11]]]
    seqs += [BUILTIN_SEQUENCES[name] for name in ("fib", "lucas", "pow2", "pow3", "tribonacci")]
    refusal, fired, refused = spectral._check_fails_at_bound, [], []

    def spy(decomp, field):
        if refusal(decomp, field):
            fired.append((decomp.sequence.name, decomp.sequence.coefficients, field.prec))
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
            if late is None:
                refused.append((seq.name, seq.coefficients, bits))
    assert fired == [("tribonacci", (1, 1, 1), 256), ("tetranacci", (1, 1, 1, 1), 256),
                     ("irreducible-cubic-a", (0, 2, 2), 256),
                     ("irreducible-cubic-b", (0, 2, 2), 256),
                     ("irreducible-quartic", (1, 0, 2, 2), 256),
                     ("reducible-cubic-1", (1, 3, 1), 256),
                     # by its coefficient box's width alone: the root 3 is a
                     # point box, its coefficient 12/13 is not
                     ("reducible-cubic-1", (2, 2, 3), 256),
                     ("tribonacci", (1, 1, 1), 256)]
    # the pin loop refuses the rest, when 3^n outgrows the rung: pow3, and
    # reducible-quartic-0, whose coefficient at its root 3 is the point 1/8
    assert sorted(refused) == sorted(fired + [("pow3", (3,), 256),
                                              ("reducible-quartic-0", (2, 2, 2, 3), 256)])


if __name__ == "__main__":
    for name, batch in (("BATCH", BATCH), ("BATCH_5_7", BATCH_5_7)):
        done = analyses(batch)
        print(name, digest(done))
        print("  rungs", " ".join(str(a.spectrum.precision_bits) for a in done))
    done = analyses(KBONACCI)
    print("ROOTS", root_digest(analyses(BATCH + BATCH_5_7) + done))
    print("  k-bonacci 3-16 rungs", " ".join(str(a.spectrum.precision_bits) for a in done))
    print("SEED_PATH", seed_path_digest())
