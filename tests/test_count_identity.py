"""The 21 counts of the count-deep benchmark at seed 1, pinned by one
SHA-256, and each equal to a cold recount.

The digest covers (x, T, S, n_cut, m_cut, gap_margin) of every count, run
in benchmark order, so each count after the first of its pair may start
from a kept tally, as in the benchmark.  A change to the counting layer that
moves one of these numbers fails here.  The (pair, x) list is
``python perfbench/workloads.py count-deep 1``, written out.  The edge each
count's walk starts from is pinned too: every count after the first of its
pair starts from the pair's kept tally, so a change that sends the
benchmark's counts back to cold walks fails here as well.

Run as a script, ``python tests/test_count_identity.py`` prints the digest
of the checkout it sits in, and per count the start edge of its walk and
the pairs it tallied, to compare two commits of the counting layer without
the benchmark.
"""

import hashlib
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from recdiff import counting  # noqa: E402
from recdiff.counting import count_T_S  # noqa: E402
from recdiff.recurrences import BUILTIN_SEQUENCES  # noqa: E402
from recdiff.spectral import analyze_sequence  # noqa: E402

COUNTS = [
    ("fib", "pow2", 10 ** 12),
    ("fib", "pow2", 10 ** 100),
    ("fib", "pow2", 10 ** 300),
    ("fib", "pow2", 3011675230258625 * 10 ** 89),
    ("fib", "pow2", 3811751365719182 * 10 ** 146),
    ("fib", "pow2", 1336043604805786 * 10 ** 177),
    ("fib", "pow2", 3179075616135235 * 10 ** 193),
    ("fib", "pow2", 7044273936599309 * 10 ** 234),
    ("fib", "pow2", 4463773603083021 * 10 ** 266),
    ("tribonacci", "pow3", 5245244746049198 * 10 ** 106),
    ("tribonacci", "pow3", 4208348570435026 * 10 ** 144),
    ("tribonacci", "pow3", 6241939560232651 * 10 ** 154),
    ("tribonacci", "pow3", 8808782443801266 * 10 ** 185),
    ("tribonacci", "pow3", 1556575285495635 * 10 ** 246),
    ("tribonacci", "pow3", 1236618094278254 * 10 ** 266),
    ("lucas", "pow3", 256646934914495 * 10 ** 111),
    ("lucas", "pow3", 2532416367006684 * 10 ** 118),
    ("lucas", "pow3", 3257665349802408 * 10 ** 166),
    ("lucas", "pow3", 1125471265214206 * 10 ** 209),
    ("lucas", "pow3", 9093701805552404 * 10 ** 225),
    ("lucas", "pow3", 1498614228961324 * 10 ** 283),
]
DIGEST = "056da42426bd6fb626ac93f6fd515a52c77c10711dc9cec08014e5be2ce3d7c3"


def above(i):
    """The band edge just above the x of count i."""
    return COUNTS[i][2] + 1


STARTS = [0, above(0), above(1), above(1), 2 ** 445, 2 ** 630, 2 ** 630, 2 ** 772, 2 ** 891,
          0, above(9), above(10), above(11), above(12), above(13),
          0, above(15), above(16), above(17), above(18), above(19)]


def count(u, v, x):
    seqs = [BUILTIN_SEQUENCES[name] for name in (u, v)]
    return count_T_S(*seqs, x, *(analyze_sequence(seq).envelope for seq in seqs))


def warm_counts():
    """The counts in benchmark order, from an empty tally store."""
    counting._TALLIES.clear()
    return [count(*item) for item in COUNTS]


def warm_walks():
    """Per count of ``warm_counts``, the edge its walk starts from and the
    pairs it tallies, read by a spy on ``counting._distinct``."""
    walks, distinct = [], counting._distinct

    def spy(runs, values, xs, bands, start):
        checkpoints, repeated = distinct(runs, values, xs, bands, start)
        walks.append((start[0], checkpoints[-1][1] - start[1]))
        return checkpoints, repeated

    counting._distinct = spy
    try:
        warm_counts()
    finally:
        counting._distinct = distinct
    return walks


def edge_name(e):
    """A start edge as 0, 2^k or x_i + 1, with i the index of a count."""
    xs = [x for _, _, x in COUNTS]
    if e - 1 in xs:
        return "x_%d + 1" % xs.index(e - 1)
    return "2^%d" % (e.bit_length() - 1) if e and e & (e - 1) == 0 else str(e)


def digest(results):
    """SHA-256 of (x, T, S, n_cut, m_cut, gap_margin) of each count."""
    return hashlib.sha256(repr([(r.x, r.T, r.S, r.n_cut, r.m_cut, r.gap_margin)
                                for r in results]).encode()).hexdigest()


def test_warm_counts_are_pinned_and_equal_cold_recounts():
    warm = warm_counts()
    assert digest(warm) == DIGEST
    for item, result in zip(COUNTS, warm):
        counting._TALLIES.clear()
        assert count(*item) == result, item


def test_warm_counts_start_from_the_kept_tally():
    starts = [start for start, _ in warm_walks()]
    assert starts == STARTS
    pairs = [(u, v) for u, v, _ in COUNTS]
    assert [start > 0 for start in starts] == [pair in pairs[:i] for i, pair in enumerate(pairs)]


if __name__ == "__main__":
    print("COUNTS", digest(warm_counts()))
    walks = warm_walks()
    for i, ((u, v, _), (start, tallied)) in enumerate(zip(COUNTS, walks)):
        print("%2d  %-16s start %-8s tallied %d" % (i, u + "/" + v, edge_name(start), tallied))
    print("pairs tallied", sum(tallied for _, tallied in walks))
