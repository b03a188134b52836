"""The 21 counts of the count-deep benchmark at seed 1, pinned by one
SHA-256, and each equal to a recount.

The digest covers (x, T, S, n_cut, m_cut, gap_margin) of every count, run
in benchmark order.  A change to the counting layer that moves one of these
numbers fails here.  The (pair, x) list is
``python perfbench/workloads.py count-deep 1``, written out.

Run as a script, ``python tests/test_count_identity.py`` prints the digest
of the checkout it sits in, and per count the values taken more than once
and the balanced pairs of its sweep, to compare two commits of the counting
layer without the benchmark.
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


def count(u, v, x):
    seqs = [BUILTIN_SEQUENCES[name] for name in (u, v)]
    return count_T_S(*seqs, x, *(analyze_sequence(seq).envelope for seq in seqs))


def benchmark_counts():
    """The counts in benchmark order."""
    return [count(*item) for item in COUNTS]


def sweeps():
    """Per count of ``benchmark_counts``, the number of values taken more
    than once and of balanced pairs, read by a spy on ``counting._ties``."""
    found, ties = [], counting._ties

    def spy(mu, nu, x):
        result = ties(mu, nu, x)
        found.append((len(result[0]), len(result[2])))
        return result

    counting._ties = spy
    try:
        benchmark_counts()
    finally:
        counting._ties = ties
    return found


def digest(results):
    """SHA-256 of (x, T, S, n_cut, m_cut, gap_margin) of each count."""
    return hashlib.sha256(repr([(r.x, r.T, r.S, r.n_cut, r.m_cut, r.gap_margin)
                                for r in results]).encode()).hexdigest()


def test_warm_counts_are_pinned_and_equal_cold_recounts():
    counts = benchmark_counts()
    assert digest(counts) == DIGEST
    for item, result in zip(COUNTS, counts):
        assert count(*item) == result, item


if __name__ == "__main__":
    print("COUNTS", digest(benchmark_counts()))
    found = sweeps()
    for i, ((u, v, _), (repeated, balanced)) in enumerate(zip(COUNTS, found)):
        print("%2d  %-16s repeated %-6d balanced %d" % (i, u + "/" + v, repeated, balanced))
    print("balanced pairs", sum(balanced for _, balanced in found))
