#!/usr/bin/env python3
"""Mutation probe: one-line mutants of the library and the tests that must kill each.

Usage:
    python3 scripts/mutation_probe.py [NAME ...] [--list]

Each mutant replaces one piece of text, which occurs exactly once in its
file, by another.  For each mutant named (all of them by default), the
checkout is copied to a temporary directory (without ``.git``, bytecode
caches and test or benchmark output), the mutant is applied to the copy, and
pytest runs the mutant's tests there, stopping at the first failure.  The
line printed per mutant is ``killed`` when a test failed, ``survived`` when
all passed and ``error`` for any other pytest outcome (no test collected,
an interrupted run).  The exit code is 1 when a mutant survived or erred.
The mutants run one after another, each in one pytest process, and the
copy is removed after each.

The list stays short: each mutant stands for a fault that a change could
plausibly bring back and names the tests that guard against it.
``tests/test_mutation_probe.py`` checks that every original text still
occurs exactly once, so the list cannot silently go stale.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                  ".perfbench", ".benchmarks")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str           # relative to the checkout
    original: str       # occurs exactly once in the file
    mutated: str
    tests: tuple        # pytest arguments: files or node ids


MUTANTS = (
    Mutant("scan-limit", "src/recdiff/counting.py",
           "scan_limit = 2 * n_cut + _WINDOW_EXTRA", "scan_limit = n_cut + _WINDOW_EXTRA",
           ("tests/test_counting.py",)),
    Mutant("rounded-inward", "src/recdiff/matveev.py",
           "f = math.nextafter(f, -math.inf if down else math.inf)",
           "f = math.nextafter(f, math.inf if down else -math.inf)",
           ("tests/test_matveev.py",)),
    Mutant("ball-lost-bit", "src/recdiff/intervals.py",
           "r = -(-r >> s) + (m & ((1 << s) - 1) != 0)", "r = -(-r >> s)",
           ("tests/test_intervals.py",)),
    Mutant("ties-open-end", "src/recdiff/counting.py",
           "if c <= hi and others[", "if c < hi and others[",
           ("tests/test_counting.py",)),
    Mutant("log-one-end", "src/recdiff/spectral.py",
           "(interval_inf_fraction(log_mod), interval_sup_fraction(log_mod))",
           "(interval_inf_fraction(log_mod), interval_inf_fraction(log_mod))",
           ("tests/test_spectral.py",)),
    Mutant("circle-never", "src/recdiff/heights.py",
           "return j is not None and j == only_root_meeting(box.conjugate(), roots)",
           "return False",
           ("tests/test_heights.py",)),
    Mutant("square-kept", "src/recdiff/quadratic.py",
           "(root := isqrt(d)) ** 2 == d:", "(root := isqrt(d)) ** 2 == d + 1:",
           ("tests/test_quadratic.py",)),
    Mutant("pair-sign", "src/recdiff/spectral.py",
           "ball_neg(ball_mul(b, q, prec))", "ball_mul(b, q, prec)",
           ("tests/test_spectral.py::test_a_repeated_non_real_pair_beside_the_dominant_root",)),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Write the mutant into the checkout at ``root``."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.original) != 1:
        raise ValueError("%s: the original text does not occur exactly once in %s"
                         % (mutant.name, mutant.path))
    path.write_text(text.replace(mutant.original, mutant.mutated), encoding="utf-8")


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error' for one mutant, on a temporary copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=_IGNORED)
        apply(mutant, copy)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return {0: "survived", 1: "killed"}.get(done.returncode, "error")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    ap.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = ap.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        ap.error("unknown mutant(s): %s" % ", ".join(unknown))
    chosen = [known[n] for n in args.names] or list(MUTANTS)
    failed = False
    for mutant in chosen:
        if args.list:
            print("%-14s %s: %s -> %s" % (mutant.name, mutant.path, mutant.original,
                                          mutant.mutated))
            continue
        outcome = run(mutant)
        failed = failed or outcome != "killed"
        print("%-14s %-8s %s" % (mutant.name, outcome, " ".join(mutant.tests)), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
