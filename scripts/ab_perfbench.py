#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, with gain and regression verdicts.

Usage:
    python3 scripts/ab_perfbench.py PARENT CHANGE --workload W --seeds 1,5,7 --pairs N
    python3 scripts/ab_perfbench.py CHECKOUT --aa --workload W --seeds 1,5,7 --pairs N

Pair i runs ``perfbench/run.py --workload W --seed S --trace 0`` once in
each checkout, with S the i-th seed of the list taken in turn and the run
length BENCHMARK.json's ``run_seconds``; the parent runs first in even
pairs, the change in odd ones.  Every pair's end-to-end metrics are
printed with ``correct`` and ``failed``, then per metric the two medians,
the parent's quartiles, the pairs the change won (ties count for neither)
and two verdicts:

- gain: the change won at least nine tenths of the pairs, and its median is
  better than the parent's by more than the parent's inter-quartile
  distance;
- no regression: the change's median is no worse than the parent's by more
  than the metric's bound in BENCHMARK.json.  It reads "unresolved" when
  the parent's inter-quartile distance is wider than that bound and not
  every run of the change beats every run of the parent.

With ``--aa`` the one checkout runs against a copy of itself, made in a
temporary directory (without ``.git``, bytecode caches and perfbench's
output) and removed after the pairs; the copy takes the change's place,
and per metric the split of the pairs won by the copy, by the checkout and
tied is printed.  Code cannot favour either side there, so a lopsided
split measures the harness and the host.

Each side runs with its own fresh ``PYTHONPYCACHEPREFIX``, both made in
one temporary directory for the session and removed after it, and with
bytecode writing on (a ``PYTHONDONTWRITEBYTECODE`` of the caller's is
dropped), so neither side reads a ``__pycache__`` left in its checkout:
bytecode that only one checkout holds would otherwise show as a
``setup_s`` difference with no code cause.  A prefix starts empty, so each
side first makes one run that is not measured, which compiles everything
the workload imports.  These warm-up runs, and the making of the prefixes,
go in the order opposite to the first pair's, so the whole session
alternates as B A | A B | B A | ...: the side that opens a pair has always
just run, whichever side it is.  Only the standard library is used, and
nothing is written into either checkout beyond what perfbench writes there
itself.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def quartiles(values):
    """(q1, median, q3), as perfbench computes them; one value is its own."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdicts(parent, change, better, bound):
    """The comparison of one metric over paired samples (parent[i] and
    change[i] come from pair i).  ``better`` is "lower" or "higher"."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (p - c) < 0 for p, c in zip(parent, change))
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    gain = wins >= 0.9 * len(parent) and sign * (parent_median - change_median) > q3 - q1
    if sign * (change_median - parent_median) > bound * abs(parent_median):
        no_regression = "no"
    elif q3 - q1 > bound * abs(parent_median) and \
            max(sign * c for c in change) >= min(sign * p for p in parent):
        no_regression = "unresolved"
    else:
        no_regression = "yes"
    return {"parent_median": parent_median, "change_median": change_median,
            "parent_quartiles": (q1, q3), "wins": wins, "losses": losses, "pairs": len(parent),
            "gain": gain, "no_regression": no_regression}


def run_once(checkout, workload, seed, seconds, pycache):
    """One perfbench run in ``checkout``, with its bytecode under the
    directory ``pycache``: its result line, or a record of the failure when
    it printed none."""
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(pycache)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "failed": None, "metrics": {},
                "error": proc.stderr.strip().splitlines()[-1:] or ["no output"]}
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def order(i):
    """The sides in the order they run in pair i; the warm-ups run in
    ``order(-1)``."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--aa", action="store_true",
                        help="run PARENT against a copy of itself; give no CHANGE")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True,
                        type=lambda text: [int(s) for s in text.split(",")])
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.aa == (args.change is not None):
        parser.error("give CHANGE, or --aa without it")

    sides = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as session:
        session = Path(session)
        checkouts = {"parent": args.parent, "change": args.change}
        if args.aa:
            checkouts["change"] = session / "copy"
            shutil.copytree(args.parent, checkouts["change"], ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".perfbench", ".pytest_cache", ".hypothesis"))
        spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        metrics = spec["end_to_end"]
        caches = {}
        for side in order(-1):      # makes and fills the prefix; not measured
            caches[side] = session / ("pycache-" + side)
            caches[side].mkdir()
            run_once(checkouts[side], args.workload, args.seeds[0], spec["run_seconds"],
                     caches[side])
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            for side in order(i):
                sides[side].append(run_once(checkouts[side], args.workload, seed,
                                            spec["run_seconds"], caches[side]))
            print("pair %d seed %d, %s first:" % (i + 1, seed, order(i)[0]))
            for side in ("parent", "change"):
                run = sides[side][-1]
                values = " ".join("%s=%.4g" % (m["name"], run["metrics"][m["name"]])
                                  for m in metrics if m["name"] in run["metrics"])
                print("  %-6s %s correct=%s failed=%s%s" % (
                    side, values, run["correct"], run["failed"],
                    " error=%s" % run["error"] if "error" in run else ""), flush=True)

    print("%-12s %10s %10s %21s %6s %5s %13s" % (
        "metric", "parent", "change", "parent quartiles", "won", "gain", "no regression"))
    splits = []
    for m in metrics:
        pairs = [(p["metrics"][m["name"]], c["metrics"][m["name"]])
                 for p, c in zip(sides["parent"], sides["change"])
                 if m["name"] in p["metrics"] and m["name"] in c["metrics"]]
        if not pairs:
            print("%-12s no pair measured it" % m["name"])
            continue
        v = verdicts(*zip(*pairs), m["better"], m["bound"])
        print("%-12s %10.4g %10.4g %10.4g-%-10.4g %2d/%-3d %5s %13s" % (
            m["name"], v["parent_median"], v["change_median"], *v["parent_quartiles"],
            v["wins"], v["pairs"], "yes" if v["gain"] else "no", v["no_regression"]))
        splits.append("%s copy %d, checkout %d, tied %d" % (
            m["name"], v["wins"], v["losses"], v["pairs"] - v["wins"] - v["losses"]))
    if args.aa:
        print("A/A split of the pairs won:")
        for line in splits:
            print("  " + line)
    correct = all(run["correct"] for runs in sides.values() for run in runs)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
