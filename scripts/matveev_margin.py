#!/usr/bin/env python3
"""Margin experiment: observed |Lambda| against the Matveev floor.

Sweeps the linear form |a(n) alpha^n / (b(m) beta^m) - 1| over an index grid
for a sequence pair and reports how far above the theoretical floor the
observed values sit (the gap is astronomical; that is the point).

Usage: python scripts/matveev_margin.py [--seq-u fib] [--seq-v pow2]
           [--lo 5] [--hi 60] [--step 5]
"""

import argparse

from recdiff.intervals import IntervalField
from recdiff.matveev import MatveevInput, _matveev_a_value, lambda_value, matveev_lower_bound
from recdiff.recurrences import load_sequence
from recdiff.spectral import analyze_sequence


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seq-u", default="fib")
    ap.add_argument("--seq-v", default="pow2")
    ap.add_argument("--lo", type=int, default=5)
    ap.add_argument("--hi", type=int, default=60)
    ap.add_argument("--step", type=int, default=5)
    args = ap.parse_args()

    u = analyze_sequence(load_sequence(args.seq_u))
    v = analyze_sequence(load_sequence(args.seq_v))
    d_field = 2
    field = IntervalField(192)
    a2 = _matveev_a_value(u.certificate, field, d_field)
    a3 = _matveev_a_value(v.certificate, field, d_field)
    a1 = max(a2 + a3, 0.16)     # generous stand-in for the coefficient ratio term

    worst = None
    rows = 0
    undecided = 0
    for n in range(args.lo, args.hi + 1, args.step):
        for m in range(args.lo, args.hi + 1, args.step):
            s = lambda_value(u, v, n, m)
            if s.status != "nonzero":
                undecided += 1
                continue
            floor = matveev_lower_bound(
                MatveevInput(3, d_field, max(n, m), (a1, a2, a3)))
            margin = s.log_lambda_lower - floor
            rows += 1
            if worst is None or margin < worst[0]:
                worst = (margin, n, m, s.log_lambda_lower, floor)

    print("samples: %d nonzero, %d skipped" % (rows, undecided))
    if worst:
        margin, n, m, observed, floor = worst
        print("tightest case (n=%d, m=%d):" % (n, m))
        print("  observed log|Lambda| = %.4f" % observed)
        print("  Matveev floor        = %.4e" % floor)
        print("  margin               = %.4e (never negative)" % margin)


if __name__ == "__main__":
    main()
