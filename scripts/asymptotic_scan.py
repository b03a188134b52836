#!/usr/bin/env python3
"""Convergence experiment: exact counts against the main term.

Sweeps T(x), S(x) over an x grid for a sequence pair, prints the ratio table
with the lower-bound grid sizes, and reports the fitted error coefficients.

Usage: python scripts/asymptotic_scan.py [--seq-u fib] [--seq-v pow2]
           [--x-grid 1e3,1e6,1e9,1e12] [--oracle]
"""

import argparse
import time

from recdiff.asymptotics import ratio_table
from recdiff.cli import _parse_x_int
from recdiff.recurrences import load_sequence


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seq-u", default="fib")
    ap.add_argument("--seq-v", default="pow2")
    ap.add_argument("--x-grid", default="1e3,1e6,1e9,1e12")
    ap.add_argument("--oracle", action="store_true",
                    help="cross-check every row against the brute-force oracle")
    args = ap.parse_args()

    seq_u = load_sequence(args.seq_u)
    seq_v = load_sequence(args.seq_v)
    grid = [_parse_x_int(tok) for tok in args.x_grid.split(",")]

    t0 = time.time()
    report = ratio_table(seq_u, seq_v, grid, oracle=args.oracle)
    print("pair: %s   (oracle check: %s)" % (report.pair, args.oracle))
    print("%12s %8s %8s %12s %9s %9s %8s %7s" %
          ("x", "T", "S", "main", "T/main", "S/main", "grid", "T-S"))
    for r in report.rows:
        print("%12.4g %8d %8d %12.2f %9.5f %9.5f %8s %7d" %
              (r.x, r.T, r.S, r.main, r.t_ratio, r.s_ratio,
               "-" if r.grid_count is None else r.grid_count, r.excess))
    if report.k1 is not None:
        print("\nfitted |T - main| ~ %.4f * log x loglog x" % report.k1)
        print("fitted |T - main| ~ %.4f * log x (loglog x)^2" % report.k2)
    spread = max(abs(r.s_ratio - 1) for r in report.rows)
    print("max |S/main - 1| over the grid: %.4f" % spread)
    print("elapsed: %.2fs" % (time.time() - t0))


if __name__ == "__main__":
    main()
