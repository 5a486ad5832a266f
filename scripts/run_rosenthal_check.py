#!/usr/bin/env python3
"""Monte Carlo check of the two-sided moment bound for sign sums.

Estimates (E|sum_n f_n|^p)^{1/p} for independent symmetric three-point
variables (+-a_n with probability q_n/2 each) and compares it against the
exact subset maximum that the p-norm is equivalent to.  With --sweep the
sample count is quadrupled once to show the standard error halving.
"""

import argparse
import sys

from pwnorm.cli import fmt, read_variables, rosenthal_csv, write_csv
from pwnorm.experiments import rosenthal_mc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=float, default=4.0)
    ap.add_argument("--n", type=int, nargs="+", default=[1, 2, 5, 10],
                    help="sign-sum sizes to check (a_n = q_n = 1)")
    ap.add_argument("--variables", help="file of 'amplitude probability' lines")
    ap.add_argument("--samples", type=int, default=10**6)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sweep", action="store_true",
                    help="also run at 4x samples and report the stderr ratio")
    ap.add_argument("--out", help="write one CSV row per case")
    args = ap.parse_args(argv)

    if args.variables:
        cases = [read_variables(args.variables)]
    else:
        cases = [[(1.0, 1.0)] * n for n in args.n]

    rows = []
    for variables in cases:
        res = rosenthal_mc(variables, args.p, args.samples, args.seed)
        n = len(variables)
        print(f"N = {n}: lhs = {fmt(res.lhs_est)} (stderr {fmt(res.stderr)}), "
              f"rhs = {fmt(res.rhs)}, ratio = {fmt(res.ratio)}")
        if args.sweep:
            fine = rosenthal_mc(variables, args.p, 4 * args.samples, args.seed)
            # a constant |sum| (N = 1 with q = 1) has stderr 0 at any sample count
            shrink = (f"shrink {fmt(fine.stderr / res.stderr)}" if res.stderr
                      else "no shrink ratio: the stderr at 1x samples is 0")
            print(f"      4x samples: lhs = {fmt(fine.lhs_est)} "
                  f"(stderr {fmt(fine.stderr)}, {shrink})")
        header, row = rosenthal_csv(res, n, args.p)
        rows.append(row)

    if args.out:
        write_csv(args.out, header, rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
