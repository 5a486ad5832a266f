#!/usr/bin/env python3
"""Sweep the block-witness experiment over a list of eps values.

For each eps, builds the minimal valid parameters, evaluates all 2^n
member sums of the witness vector, and reports the given norm, the
envelope lower bound n^{1/p}, and the certified distortion ratio.  The
ratio approaches n^{1/p} from below as eps shrinks.
"""

import argparse
import sys

from pwnorm.cli import fmt, write_csv, yn_csv
from pwnorm.experiments import yn_default_params, yn_report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3, help="number of blocks")
    ap.add_argument("--p", type=float, default=4.0)
    ap.add_argument(
        "--eps", type=float, nargs="+", default=[1.0, 0.5, 0.1],
        help="eps values to sweep (smaller = tighter witness)",
    )
    ap.add_argument("--out", help="write one CSV row per eps")
    args = ap.parse_args(argv)

    rows = []
    for eps in args.eps:
        params = yn_default_params(p=args.p, n=args.n, eps=eps)
        rep = yn_report(params)
        print(f"eps = {fmt(eps)}: m = {params.m}, K = {params.K}")
        for lbl, s in zip(rep.labels, rep.sums):
            print(f"  {lbl}: {fmt(s)}")
        print(f"  given norm  = {fmt(rep.given_norm)}")
        print(f"  envelope lb = {fmt(rep.envelope_lb)}")
        print(f"  ratio       = {fmt(rep.ratio)}  (limit {fmt(args.n ** (1 / args.p))})")
        print(f"  distance lb = {fmt(rep.distance_lb)}")
        header, row = yn_csv(rep)
        rows.append(row)

    if args.out:
        write_csv(args.out, header, rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
