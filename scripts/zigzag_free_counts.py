#!/usr/bin/env python3
"""Emit the zigzag-free counting sequences for inspection.

For each size n up to --max-n, prints for every degree k the number of
permutations containing no k-zigzag and the number containing no
uninterrupted k-zigzag.  These bracket the k-pass-sortable counts, which
are printed alongside.  All three columns come from one sweep of S_n per
n.  No closed form is asserted; the sequences are produced for study.

Runtime grows about tenfold per n.  On a shared, busy 2-core host with
Python 3.11, --max-n 8 took 1.6 s with --jobs 1 and 0.8 s with --jobs 2,
--max-n 9 took 12.5-15.1 s and 7.1 s, and --max-n 10 took 90 s with
--jobs 2.  zigzag_free_table stops at n = 10.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from revstack.enumeration import zigzag_free_table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args()

    for n in range(1, args.max_n + 1):
        rows = zigzag_free_table(n, jobs=args.jobs)
        print(f"n = {n}")
        print("  k  no-k-zigzag  k-pass-sortable  no-uninterrupted-k-zigzag")
        for k in range(n):
            lo, mid, hi = rows[k]
            assert lo <= mid <= hi
            print(f"  {k}  {lo:>11}  {mid:>15}  {hi:>25}")
        free_series = [rows[k][0] for k in range(n + 1)]
        free_u_series = [rows[k][2] for k in range(n + 1)]
        print(f"  no-zigzag series by k:              {free_series}")
        print(f"  no-uninterrupted-zigzag series by k: {free_u_series}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
