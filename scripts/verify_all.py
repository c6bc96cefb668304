#!/usr/bin/env python3
"""Run the complete verification battery and print one line per result.

Covers the exhaustive theorem suites, the sorting-count comparison, the
degree-(n-2) classification, and the reference-table reproduction.  All
four share one memoised table(n, sorter) source, so each descent table
they read is enumerated once.  The --full flag re-enumerates the
n = 9, 10 reference coefficients too (about a minute of extra
single-core work).
"""
import argparse
import functools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from revstack.enumeration import (
    classify_degree_nm2,
    descent_table,
    reproduce_appendix,
    verify_steingrimsson,
    verify_theorems,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8,
                        help="largest size for the exhaustive theorem suites")
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--full", action="store_true",
                        help="also re-enumerate the n = 9, 10 reference tables")
    args = parser.parse_args()

    failures = 0
    t0 = time.time()
    table = functools.lru_cache(maxsize=None)(functools.partial(descent_table, jobs=args.jobs))

    for n in range(1, args.max_n + 1):
        report = verify_theorems(n, args.jobs, table)
        for check in report.checks:
            if not check.ok:
                failures += 1
                print(f"FAIL n={n}: {check.name}  ({check.counterexample})")
        print(f"theorem suite n={n}: {'ok' if report.ok else 'FAILED'}"
              f" ({len(report.checks)} checks)")

    for n in range(1, 10):
        report = verify_steingrimsson(n, table)
        if not report.ok:
            failures += 1
        print(f"sorting-count comparison n={n}: {'ok' if report.ok else 'FAILED'}")

    for n in range(4, 9):
        report = classify_degree_nm2(n, table)
        if not report.ok:
            failures += 1
            print(f"  detail: {report.detail}")
        print(f"degree-(n-2) classification n={n}: {'ok' if report.ok else 'FAILED'}"
              f" ({sum(report.sizes.values())} permutations)")

    max_n = 10 if args.full else 8
    report = reproduce_appendix(enumerate_max_n=max_n, table=table)
    for m in report.mismatches:
        failures += 1
        print(f"FAIL reference table (n={m.n}, t={m.t}): {m.what}")
    print(f"reference tables (coefficients to n={max_n}, all roots):"
          f" {'ok' if report.ok else 'FAILED'}")

    print(f"total: {'ALL VERIFIED' if failures == 0 else f'{failures} FAILURES'}"
          f" in {time.time() - t0:.1f}s")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
