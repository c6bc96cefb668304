"""Command-line interface.

Verbs: sort, degree, pattern, zigzag, poly, table, verify, roots, count,
appendix.  Output is plain text by default; --format json emits the
schema-stable JSON forms, and --format csv is available for tables.

`verify --suite all --n N` runs every suite at every size 1..N, all
reading one memo of descent tables, and prints one PASS/FAIL line per
suite and size.  `count --what zigzag-free` without --k prints every k.

Exit status: 0 success / verified, 1 verification failure or mismatch,
2 usage error, including an unreadable or malformed input file.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from . import enumeration, patterns, zigzag
from .perms import (  # deg_revstack stays bound here for the perfbench tracer test
    deg_revstack,
    format_permutation,
    parse_permutation,
    reverse,
    revstack_sort_sim,
    stack_sort_sim,
)
from .polynomials import (
    IntPoly,
    count_revstack_nm2,
    count_revstack_nm3,
    count_stack_nm2,
    count_stack_nm3,
    d_poly,
    eulerian_poly,
    format_poly,
    l_poly,
    narayana_poly,
    w_revstack_nm2,
    w_revstack_nm3,
)
from .roots import DEFAULT_WIDTH, real_roots

POLY_MAKERS = {
    "eulerian": eulerian_poly,
    "narayana": narayana_poly,
    "d": d_poly,
    "l": l_poly,
    "revstack-nm2": w_revstack_nm2,
    "revstack-nm3": w_revstack_nm3,
}

COUNT_MAKERS = {
    "revstack-nm2": count_revstack_nm2,
    "revstack-nm3": count_revstack_nm3,
    "stack-nm2": count_stack_nm2,
    "stack-nm3": count_stack_nm3,
}


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=1))


def _cmd_sort(args) -> int:
    word = parse_permutation(args.perm)
    if args.times < 0:
        raise ValueError("iteration count must be non-negative")
    # Reversal is an involution, and both sorts reach the identity within
    # n - 1 passes and then fix it, so n passes do what any more would.
    if args.op == "reverse":
        one_pass, passes = reverse, args.times % 2
    else:
        one_pass = stack_sort_sim if args.op == "stack" else revstack_sort_sim
        passes = min(args.times, len(word))
    out = word
    for _ in range(passes):
        out = one_pass(out)
    if args.format == "json":
        _print_json({"input": list(word), "op": args.op, "times": args.times,
                     "result": list(out)})
    else:
        print(format_permutation(out))
    return 0


def _cmd_degree(args) -> int:
    word = parse_permutation(args.perm)
    deg = enumeration.DEGREE[args.sorter](word)
    if args.format == "json":
        _print_json({"input": list(word), "sorter": args.sorter, "degree": deg})
    else:
        print(deg)
    return 0


def _cmd_pattern(args) -> int:
    word = parse_permutation(args.perm)
    spec = patterns.parse_pattern(args.pattern)
    occ = patterns.contains_barred(word, spec)
    if args.format == "json":
        _print_json({
            "pattern": str(spec),
            "contains": occ is not None,
            "occurrence": occ.to_json() if occ else None,
        })
    elif occ is None:
        print(f"avoids {spec}")
    else:
        print(
            f"contains {spec}: values {format_permutation(occ.values)}"
            f" at positions {format_permutation(occ.positions)}"
        )
    return 0


def _cmd_zigzag(args) -> int:
    word = parse_permutation(args.perm)
    finder = zigzag.find_uninterrupted_zigzag if args.uninterrupted else zigzag.find_zigzag
    z = finder(word, args.k)
    if args.format == "json":
        _print_json({"k": args.k, "zigzag": z.to_json() if z else None})
    elif z is None:
        kind = "uninterrupted " if args.uninterrupted else ""
        print(f"no {kind}{args.k}-zigzag")
    else:
        state = "interrupted" if z.interrupted else "uninterrupted"
        print(f"{format_permutation(z.values)} ({state})")
    return 0


def _cmd_poly(args) -> int:
    p = POLY_MAKERS[args.which](args.n)
    if args.format == "json":
        _print_json(p.to_json())
    else:
        print(format_poly(p))
    return 0


def _table_source(args):
    """table(n, sorter), through the cache unless --no-cache is given."""
    if args.no_cache:
        return functools.partial(enumeration.descent_table, jobs=args.jobs)
    return functools.partial(enumeration.cached_descent_table, jobs=args.jobs,
                             cache_dir=args.cache_dir)


def _cmd_table(args) -> int:
    table = _table_source(args)(args.n, args.sorter)
    if args.format == "json":
        _print_json(table.to_json())
    elif args.format == "csv":
        print("t," + ",".join(f"x^{i}" for i in range(args.n + 1)) + ",count")
        for t in range(args.n):
            coeffs = [table.row(t)[i] for i in range(args.n + 1)]
            print(f"{t}," + ",".join(map(str, coeffs)) + f",{table.count(t)}")
    else:
        print(f"descent table for {args.sorter} sort on S_{args.n}")
        for t in range(args.n):
            print(f"t={t}: {format_poly(table.row(t))}  [{table.count(t)} permutations]")
    return 0


def _show_steingrimsson(report) -> None:
    print(f"sortable-set sizes for n={report.n}")
    for row in report.rows:
        rel = "<" if row.strict else "="
        print(f"t={row.t}: stack {row.stack_count} {rel} revstack {row.revstack_count}")
    print("VERIFIED" if report.ok else "FAILED")


def _show_theorems(report) -> None:
    for check in report.checks:
        mark = "PASS" if check.ok else "FAIL"
        extra = f"  ({check.counterexample})" if check.counterexample else ""
        print(f"{mark} {check.name}{extra}")
    print("VERIFIED" if report.ok else "FAILED")


def _show_classification(report) -> None:
    for name, size in report.sizes.items():
        print(f"class {name}: {size} permutations")
    print("VERIFIED" if report.ok else f"FAILED: {report.detail}")


def _show_appendix(report) -> None:
    print(f"coefficients enumerated for n in {list(report.enumerated_n)}; "
          "roots checked for every listed entry")
    for m in report.mismatches:
        print(f"MISMATCH at (n={m.n}, t={m.t}): {m.what}")
    print("VERIFIED" if report.ok else "FAILED")


def _first_theorem(report) -> str:
    check = next(c for c in report.checks if not c.ok)
    return f"{check.name}  ({check.counterexample})" if check.counterexample else check.name


def _first_row(report) -> str:
    row = next(r for r in report.rows if not r.holds)
    return (f"sortable-set sizes at t={row.t}: stack {row.stack_count}, "
            f"revstack {row.revstack_count}")


def _first_mismatch(report) -> str:
    m = report.mismatches[0]
    return f"reference table (n={m.n}, t={m.t}): {m.what}"


class Suite(NamedTuple):
    run: Callable       # (n, jobs, table) -> a report with .ok and .to_json()
    show: Callable      # the single-suite plain output of a report
    failure: Callable   # a failed report's first failing check, for `--suite all`
    sizes: Callable     # N -> the sizes `--suite all --n N` runs


# `--suite all` runs every suite, in this order; the appendix also has its own verb.
SUITES = {
    "theorems": Suite(lambda n, jobs, table: enumeration.verify_theorems(n, jobs, table),
                      _show_theorems, _first_theorem, lambda top: range(1, top + 1)),
    "steingrimsson": Suite(lambda n, jobs, table: enumeration.verify_steingrimsson(n, table),
                           _show_steingrimsson, _first_row, lambda top: range(1, top + 1)),
    "classification": Suite(lambda n, jobs, table: enumeration.classify_degree_nm2(n, table),
                            _show_classification, lambda report: report.detail,
                            lambda top: range(4, min(top, 10) + 1)),
    "appendix": Suite(lambda n, jobs, table: enumeration.reproduce_appendix(
                          enumerate_max_n=n, table=table),
                      _show_appendix, _first_mismatch, lambda top: (top,)),
}


def _cmd_verify(args) -> int:
    table = functools.partial(enumeration.descent_table, jobs=args.jobs)
    if args.suite != "all":
        suite = SUITES[args.suite]
        report = suite.run(args.n, args.jobs, table)
        if args.format == "json":
            _print_json(report.to_json())
        else:
            suite.show(report)
        return 0 if report.ok else 1
    if not 1 <= args.n <= enumeration.MAX_N:
        raise ValueError(f"--n must be within 1..{enumeration.MAX_N} (got {args.n})")
    # One memo under every suite, so each (n, sorter) table is enumerated once.
    table = functools.lru_cache(maxsize=None)(table)
    ok = True
    reports = []
    for name, suite in SUITES.items():
        for n in suite.sizes(args.n):
            report = suite.run(n, args.jobs, table)
            ok = ok and report.ok
            reports.append({"suite": name, "n": n, "report": report.to_json()})
            if args.format == "plain":
                print(f"PASS {name} n={n}" if report.ok
                      else f"FAIL {name} n={n}: {suite.failure(report)}")
    if args.format == "json":
        _print_json({"ok": ok, "reports": reports})
    else:
        print("VERIFIED" if ok else "FAILED")
    return 0 if ok else 1


def _cmd_roots(args) -> int:
    if args.coeffs is not None:
        try:
            coeffs = [int(c) for c in args.coeffs.split()]
        except ValueError:
            raise ValueError(f"cannot parse coefficients from {args.coeffs!r}") from None
        poly = IntPoly.from_coeffs(coeffs)
    else:
        if args.n is None or args.t is None:
            raise ValueError("roots: provide either --coeffs or both --n and --t")
        poly = _table_source(args)(args.n, "revstack").row(args.t)
    try:
        width = Fraction(args.width) if args.width else DEFAULT_WIDTH
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse width from {args.width!r}") from None
    report = real_roots(poly, width)
    if args.format == "json":
        _print_json({"poly": poly.to_json(), "report": report.to_json()})
    else:
        print(format_poly(poly))
        print("roots:", ", ".join(report.approx_values()))
        print(f"all real: {report.all_real}; nonpositive: {report.nonpositive}")
    return 0


def _cmd_count(args) -> int:
    if args.what != "zigzag-free" and (args.k is not None or args.uninterrupted):
        raise ValueError(f"count --what {args.what} takes neither --k nor --uninterrupted")
    if args.uninterrupted and args.k is None:
        raise ValueError("count --uninterrupted needs --k; without it every column is printed")
    if args.what != "zigzag-free":
        value = COUNT_MAKERS[args.what](args.n)
    elif args.k is None:
        return _print_zigzag_free(args)
    elif args.k < 0:
        raise ValueError("k must be non-negative")
    else:
        counts = enumeration.zigzag_free_table(args.n, args.jobs)[min(args.k, args.n)]
        value = counts[2 if args.uninterrupted else 0]
    if args.format == "json":
        _print_json({"what": args.what, "n": args.n, "count": value})
    else:
        print(value)
    return 0


def _print_zigzag_free(args) -> int:
    """For each k in 0..n-1, the permutations with no k-zigzag, the
    k-pass-sortable ones and those with no uninterrupted k-zigzag: the
    outer columns bracket the middle one."""
    counts = enumeration.zigzag_free_table(args.n, args.jobs)
    rows = [(k, *counts[k]) for k in range(args.n)]
    if args.format == "json":
        _print_json({"what": args.what, "n": args.n, "rows": [
            {"k": k, "no_zigzag": lo, "sortable": mid, "no_uninterrupted_zigzag": hi}
            for k, lo, mid, hi in rows
        ]})
    else:
        print("k  no-k-zigzag  k-pass-sortable  no-uninterrupted-k-zigzag")
        for k, lo, mid, hi in rows:
            print(f"{k}  {lo:>11}  {mid:>15}  {hi:>25}")
    return 0


def _cmd_appendix(args) -> int:
    if args.max_n < 0:
        raise ValueError(f"--max-n must be non-negative (got {args.max_n})")
    entries = enumeration.load_reference_tables(args.golden) if args.golden else None
    report = enumeration.reproduce_appendix(
        enumerate_max_n=args.max_n,
        entries=entries,
        table=_table_source(args),
    )
    if args.format == "json":
        _print_json(report.to_json())
    else:
        _show_appendix(report)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revstack",
        description="Exact combinatorics of stack and revstack sorting.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, fmt=("plain", "json"), jobs=False, cache=False):
        p.add_argument("--format", choices=fmt, default="plain")
        if jobs:
            p.add_argument("--jobs", type=int, default=None,
                           help="worker processes for sharded enumeration")
        if cache:
            p.add_argument("--cache-dir", default=None,
                           help=f"cache directory (default: ${enumeration.CACHE_ENV_VAR} "
                                "or the platform cache dir)")
            p.add_argument("--no-cache", action="store_true",
                           help="do not read or write the result cache")

    p = sub.add_parser("sort", help="apply a sorting operator")
    p.add_argument("--op", choices=("stack", "revstack", "reverse"), default="revstack")
    p.add_argument("--times", type=int, default=1)
    p.add_argument("perm")
    add_common(p)
    p.set_defaults(func=_cmd_sort)

    p = sub.add_parser("degree", help="number of passes needed to sort")
    p.add_argument("--sorter", choices=enumeration.SORTERS, default="revstack")
    p.add_argument("perm")
    add_common(p)
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser("pattern", help="classical or barred pattern query")
    p.add_argument("--pattern", required=True, help='e.g. "2431" or "2 4 1 5! 3"')
    p.add_argument("perm")
    add_common(p)
    p.set_defaults(func=_cmd_pattern)

    p = sub.add_parser("zigzag", help="find a k-zigzag")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--uninterrupted", action="store_true")
    p.add_argument("perm")
    add_common(p)
    p.set_defaults(func=_cmd_zigzag)

    p = sub.add_parser("poly", help="named closed-form polynomial")
    p.add_argument("--which", choices=sorted(POLY_MAKERS), required=True)
    p.add_argument("--n", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("table", help="descent table by exhaustive enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sorter", choices=enumeration.SORTERS, default="revstack")
    add_common(p, fmt=("plain", "json", "csv"), jobs=True, cache=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=("steingrimsson", "theorems", "classification", "all"),
                   help="one suite at size n, or all: every suite at every size 1..N, "
                        "the classification from 4 to min(N, 10), then the appendix "
                        "coefficients up to N")
    p.add_argument("--n", type=int, required=True)
    add_common(p, jobs=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("roots", help="exact real-root isolation")
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--coeffs", help='ascending coefficients, e.g. "0 1 4 1"')
    p.add_argument("--width", help="isolation interval width (a rational, e.g. 1/100000)")
    add_common(p, jobs=True, cache=True)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("count", help="closed-form and zigzag-free counts")
    p.add_argument("--what", choices=sorted(COUNT_MAKERS) + ["zigzag-free"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None,
                   help="zigzag degree (zigzag-free only; without it, one row per k)")
    p.add_argument("--uninterrupted", action="store_true", help="with --k: count no "
                   "uninterrupted k-zigzag instead of no k-zigzag")
    add_common(p, jobs=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("appendix", help="reproduce the reference tables")
    p.add_argument("--max-n", type=int, default=8,
                   help="largest n to re-enumerate (roots are always checked)")
    p.add_argument("--golden", default=None, help="alternate golden data file")
    add_common(p, jobs=True, cache=True)
    p.set_defaults(func=_cmd_appendix)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # Exact counts and coefficients can run past the default 4300 digits.
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", None) is not None and args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1 (got {args.jobs})")
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        # A check that fails inside a sweep, such as the zigzag bracketing.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
