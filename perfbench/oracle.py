"""Output checks for the benchmark workloads.

The closed forms here are written out independently of revstack (explicit
sums rather than the package's recurrences), so a defect in the package
cannot make its own output look right.  Every check function returns a
list of (name, ok) pairs; each pair is one attempted check.
"""
from __future__ import annotations

import json
from math import comb, factorial
from pathlib import Path

THEOREM_CHECKS = (
    "operator identities (recursion = simulation, T = S o rev)",
    "degree bounds and iteration",
    "precedence lemmas / inversion characterisation",
    "one-pass sortable iff 132-avoiding",
    "two-pass sortable iff avoids 2431 and barred 241(5)3",
    "two-pass stack-sortable iff avoids 2341 and barred 3(5)241",
    "every 132 in T(w) is witnessed in w",
    "zigzag bracketing",
    "tree traversal identities",
    "duality involution and conjugates",
    "descent-raising injection",
    "two-pass descent equidistribution",
    "table symmetry v_t(n,i) = v_t(n,n-1-i) for t >= 1",
    "table rows unimodal",
    "table rows log-concave",
    "edge columns match the stack table",
    "t-sortable sets nest",
    "last row is the Eulerian polynomial",
    "one-pass row is the Narayana polynomial",
    "two-pass rows agree between sorters",
    "degree-(n-2) closed form",
    "degree-(n-3) closed form",
    "degree-(n-3) case-total form",
    "counting formulas",
    "counting inequalities (exact rationals)",
    "degree-(n-2) root interlacing",
)


def _trim(coeffs: list[int]) -> list[int]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def eulerian_coeffs(n: int) -> list[int]:
    """x^(1+des) coefficients over S_n, by the explicit alternating sum."""
    return _trim([0] + [
        sum((-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1))
        for k in range(n)
    ])


def narayana_coeffs(n: int) -> list[int]:
    """x^(1+des) coefficients over the 132-avoiders of S_n."""
    return _trim([0] + [comb(n, k) * comb(n, k - 1) // n for k in range(1, n + 1)])


def stack_count_nm2(n: int) -> int:
    """West: the (n-2)-stack-sortable permutations number n! - (n-2)!."""
    return factorial(n) - factorial(n - 2)


def stack_count_nm3(n: int) -> int:
    """West: (n-3)!/2 * (2n^3 - 6n^2 - 5n + 16)."""
    return factorial(n - 3) * (2 * n**3 - 6 * n**2 - 5 * n + 16) // 2


def row(deg_des: list[list[int]], t: int) -> list[int]:
    """Descent polynomial coefficients of the permutations needing <= t passes."""
    n = len(deg_des)
    coeffs = [0] * (n + 1)
    for d in range(t + 1):
        for i, c in enumerate(deg_des[d]):
            coeffs[i + 1] += c
    return _trim(coeffs)


def load_golden(src: Path) -> dict[tuple[int, int], list[int]]:
    """(n, t) -> reference coefficients, read straight from the data file."""
    blob = json.loads((src / "revstack" / "appendix_data.json").read_text())
    return {(e["n"], e["t"]): e["coeffs"] for e in blob["entries"]}


def check_tables(n: int, tables: dict, golden: dict) -> list[tuple[str, bool]]:
    out = []
    for sorter, deg_des in tables.items():
        out.append((f"{sorter} shape", len(deg_des) == n and all(len(r) == n for r in deg_des)))
        out.append((f"{sorter} row({n - 1}) is Eulerian", row(deg_des, n - 1) == eulerian_coeffs(n)))
        out.append((f"{sorter} row(1) is Narayana", row(deg_des, 1) == narayana_coeffs(n)))
        if sorter == "revstack":
            for t in range(n):
                out.append((f"revstack row({t}) matches golden",
                            row(deg_des, t) == golden.get((n, t))))
        else:
            counts = [sum(sum(deg_des[d]) for d in range(t + 1)) for t in range(n)]
            out.append(("stack count(n-2)", counts[n - 2] == stack_count_nm2(n)))
            out.append(("stack count(n-3)", counts[n - 3] == stack_count_nm3(n)))
    return out


def check_theorems(report: dict) -> list[tuple[str, bool]]:
    names = tuple(c["name"] for c in report["checks"])
    out = [("theorem check names", names == THEOREM_CHECKS), ("report ok", report["ok"] is True)]
    out.extend((c["name"], c["ok"] is True) for c in report["checks"])
    return out


def check_appendix(exit_code: int, stdout: str, reference: str) -> list[tuple[str, bool]]:
    lines = stdout.splitlines()
    return [
        ("appendix exit code 0", exit_code == 0),
        ("appendix last line VERIFIED", bool(lines) and lines[-1] == "VERIFIED"),
        ("appendix stdout equals the cold run", stdout == reference),
    ]
