"""Exhaustive enumeration over S_n: descent tables, verification suites,
the degree-(n-2) classification, zigzag-free counts, and reproduction of
the reference coefficient/root tables.

Every sweep of S_n goes through one engine, _sweep: independent shards
whose exact results each consumer merges in shard order, so results are
identical for any worker count.  Sweeps read a permutation's degree from
the memoised byte array of S_(n-1) degrees (_degree_array), handed to
each worker once.  The theorem suite and the zigzag counts shard S_n by
its n(n-1) two-letter prefixes, in lexicographic order.  The theorem
pass computes T(w), S(w), the descent count, both degrees and the
readings of one walk of the decreasing tree (trees.tree_walk) once per
permutation, a block at a time, and runs each per-permutation check, the
descent-raising injection among them, over the block before the next;
each reports the lexicographically least permutation it fails on.
Descent tables and the degree arrays shard by the position of n and make
no sorting pass over S_n (their kernels are in split): a table shard
works on sorted patterns, and an array shard writes one block of degrees
per left side L of w = L n R and split of the values, made once per
sorted pattern of L.  Hard cap n <= 13, the largest size timed (about
1.5 minutes per sorter on two cores, with about 2 GB resident in the
parent and its largest worker together).

verify_theorems, verify_steingrimsson, classify_degree_nm2 and
reproduce_appendix read descent tables only through a table(n, sorter)
callable (default descent_table, looked up when they are called); one
memoised callable shared between them sweeps each (n, sorter) table once.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional

from . import patterns, trees, zigzag
from .perms import (
    Word,
    descents,
    deg_revstack,
    deg_stack,
    format_permutation,
    is_identity,
    revstack_sort_sim,
    reverse,
    stack_sort_sim,
)
from .polynomials import (
    IntPoly,
    count_revstack_nm2,
    count_revstack_nm3,
    count_revstack_nm3_sixterm,
    count_stack_nm2,
    count_stack_nm3,
    counting_inequalities_hold,
    degree_nm2_contributions,
    eulerian_poly,
    is_log_concave,
    is_symmetric,
    is_unimodal,
    narayana_poly,
    w_revstack_nm2,
    w_revstack_nm3,
    w_revstack_nm3_from_contributions,
)
from .roots import check_interlacing, real_roots
from .split import _array_shard, _interleave, _rank, _split_shard

MAX_N = 13
CACHE_FORMAT_VERSION = 2
CACHE_ENV_VAR = "PERMSORT_CACHE_DIR"
ROOT_TOLERANCE = 1e-4
DEGREE = {"revstack": deg_revstack, "stack": deg_stack}
SORTERS = tuple(DEGREE)


def _prefix_shards(n: int) -> int:
    """The number of two-letter prefix shards of S_n: n(n-1), and one at n = 1."""
    return n * (n - 1) or 1


def _with_prefix(n: int, i: int) -> Iterator[Word]:
    """Lexicographic stream of shard i = 1.._prefix_shards(n) of S_n: the
    permutations whose first two letters are the i-th two-letter prefix in
    lexicographic order.  Shard i + 1 follows shard i in S_n."""
    if n == 1:
        return iter([(1,)])
    first, second = divmod(i - 1, n - 1)
    rest = [v for v in range(1, n + 1) if v != first + 1]
    head = (first + 1, rest.pop(second))
    return (head + tail for tail in itertools.permutations(rest))


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be within 1..{MAX_N}, the largest size timed (got {n})")


def _degree(w: Word, x: Word, prev: bytes) -> int:
    """The degree of w in S_m under the sorter X, from x = X(w) and prev, the
    sorter's _degree_array of S_(m-1).  Both operators end their output in m
    and fix only the identity, so deg(w) is 0 when x = w and otherwise
    1 + deg(x[:-1])."""
    return 0 if x == w else 1 + prev[_rank(x[:-1])]


_ARRAYS: tuple[bytes, ...] = ()  # the degree arrays a pool worker was handed


def _install(arrays: tuple[bytes, ...]) -> None:
    global _ARRAYS
    _ARRAYS = arrays


def _run(shard: Callable, n: int, i: int, args: tuple):
    return shard(n, i, *_ARRAYS, *args)


def _sweep(n: int, shard: Callable, jobs: Optional[int], arrays: tuple[bytes, ...], *args,
           shards: Optional[int] = None, pool_from: int = 5) -> list:
    """shard(n, i, *arrays, *args) for each shard i = 1..shards (default n),
    in shard order.  jobs > 1 (None: one per CPU) runs the shards in a
    process pool of min(jobs, n) workers when n >= pool_from.  The pool
    machinery (concurrent.futures and multiprocessing) is imported only
    then, so a run that never pools never loads it; a pool costs about
    20 ms to start, and the first one in a process about 17 ms more for
    that import.  Each worker gets the degree arrays once, through the
    pool initializer, under any start method.  The pool starts the shards
    from the last down, so the heavy array shards next to the end go
    first; callers merge the results by index, so neither jobs nor that
    order changes them."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, n))
    count = shards or n
    if jobs == 1 or n < pool_from:
        return [shard(n, i, *arrays, *args) for i in range(1, count + 1)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs, initializer=_install,
                             initargs=(arrays,)) as pool:
        futures = {i: pool.submit(_run, shard, n, i, args) for i in range(count, 0, -1)}
        return [futures[i].result() for i in range(1, count + 1)]


_DEGREE_ARRAYS: dict[tuple[int, str], bytes] = {}


def _degree_array(m: int, sorter: str, jobs: Optional[int] = 1) -> bytes:
    """The sorter's degree of every permutation of S_m, indexed by _rank and
    memoised.  One _array_shard per position k of m, swept over jobs
    workers, merged in rank order: after a prefix of k entries without m
    come m - 1 - k runs of (m - 1 - k)! permutations with m further right,
    then one with m at position k, so the merge interleaves one k at a
    time, from k = m - 2 down to 0."""
    if m <= 1:
        return b"\x00"
    if (m, sorter) not in _DEGREE_ARRAYS:
        prev = _degree_array(m - 1, sorter, jobs)
        classes = _sweep(m, _array_shard, jobs, (prev,), sorter, pool_from=9)
        array = classes.pop()
        for k in range(m - 2, -1, -1):
            array = _interleave(array, classes.pop(), math.factorial(m - 1 - k), m - 1 - k)
        _DEGREE_ARRAYS[m, sorter] = array
    return _DEGREE_ARRAYS[m, sorter]


def _add_counts(shards) -> tuple[tuple[int, ...], ...]:
    """Componentwise sum of per-shard count matrices."""
    return tuple(tuple(map(sum, zip(*rows))) for rows in zip(*shards))


class DescentTable(NamedTuple):
    """Exact joint counts over S_n: deg_des[d][i] is the number of
    permutations needing exactly d passes and having i descents.

    row(t) is the descent polynomial of the set sorted by at most t
    passes; its coefficient of x^(i+1) is the table value v_t(n, i)
    (revstack) or w_t(n, i) (stack)."""

    n: int
    sorter: str
    deg_des: tuple[tuple[int, ...], ...]

    def descent_counts(self, t: int) -> list[int]:
        if not 0 <= t <= self.n - 1:
            raise ValueError(f"t must be in 0..{self.n - 1}")
        return [sum(column) for column in zip(*self.deg_des[:t + 1])]

    def row(self, t: int) -> IntPoly:
        return IntPoly.from_coeffs([0, *self.descent_counts(t)])

    def count(self, t: int) -> int:
        return sum(self.descent_counts(t))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "sorter": self.sorter,
            "rows": [{"t": t, "coeffs": list(self.row(t).coeffs)} for t in range(self.n)],
            "counts": [self.count(t) for t in range(self.n)],
        }


def descent_table(n: int, sorter: str = "revstack", jobs: Optional[int] = None) -> DescentTable:
    """Enumerate S_n under the chosen sorter, sharded over jobs workers."""
    _check_n(n)
    if sorter not in DEGREE:
        raise ValueError(f"unknown sorter {sorter!r}; expected one of {SORTERS}")
    return DescentTable(n, sorter, _table_counts(n, sorter, jobs))


def _table_counts(n: int, sorter: str, jobs: Optional[int]) -> tuple[tuple[int, ...], ...]:
    """The deg_des counts of S_n: one _split_shard per position of n, fed
    the counts of S_(n-1)."""
    if n == 1:
        return ((1,),)
    smaller = _table_counts(n - 1, sorter, jobs)
    prev = _degree_array(n - 1, sorter, jobs)
    return _add_counts(_sweep(n, _split_shard, jobs, (prev,), sorter, smaller, pool_from=11))


# -- result cache ----------------------------------------------------------

def resolve_cache_dir(cache_dir: Optional[str | Path] = None) -> Path:
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME", "~/.cache")
    return Path(base).expanduser() / "revstack"


def _cache_path(cache_dir: Path, n: int, sorter: str) -> Path:
    return cache_dir / f"table-{sorter}-{n}.json"


@functools.lru_cache(maxsize=None)
def _reference_rows() -> dict[tuple[int, int], tuple[int, ...]]:
    """(n, t) -> coefficients of the packaged revstack reference rows."""
    return {(e["n"], e["t"]): tuple(e["coeffs"]) for e in load_reference_tables()}


def _is_sound(table: DescentTable) -> bool:
    """Integrity check for a table read from the cache: n x n integer
    cells summing to n!, the t = n-1 row equal to the Eulerian polynomial,
    the t = 0 row equal to x (only the identity sorts in no pass), the
    t = 1 row equal to the Narayana polynomial, and for n >= 4 the
    closed forms: the revstack t = n-2 and t = n-3 rows, and West's stack
    counts for t = n-2 and t = n-3.  A revstack table whose size the
    packaged reference rows cover (n <= 10) must match every one of them,
    which fixes the whole table.  The pinned rows catch cells moved
    between degree rows of one descent column."""
    n = table.n
    cells = [c for row in table.deg_des for c in row]
    reference = _reference_rows() if table.sorter == "revstack" else {}
    return (
        len(table.deg_des) == n
        and all(len(row) == n for row in table.deg_des)
        and all(type(c) is int for c in cells)
        and sum(cells) == math.factorial(n)
        and table.row(n - 1) == eulerian_poly(n)
        and table.row(0) == IntPoly.x_power(1)
        and (n < 2 or table.row(1) == narayana_poly(n))
        and (n < 4 or (
            table.row(n - 2) == w_revstack_nm2(n) and table.row(n - 3) == w_revstack_nm3(n)
            if table.sorter == "revstack" else
            table.count(n - 2) == count_stack_nm2(n) and table.count(n - 3) == count_stack_nm3(n)
        ))
        and all(table.row(t).coeffs == reference[n, t] for t in range(n) if (n, t) in reference)
    )


def _digest(deg_des) -> str:
    """SHA-256 of the table cells as JSON.  The built-in _sha256 module is
    preferred: hashlib loads OpenSSL, 3.6 MB of resident memory, for one
    digest of a few hundred bytes."""
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256(json.dumps([list(row) for row in deg_des]).encode()).hexdigest()


def _load_cached(path: Path, n: int, sorter: str) -> Optional[DescentTable]:
    """The table cached at path, or None when the entry is missing, has
    another format version or key, is corrupt, does not match its SHA-256
    digest, or fails _is_sound."""
    try:
        blob = json.loads(path.read_text())
        if (
            not isinstance(blob, dict)
            or blob.get("format_version") != CACHE_FORMAT_VERSION
            or blob["n"] != n
            or blob["sorter"] != sorter
            or blob["sha256"] != _digest(blob["deg_des"])
        ):
            return None
        table = DescentTable(n, sorter, tuple(tuple(row) for row in blob["deg_des"]))
    except (OSError, ValueError, KeyError, TypeError, RecursionError):
        return None
    return table if _is_sound(table) else None


def cached_descent_table(
    n: int,
    sorter: str = "revstack",
    jobs: Optional[int] = None,
    cache_dir: Optional[str | Path] = None,
) -> DescentTable:
    """descent_table with an advisory JSON cache keyed by (n, sorter).
    Entries embed a format version and a SHA-256 of the cells and are
    checked on load; mismatching, corrupt or unsound entries are recomputed
    and rewritten.  The digest catches accidental corruption only: whoever
    edits an entry can rewrite its digest too.  Writes go
    through a temporary file and os.replace, so a reader never sees a
    partly written entry.  A cache directory that cannot be created or
    written leaves the computed table unsaved."""
    directory = resolve_cache_dir(cache_dir)
    path = _cache_path(directory, n, sorter)
    cached = _load_cached(path, n, sorter)
    if cached is not None:
        return cached
    table = descent_table(n, sorter, jobs)
    blob = {
        "format_version": CACHE_FORMAT_VERSION,
        "n": n,
        "sorter": sorter,
        "deg_des": [list(r) for r in table.deg_des],
        "sha256": _digest(table.deg_des),
    }
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with contextlib.suppress(OSError):
        try:
            directory.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(blob))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    return table


# -- verification suites ----------------------------------------------------

class CheckResult(NamedTuple):
    name: str
    ok: bool
    counterexample: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "ok": self.ok}
        if self.counterexample:
            out["counterexample"] = self.counterexample
        return out


class SuiteReport(NamedTuple):
    n: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {"n": self.n, "ok": self.ok, "checks": [c.to_json() for c in self.checks]}


def _pred_operator_identities(w: Word, s: Word, t: Word, des: int, deg_t: int, deg_s: int,
                              walk: trees.TreeWalk) -> bool:
    # The walk reads S and T by the recursions S(LnR) = S(L)S(R)n and
    # T(LnR) = T(R)T(L)n; s and t come from the stack simulations.
    return walk.s == s and walk.t == t and t == stack_sort_sim(reverse(w))


def _pred_degree_iteration(w: Word, s: Word, t: Word, des: int, deg_t: int, deg_s: int,
                           walk: trees.TreeWalk) -> bool:
    # deg(w) = 1 + deg(X(w)) for every w but the identity, whose degree is
    # 0, so one degree walk from the given T(w) and S(w), which the operator
    # identities check, confirms each degree.  Both operators fix the
    # identity, so with deg <= n-1 this also gives X^(n-1)(w) = id.
    if is_identity(w):
        return deg_t == deg_s == 0
    bound = len(w) - 1
    return (0 < deg_t <= bound and 0 < deg_s <= bound
            and deg_revstack(t) == deg_t - 1 and deg_stack(s) == deg_s - 1)


def _pred_precedence_lemmas(w: Word, s: Word, t: Word, des: int, deg_t: int, deg_s: int,
                            walk: trees.TreeWalk) -> bool:
    # For x left of y in w, y precedes x in T(w) iff x > y or some value
    # between them exceeds y: (1) an inversion of w is never an inversion
    # of T(w); (2) a non-inversion flips iff some c > y sits between them;
    # (3) hence inversions of T(w) are exactly the (y, x) with a 132
    # occurrence (x, c, y) in w.  One walk over position pairs, top the
    # largest value strictly between x and y.
    pos_t = [0] * (len(w) + 1)
    for i, v in enumerate(t):
        pos_t[v] = i
    for i, x in enumerate(w):
        top = 0
        for y in w[i + 1:]:
            if (pos_t[y] < pos_t[x]) != (x > y or top > y):
                return False
            if y > top:
                top = y
    return True


def _pred_deg1_is_132_avoidance(w: Word, s: Word, t: Word, des: int, deg_t: int, deg_s: int,
                                walk: trees.TreeWalk) -> bool:
    return (deg_t <= 1) == patterns.avoids_132(w)


def _pred_deg2_characterisation(w: Word, s: Word, t: Word, des: int, deg_t: int, deg_s: int,
                                walk: trees.TreeWalk) -> bool:
    return (deg_t <= 2) == patterns.is_member_T2(w)


def _pred_stack_deg2_characterisation(w: Word, s: Word, t: Word, des: int, deg_t: int,
                                      deg_s: int, walk: trees.TreeWalk) -> bool:
    return (deg_s <= 2) == patterns.is_member_S2(w)


def _pred_sorted_132_witnesses(w: Word, s: Word, t: Word, des: int, deg_t: int, deg_s: int,
                               walk: trees.TreeWalk) -> bool:
    return all(d is not None for _, _, d in patterns._witnesses(w, t))


def _pred_zigzag_bracketing(w: Word, s: Word, t: Word, des: int, deg_t: int, deg_s: int,
                            walk: trees.TreeWalk) -> bool:
    maxz, maxu = zigzag.zigzag_degrees(w)
    return maxu < deg_t <= maxz + 1


def _pred_tree_traversals(w: Word, s: Word, t: Word, des: int, deg_t: int, deg_s: int,
                          walk: trees.TreeWalk) -> bool:
    return walk.in_order == w and walk.s == s and walk.t == t and walk.right_edges == des


def _pred_duality(w: Word, s: Word, t: Word, des: int, deg_t: int, deg_s: int,
                  walk: trees.TreeWalk) -> bool:
    # f(w) is read off the walk of w; f(f(w)), S(f(w)) and T(f(w)) off the
    # walk of f(w), and f(reverse(w)) off the walk of reverse(w).
    f = walk.f
    f_walk = trees.tree_walk(f)
    return (
        f_walk.f == w
        and des + descents(f) == len(w) - 1
        and f_walk.s == s
        and f_walk.t == t
        and walk.g == trees.tree_walk(reverse(w)).f == reverse(f)
    )


def _pred_injection(w: Word, s: Word, t: Word, des: int, deg_t: int, deg_s: int,
                    walk: trees.TreeWalk) -> bool:
    # h(w) gains one descent, keeps S and T, and h's left inverse returns w.
    if des > (len(w) - 3) // 2:
        return True
    h = trees.injection_h(w)
    back = None
    with contextlib.suppress(LookupError):
        back = trees.injection_h_inverse(h)
    return (descents(h) == des + 1 and stack_sort_sim(h) == s and revstack_sort_sim(h) == t
            and back == w)


# Each predicate receives w with its precomputed S(w), T(w), descent count,
# revstack/stack degrees and tree walk (trees.tree_walk).
_PERMUTATION_CHECKS = (
    ("operator identities (recursion = simulation, T = S o rev)", _pred_operator_identities),
    ("degree bounds and iteration", _pred_degree_iteration),
    ("precedence lemmas / inversion characterisation", _pred_precedence_lemmas),
    ("one-pass sortable iff 132-avoiding", _pred_deg1_is_132_avoidance),
    ("two-pass sortable iff avoids 2431 and barred 241(5)3", _pred_deg2_characterisation),
    ("two-pass stack-sortable iff avoids 2341 and barred 3(5)241",
     _pred_stack_deg2_characterisation),
    ("every 132 in T(w) is witnessed in w", _pred_sorted_132_witnesses),
    ("zigzag bracketing", _pred_zigzag_bracketing),
    ("tree traversal identities", _pred_tree_traversals),
    ("duality involution and conjugates", _pred_duality),
    ("descent-raising injection", _pred_injection),
)


# Permutations per check-major block of a theorem shard.  The serial pass
# over S_7 took 0.52 s with blocks of 1, 0.40 s with 24 and 0.39 s with
# 120; a whole shard as one block would hold 40 320 rows at n = 10.
_BLOCK = 120


def _check_shard(n: int, i: int, prev_t: bytes, prev_s: bytes) -> tuple:
    """Shard i of the theorem pass over S_n, in the lexicographic order of
    _with_prefix; prev_t and prev_s are the revstack and stack degree
    arrays of S_(n-1).  The shard runs check-major over blocks of _BLOCK
    consecutive permutations: the readings and the stack/reverse/stack
    count of the whole block first, then each check over the block.  A
    check that fails is skipped for the rest of the shard, so it keeps the
    first permutation it fails on.  Returns those counterexamples and the
    descent counts of the permutations that stack/reverse/stack sorts."""
    first_bad: dict[str, str] = {}
    stack_rev_stack = [0] * n
    identity = tuple(range(1, n + 1))
    stream = _with_prefix(n, i)
    while block := list(itertools.islice(stream, _BLOCK)):
        rows = []
        for w in block:
            s = stack_sort_sim(w)
            t = revstack_sort_sim(w)
            des = descents(w)
            stack_rev_stack[des] += stack_sort_sim(reverse(s)) == identity
            rows.append((w, s, t, des, _degree(w, t, prev_t), _degree(w, s, prev_s),
                         trees.tree_walk(w)))
        for name, pred in _PERMUTATION_CHECKS:
            if name not in first_bad:
                for row in rows:
                    if not pred(*row):
                        first_bad[name] = format_permutation(row[0])
                        break
    return first_bad, stack_rev_stack


def _row_check(name: str, want: IntPoly, t: int, *tables: DescentTable) -> CheckResult:
    """Whether row t of every one of tables is want; a failure names the
    first row that is not, like "stack row t=4"."""
    bad = next((f"{table.sorter} row t={t}" for table in tables if table.row(t) != want), "")
    return CheckResult(name, not bad, bad)


def _check_table_structure(n: int, rev: DescentTable, st: DescentTable) -> list[CheckResult]:
    sym = uni = logc = edges = nesting = ""
    for t in range(n):
        v = rev.descent_counts(t)
        w = st.descent_counts(t)
        p = rev.row(t)
        # symmetry needs t >= 1: the duality argument applies the operator
        # once, and the t = 0 row (just the identity permutation) is
        # asymmetric for every n >= 2
        if t >= 1 and not is_symmetric(p, n):
            sym = sym or f"symmetry at t={t}"
        if not is_unimodal(p):
            uni = uni or f"unimodality at t={t}"
        if not is_log_concave(p):
            logc = logc or f"log-concavity at t={t}"
        if v[0] != w[0] or (n >= 2 and (v[1] != w[1] or v[n - 2] != w[n - 2])):
            edges = edges or f"edge-column equality at t={t}"
        if t + 1 <= n - 1 and rev.count(t) > rev.count(t + 1):
            nesting = nesting or f"nesting at t={t}"
    return [
        CheckResult("table symmetry v_t(n,i) = v_t(n,n-1-i) for t >= 1", not sym, sym),
        CheckResult("table rows unimodal", not uni, uni),
        CheckResult("table rows log-concave", not logc, logc),
        CheckResult("edge columns match the stack table", not edges, edges),
        CheckResult("t-sortable sets nest", not nesting, nesting),
        _row_check("last row is the Eulerian polynomial", eulerian_poly(n), n - 1, rev, st),
    ]


def _check_closed_forms(n: int, rev: DescentTable, st: DescentTable) -> list[CheckResult]:
    out = []
    if n >= 2:
        out.append(_row_check("one-pass row is the Narayana polynomial",
                              narayana_poly(n), 1, rev, st))
    if n >= 3:
        out.append(_row_check("two-pass rows agree between sorters", rev.row(2), 2, st))
    if n >= 4:
        out.append(_row_check("degree-(n-2) closed form", w_revstack_nm2(n), n - 2, rev))
        out.append(_row_check("degree-(n-3) closed form", w_revstack_nm3(n), n - 3, rev))
        want, got = w_revstack_nm3(n).coeffs, w_revstack_nm3_from_contributions(n).coeffs
        bad = next((f"coefficient of x^{k}: {a} != {b}" for k, (a, b) in
                    enumerate(itertools.zip_longest(want, got, fillvalue=0)) if a != b), "")
        out.append(CheckResult("degree-(n-3) case-total form", not bad, bad))
        bad = next((f"{name}: {a} != {b}" for name, a, b in (
            ("revstack count t=n-2", rev.count(n - 2), count_revstack_nm2(n)),
            ("revstack count t=n-3", rev.count(n - 3), count_revstack_nm3(n)),
            ("revstack six-term count t=n-3", rev.count(n - 3), count_revstack_nm3_sixterm(n)),
            ("stack count t=n-2", st.count(n - 2), count_stack_nm2(n)),
            ("stack count t=n-3", st.count(n - 3), count_stack_nm3(n)),
        ) if a != b), "")
        out.append(CheckResult("counting formulas", not bad, bad))
        out.append(CheckResult(
            "counting inequalities (exact rationals)", counting_inequalities_hold(n)
        ))
    return out


def verify_theorems(
    n: int,
    jobs: Optional[int] = None,
    table: Optional[Callable[[int, str], DescentTable]] = None,
) -> SuiteReport:
    """Run every exhaustive property check at size n in one pass over S_n,
    sharded over jobs workers (_check_shard).  A check reports the first
    counterexample of its first failing shard, so its least for any jobs.
    The table checks read both descent tables through table(n, sorter)
    (default descent_table over the same jobs, the tables users see)."""
    _check_n(n)
    table = table or functools.partial(descent_table, jobs=jobs)
    arrays = (_degree_array(n - 1, "revstack", jobs), _degree_array(n - 1, "stack", jobs))
    bads, stack_rev_stacks = zip(*_sweep(n, _check_shard, jobs, arrays,
                                         shards=_prefix_shards(n)))
    first_bad = {name: bad for shard in reversed(bads) for name, bad in shard.items()}
    checks = [CheckResult(name, name not in first_bad, first_bad.get(name, ""))
              for name, _ in _PERMUTATION_CHECKS]
    rev, st = table(n, "revstack"), table(n, "stack")
    # The descent statistic agrees on the sets sorted by two straight
    # stack passes and by stack/reverse/stack.
    two_stack = st.descent_counts(min(2, n - 1))
    stack_rev_stack = [sum(column) for column in zip(*stack_rev_stacks)]
    equal = two_stack == stack_rev_stack
    checks.append(CheckResult(
        "two-pass descent equidistribution", equal,
        "" if equal else f"{two_stack} != {stack_rev_stack}",
    ))
    checks.extend(_check_table_structure(n, rev, st))
    checks.extend(_check_closed_forms(n, rev, st))
    if n >= 3:
        rep = check_interlacing(rev.row(n - 2), w_revstack_nm2(n + 1))
        checks.append(CheckResult(
            "degree-(n-2) root interlacing", rep.ok, rep.detail if not rep.ok else ""
        ))
    return SuiteReport(n, tuple(checks))


class SteingrimssonRow(NamedTuple):
    t: int
    stack_count: int
    revstack_count: int
    holds: bool  # stack <= revstack, strictly exactly when 2 < t < n-1

    @property
    def strict(self) -> bool:
        return self.stack_count < self.revstack_count


class SteingrimssonReport(NamedTuple):
    n: int
    rows: tuple[SteingrimssonRow, ...]
    ok: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "ok": self.ok,
            "rows": [
                {
                    "t": r.t,
                    "stack": r.stack_count,
                    "revstack": r.revstack_count,
                    "strict": r.strict,
                }
                for r in self.rows
            ],
        }


def verify_steingrimsson(
    n: int, table: Optional[Callable[[int, str], DescentTable]] = None
) -> SteingrimssonReport:
    """Compare t-stack-sortable and t-revstack-sortable counts for all t,
    read from table(n, "revstack") and table(n, "stack"): the stack count
    never exceeds the revstack count, strictly so exactly when
    2 < t < n-1 (default table: descent_table)."""
    _check_n(n)
    table = table or descent_table
    rev, st = table(n, "revstack"), table(n, "stack")
    rows = []
    for t in range(n):
        s, r = st.count(t), rev.count(t)
        rows.append(SteingrimssonRow(t, s, r, s <= r and (s < r) == (2 < t < n - 1)))
    return SteingrimssonReport(n, tuple(rows), all(row.holds for row in rows))


# -- the degree-(n-2) classification ----------------------------------------

class ClassSpec(NamedTuple):
    """One family of the degree-(n-2) classification: permutations LpR
    around the pivot value, with the left/right value sets fixed and an
    optional precedence constraint (u must precede v)."""

    name: str
    pivot: int
    left_values: frozenset[int]
    right_values: frozenset[int]
    constraint: Optional[tuple[int, int]] = None

    def admits(self, w: Word) -> bool:
        """Whether u precedes v in w; true when there is no constraint."""
        return self.constraint is None or w.index(self.constraint[0]) < w.index(self.constraint[1])

    def members(self) -> Iterator[Word]:
        sides = map(itertools.permutations, (sorted(self.left_values), sorted(self.right_values)))
        words = (left + (self.pivot,) + right for left, right in itertools.product(*sides))
        return filter(self.admits, words)


def _step2_down(top: int, stop: int = 0) -> list[int]:
    """top, top-2, top-4, ... staying above stop."""
    return list(range(top, stop, -2))


def degree_nm2_classes(n: int) -> list[ClassSpec]:
    """The six families covering exactly the permutations of revstack
    degree n-2, keyed like degree_nm2_contributions."""
    if n < 4:
        raise ValueError("classification requires n >= 4")
    classes = [
        ClassSpec(
            "a-left",
            pivot=n - 1,
            left_values=frozenset({n} | set(_step2_down(n - 3))),
            right_values=frozenset(_step2_down(n - 2)),
            constraint=(n, n - 3),
        ),
        ClassSpec(
            "a-right",
            pivot=n - 1,
            left_values=frozenset(_step2_down(n - 3)),
            right_values=frozenset({n} | set(_step2_down(n - 2))),
            constraint=(n - 2, n),
        ),
        ClassSpec(
            "b",
            pivot=n,
            left_values=frozenset(_step2_down(n - 1)),
            right_values=frozenset(_step2_down(n - 2)),
        ),
        ClassSpec(
            "c",
            pivot=n,
            left_values=frozenset(_step2_down(n - 3)),
            right_values=frozenset({n - 1} | set(_step2_down(n - 2))),
        ),
    ]
    for i in range(1, n - 2):
        if (n - i) % 2 == 1:
            classes.append(ClassSpec(
                f"d-odd-i{i}",
                pivot=n,
                left_values=frozenset(_step2_down(n - 2, i) + _step2_down(i)),
                right_values=frozenset(_step2_down(n - 1, i + 1) + _step2_down(i - 1)),
            ))
        else:
            classes.append(ClassSpec(
                f"d-even-i{i}",
                pivot=n,
                left_values=frozenset(_step2_down(n - 2, i) + _step2_down(i - 1)),
                right_values=frozenset(
                    _step2_down(n - 1, i + 1) + [i + 1] + _step2_down(i)
                ),
            ))
    return classes


class ClassificationReport(NamedTuple):
    n: int
    ok: bool
    sizes: dict
    detail: str = ""

    def to_json(self) -> dict:
        return {"n": self.n, "ok": self.ok, "sizes": self.sizes, "detail": self.detail}


def classify_degree_nm2(
    n: int, table: Optional[Callable[[int, str], DescentTable]] = None
) -> ClassificationReport:
    """Verify in one pass over their members, keeping none, that the six
    families are disjoint, cover exactly the degree-(n-2) permutations and
    contribute the expected descent polynomials.  A family fixes the values
    left of its pivot, and its right values are the rest, so the families
    holding w are those keyed by (p, the values of w left of p), p = n-1 or
    n, that admit w; at every n some members of b have a-right's key and
    some of c have a-left's, and only the constraint rules them out.  A
    member with two owners is reported with the first two in family order.
    Coverage holds when every member has degree n-2 and the members number
    as many as the degree-(n-2) words of table(n, "revstack") (default
    descent_table), which is asked for last."""
    if not 4 <= n <= MAX_N:
        raise ValueError(f"classification supported for 4 <= n <= {MAX_N} (got {n})")
    classes = degree_nm2_classes(n)
    keyed: dict[tuple[int, frozenset[int]], list[ClassSpec]] = {}
    for spec in classes:  # pivot n-1 first, so owners come in family order
        keyed.setdefault((spec.pivot, spec.left_values), []).append(spec)

    sizes: dict[str, int] = {}
    polys: dict[str, IntPoly] = {}
    wrong_degree = 0
    for spec in classes:
        group = spec.name.split("-i")[0]  # d-odd-i1, d-odd-i3, ... form group d-odd
        coeffs = [0] * (n + 1)
        for w in spec.members():
            owners = [other for p in (n - 1, n)
                      for other in keyed.get((p, frozenset(w[:w.index(p)])), ())
                      if other.admits(w)]
            if owners != [spec]:
                return ClassificationReport(n, False, sizes, f"{format_permutation(w)} in both "
                                            f"{owners[0].name} and {owners[1].name}")
            coeffs[1 + descents(w)] += 1
            wrong_degree += deg_revstack(w) != n - 2
        sizes[group] = sizes.get(group, 0) + sum(coeffs)
        polys[group] = polys.get(group, IntPoly.zero()) + IntPoly.from_coeffs(coeffs)

    for group, expected in degree_nm2_contributions(n).items():
        got = polys.get(group, IntPoly.zero())
        if got != expected:
            return ClassificationReport(n, False, sizes, f"class {group} polynomial "
                                        f"{list(got.coeffs)} != expected {list(expected.coeffs)}")

    covered = sum(sizes.values()) - wrong_degree
    surplus = sum((table or descent_table)(n, "revstack").deg_des[n - 2]) - covered
    missing, extra = max(surplus, 0), wrong_degree + max(-surplus, 0)
    if missing or extra:
        return ClassificationReport(n, False, sizes,
                                    f"coverage mismatch: {missing} missing, {extra} extra")
    return ClassificationReport(n, True, sizes)


# -- zigzag-free counting ----------------------------------------------------

def _zigzag_shard(n: int, i: int, prev: bytes) -> tuple[list[int], list[int], list[int]]:
    """Histograms of maxz + 1, the revstack degree and maxu + 1 over shard
    i of S_n (_with_prefix), asserting the bracketing
    maxu < degree <= maxz + 1; prev is the revstack degree array of S_(n-1)."""
    hz = [0] * (n + 1)
    hd = [0] * (n + 1)
    hu = [0] * (n + 1)
    for w in _with_prefix(n, i):
        maxz, maxu = zigzag.zigzag_degrees(w)
        degree = _degree(w, revstack_sort_sim(w), prev)
        if not maxu < degree <= maxz + 1:
            raise AssertionError(f"zigzag bracketing violated at {format_permutation(w)}")
        hz[maxz + 1] += 1
        hd[degree] += 1
        hu[maxu + 1] += 1
    return hz, hd, hu


def zigzag_free_table(n: int, jobs: Optional[int] = None) -> dict[int, tuple[int, int, int]]:
    """For each k in 0..n: (number of permutations in S_n containing no
    k-zigzag, number sortable by k revstack passes, number containing no
    uninterrupted k-zigzag).  One pass over S_n, sharded over jobs
    workers, which also asserts, permutation by permutation, the
    bracketing max-uninterrupted-degree < sorting degree <= max-degree + 1
    that makes the outer counts bound the middle one.  Every k > n gives
    the k = n counts (n!)."""
    if not 1 <= n <= 11:
        raise ValueError("zigzag-free counting supported for 1 <= n <= 11")
    prev = _degree_array(n - 1, "revstack", jobs)
    hz, hd, hu = _add_counts(_sweep(n, _zigzag_shard, jobs, (prev,), shards=_prefix_shards(n)))
    # No k-zigzag means maxz < k, that is maxz + 1 <= k.
    return {k: (sum(hz[:k + 1]), sum(hd[:k + 1]), sum(hu[:k + 1])) for k in range(n + 1)}


# -- reference table reproduction -------------------------------------------

def load_reference_tables(path: Optional[str | Path] = None) -> list[dict]:
    """The entries of a reference-table file: the packaged appendix data
    when path is None, otherwise the given golden file.  Raises ValueError,
    naming the file, for a file that is not UTF-8 JSON, a top level that is
    not an object, another format_version, missing or empty entries, or an
    entry that reproduce_appendix cannot read."""
    if path is None:
        source = Path(__file__).with_name("appendix_data.json")
    else:
        source = Path(path)
    try:
        blob = json.loads(source.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):
        raise ValueError(f"cannot parse reference tables from {str(source)!r}") from None
    if not isinstance(blob, dict):
        raise ValueError(f"{source}: not a reference-table object")
    if blob.get("format_version") != 1:
        raise ValueError(f"{source}: unsupported format_version")
    entries = blob.get("entries")
    if not entries or not isinstance(entries, list):
        raise ValueError(f"{source}: entries must be a non-empty list")
    for k, e in enumerate(entries):
        if not isinstance(e, dict):
            raise ValueError(f"{source}: entry {k} is not an object")
        n, t, coeffs, roots = (e.get(key) for key in ("n", "t", "coeffs", "roots"))
        if not (
            type(n) is int and n >= 1
            and type(t) is int and 0 <= t < n
            and isinstance(coeffs, list) and all(type(c) is int for c in coeffs)
            and isinstance(roots, list) and all(type(r) in (int, float) for r in roots)
        ):
            raise ValueError(
                f"{source}: entry {k} needs an int n >= 1, an int t in 0..n-1, "
                "a list of int coeffs and a list of numeric roots"
            )
    return entries


class AppendixMismatch(NamedTuple):
    n: int
    t: int
    what: str

    def to_json(self) -> dict:
        return {"n": self.n, "t": self.t, "what": self.what}


class AppendixReport(NamedTuple):
    enumerated_n: tuple[int, ...]
    mismatches: tuple[AppendixMismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "enumerated_n": list(self.enumerated_n),
            "mismatches": [m.to_json() for m in self.mismatches],
        }


def reproduce_appendix(
    enumerate_max_n: int = 8,
    entries: Optional[list[dict]] = None,
    table: Optional[Callable[[int, str], DescentTable]] = None,
) -> AppendixReport:
    """Compare the reference tables against this implementation:
    coefficients bit-exactly against table(n, "revstack") for
    n <= enumerate_max_n, and root lists against Sturm isolation within
    ROOT_TOLERANCE for every listed size (default table: descent_table)."""
    if entries is None:
        entries = load_reference_tables()
    table = table or descent_table
    mismatches: list[AppendixMismatch] = []
    sizes = sorted({e["n"] for e in entries})
    enumerated = [n for n in sizes if n <= enumerate_max_n]
    tables = {n: table(n, "revstack") for n in enumerated}
    # Several rows share a polynomial; isolate each one once, and keep only
    # what the checks read, not the whole report.
    isolated: dict[tuple[int, ...], tuple[bool, bool, list[float]]] = {}

    for e in entries:
        n, t = e["n"], e["t"]
        if n in tables:
            got = list(tables[n].row(t).coeffs)
            if got != e["coeffs"]:
                mismatches.append(AppendixMismatch(
                    n, t, f"coefficients {got} != reference {e['coeffs']}"
                ))
                continue
        key = tuple(e["coeffs"])
        if key not in isolated:
            rep = real_roots(IntPoly.from_coeffs(key))
            isolated[key] = (rep.all_real, rep.nonpositive,
                             [float(a) for a in rep.approx_values()])
        all_real, nonpositive, approx = isolated[key]
        if not all_real:
            mismatches.append(AppendixMismatch(n, t, "roots not all real"))
            continue
        if not nonpositive:
            mismatches.append(AppendixMismatch(n, t, "a positive root appeared"))
            continue
        want = [float(r) for r in e["roots"]]
        if len(approx) != len(want):
            mismatches.append(AppendixMismatch(
                n, t, f"{len(approx)} roots computed, reference lists {len(want)}"
            ))
            continue
        for got_r, want_r in zip(approx, want):
            if abs(got_r - want_r) > ROOT_TOLERANCE:
                mismatches.append(AppendixMismatch(
                    n, t, f"root {got_r} differs from reference {want_r}"
                ))
                break
    return AppendixReport(tuple(enumerated), tuple(mismatches))
