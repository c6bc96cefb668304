"""The split of a permutation at its largest value, which both sorting
operators respect: for w = L n R, T(w) = T(R)T(L)n and S(w) = S(L)S(R)n.

So deg(w) = 1 + deg(X(w)[:-1]) is read at a rank that splits into an
offset fixed by the side X puts first plus the rank of the other side's
pattern (_offsets), and des(w) = des(L) + des(R) + 1.  The two kernels
here run as shards of enumeration._sweep, one per position of n:
_split_shard counts descent tables from the sorted patterns of each side
(_patterns), and _array_shard writes the degree array of S_n in blocks,
which _interleave merges into rank order.  Neither makes a sorting pass
over S_n.  The array shards sort each side's permutations once; the
table shards sort nothing, since _patterns builds the sorted patterns of
S_a and their descent polynomials from those of smaller sides by the
same split.
"""
from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator

from .perms import Word, revstack_sort_sim, stack_sort_sim


def _rank(word: Word) -> int:
    """Lexicographic rank of a permutation of 1..m within S_m: its Lehmer
    code (the number of still unused values below each entry, counted on a
    bitmask) read in the factorial number system."""
    unused = (1 << (len(word) + 1)) - 2
    rank = 0
    base = len(word)
    for v in word:
        bit = 1 << v
        rank = rank * base + (unused & (bit - 1)).bit_count()
        unused ^= bit
        base -= 1
    return rank


def _offsets(x: Word, weights: list[int]) -> tuple[int, tuple[int, ...]]:
    """Rank arithmetic for a word h t whose positions weigh weights[i] (the
    factorials, largest first), h having the pattern x in S_a: base, x's
    Lehmer code weighed, and above[s] for s = 0..a, the weight of the
    positions of x holding values above s.  A value u of t that exceeds s
    values of h adds one to the Lehmer digit of each of those positions,
    so rank(h t) = base + sum of above[s_u] over u in t + rank(std t)."""
    unused = (1 << (len(x) + 1)) - 2
    base = 0
    by_value = [0] * (len(x) + 1)
    for i, v in enumerate(x):
        bit = 1 << v
        base += (unused & (bit - 1)).bit_count() * weights[i]
        by_value[v - 1] = weights[i]
        unused ^= bit
    return base, tuple(itertools.accumulate(reversed(by_value)))[::-1]


_PLUS_ONE = bytes(range(1, 256)) + b"\x00"
_AT_LEAST_ONE = b"\x01" + bytes(range(1, 256))


def _array_shard(m: int, i: int, prev: bytes, sorter: str) -> bytes:
    """The degrees of the w = L m R of S_m with |L| = k = i - 1, ordered by
    L, then R, lexicographically (the order of their ranks); prev is the
    sorter's degree array of S_(m-1).

    The place of w is _offsets of L's pattern, weighed as the head of the
    word L R of length m - 1, plus the rank of R's pattern, and its degree
    is 1 + prev at the rank of X(w)[:-1] (see _split_shard), so each L
    writes one block of the |R|! bytes of its w: one lookup per
    permutation.  The patterns of either side are taken in batches of
    _BATCH, which bounds the memory.  The ends are prev itself,
    deg(L m) = deg(L), and deg(m R) = max(deg R, 1)."""
    k = i - 1
    if k in (0, m - 1):
        return prev.translate(_AT_LEAST_ONE) if k == 0 else prev
    revstack = sorter == "revstack"
    sort = revstack_sort_sim if revstack else stack_sort_sim
    weights = [math.factorial(m - 2 - j) for j in range(m - 2)]

    def left(p: Word) -> tuple:  # where L goes, and what X makes of it
        x = sort(p)
        return (*_offsets(p, weights), _rank(x) if revstack else _offsets(x, weights))

    def right(q: Word):  # what X makes of R
        return _offsets(sort(q), weights) if revstack else _rank(sort(q))

    plus_one = prev.translate(_PLUS_ONE)
    out = bytearray(math.factorial(m - 1))
    for lefts in _batches(map(left, itertools.permutations(range(1, k + 1)))):
        start = 0  # the rank of the first R pattern of the batch
        for rights in _batches(map(right, itertools.permutations(range(1, m - k)))):
            for others in itertools.combinations(range(1, m), m - 1 - k):  # the values of R
                below = [u - 1 - j for j, u in enumerate(others)]  # values of L below each
                if revstack:  # X(w)[:-1] = T(R)T(L): R leads
                    values = (v for v in range(1, m) if v not in others)
                    mine = [v - 1 - j for j, v in enumerate(values)]  # values of R below each
                    offs = [base + sum(map(above.__getitem__, mine)) for base, above in rights]
                for base, above, x in lefts:
                    pos = start + base + sum(map(above.__getitem__, below))
                    if revstack:
                        row = [plus_one[off + x] for off in offs]
                    else:  # X(w)[:-1] = S(L)S(R): L leads
                        off = x[0] + sum(map(x[1].__getitem__, below))
                        row = [plus_one[off + rank] for rank in rights]
                    out[pos:pos + len(row)] = bytes(row)
            start += len(rights)
    return bytes(out)


_BATCH = 1 << 8


def _batches(items: Iterator) -> Iterator[list]:
    """Consecutive lists of up to _BATCH items."""
    while batch := list(itertools.islice(items, _BATCH)):
        yield batch


def _interleave(a: bytes, b: bytes, unit: int, ratio: int) -> bytes:
    """Runs of ratio * unit bytes of a alternating with runs of unit bytes
    of b, joined run by run or, when the runs outnumber the period, copied
    column by column."""
    run, period = ratio * unit, (ratio + 1) * unit
    rows = len(b) // unit
    if rows <= period:
        a, b = memoryview(a), memoryview(b)
        return b"".join(part for t in range(rows)
                        for part in (a[t * run:(t + 1) * run], b[t * unit:(t + 1) * unit]))
    out = bytearray(len(a) + len(b))
    for col in range(run):
        out[col::period] = a[col::run]
    for col in range(unit):
        out[run + col::period] = b[col::unit]
    return bytes(out)


_BITS = 64  # bits per packed coefficient: any count of S_n up to n = 20 fits


@functools.cache
def _patterns(a: int) -> dict[Word, int]:
    """The descent polynomial of each sorted pattern y = S(p) of S_a (the
    sorted permutations of Bousquet-Melou, 2000): the sum of t^des(p) over
    the p with that pattern, its coefficients packed into one int, _BITS
    apiece.  The map is the same for T.

    Built from smaller sides, with no sorting pass: p = L a R gives
    y = U V a with U = S(L), V = S(R), and des(p) = des(L) + des(R) + 1
    when R is non-empty.  So for each length of U, each set of values of
    U and each pair of patterns of the smaller levels, the relabelled
    U V a gains the product of their polynomials, times t unless V is
    empty.  For T, U = T(R) and V = T(L), so the t goes with a non-empty
    U instead.  The two sums differ only at the two splits with an empty
    part, which give P(U V) + t P(U V) in either, so by induction on a
    both sorters have one map."""
    if a == 0:
        return {(): 1}
    polys: dict[Word, int] = {}
    for r in range(a):  # the length of U
        shift = _BITS if r < a - 1 else 0  # t unless V is empty
        us, vs = _patterns(r).items(), _patterns(a - 1 - r).items()
        for values in itertools.combinations(range(1, a), r):  # the values of U
            mine = (0, *values)
            rest = (0, *(v for v in range(1, a) if v not in values))
            tails = [(tuple(map(rest.__getitem__, x)) + (a,), v_poly << shift)
                     for x, v_poly in vs]
            for x, u_poly in us:
                head = tuple(map(mine.__getitem__, x))
                for tail, v_poly in tails:
                    y = head + tail
                    polys[y] = polys.get(y, 0) + u_poly * v_poly
    return polys


def _split_shard(n: int, i: int, prev: bytes, sorter: str,
                 smaller: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """counts[deg][des] over the w = L n R of S_n with |L| = i - 1; prev is
    the sorter's degree array of S_(n-1), smaller the counts of S_(n-1).

    X(w)[:-1] is T(R)T(L) (revstack) or S(L)S(R) (stack): with head and
    tail the sides X puts first and second, its rank is a head offset
    (_offsets) plus the rank of the tail's sorted pattern, and
    des(w) = des(L) + des(R) + 1.  Both sides are grouped by sorted
    pattern (_patterns, whose _BITS per coefficient hold any count of
    S_n, so none carries), so a pattern pair costs one lookup and one add,
    and a head pattern one multiply per degree.  The end shards move the
    counts of S_(n-1)."""
    k = i - 1
    counts = [[0] * n for _ in range(n)]
    if k in (0, n - 1):
        for d, row in enumerate(smaller):
            for j, count in enumerate(row):
                if k:  # deg(L n) = deg(L), des(L n) = des(L)
                    counts[d][j] += count
                else:  # deg(n R) = max(deg R, 1), des(n R) = des(R) + 1
                    counts[max(d, 1)][j + 1] += count
        return counts
    head, tail = (n - 1 - k, k) if sorter == "revstack" else (k, n - 1 - k)
    weights = [math.factorial(n - 2 - j) for j in range(head)]
    tails = [(_rank(x), poly) for x, poly in _patterns(tail).items()]
    # for each set of tail values, the number of head values below each
    belows = [[u - 1 - j for j, u in enumerate(others)]
              for others in itertools.combinations(range(1, n), tail)]
    polys = [0] * (n - 1)  # indexed by prev, one less than the degree
    for x, head_poly in _patterns(head).items():
        base, above = _offsets(x, weights)
        tail_polys = [0] * (n - 1)
        for below in belows:
            off = base + sum(map(above.__getitem__, below))
            for rank, tail_poly in tails:
                tail_polys[prev[off + rank]] += tail_poly
        for d, tail_poly in enumerate(tail_polys):
            polys[d] += head_poly * tail_poly
    mask = (1 << _BITS) - 1
    for d, poly in enumerate(polys):
        for j in range(n - 1):
            counts[d + 1][j + 1] = (poly >> (_BITS * j)) & mask
    return counts
