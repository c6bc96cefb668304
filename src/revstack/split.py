"""The split of a permutation at its largest value, which both sorting
operators respect: for w = L n R, T(w) = T(R)T(L)n and S(w) = S(L)S(R)n.

So deg(w) = 1 + deg(X(w)[:-1]) is read at a rank that splits into an
offset fixed by the side X puts first plus the rank of the other side's
pattern (_offsets), and des(w) = des(L) + des(R) + 1.  The two kernels
here run as shards of enumeration._sweep, one per position of n:
_split_shard counts descent tables from the sorted patterns of each side
(_patterns), and _array_shard writes the degree array of S_n in blocks,
which _interleave merges into rank order.  Neither makes a sorting pass
over S_n, and neither sorts in a shard: _patterns builds the sorted
patterns of S_a and their descent polynomials from those of smaller
sides by the same split, and the array shards read which pattern each
side has from _images, which sorts each S_a once per sorter and process.
"""
from __future__ import annotations

import functools
import itertools
import math
from array import array

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


def _head_offsets(x: Word, a: int, weights: list[int]) -> list[int]:
    """rank(h t) - rank(std t) (_offsets) for h of pattern x and a tail t
    of a values, for each set of values of t in lex order: the counts s_u
    of h's values below each u run through combinations_with_replacement
    of 0..len(x) in that order."""
    base, above = _offsets(x, weights)
    return list(map(base.__add__, map(sum, itertools.combinations_with_replacement(above, a))))


_PLUS_ONE = bytes(range(1, 256)) + b"\x00"
_AT_LEAST_ONE = b"\x01" + bytes(range(1, 256))


def _array_shard(m: int, i: int, prev: bytes, sorter: str) -> bytes:
    """The degrees of the w = L m R of S_m with |L| = k = i - 1, ordered by
    L, then R, lexicographically (the order of their ranks); prev is the
    sorter's degree array of S_(m-1).

    For each set of values of R, each L writes one block of the |R|!
    bytes of its w, at the head offset of L in the word L R of length
    m - 1 (_head_offsets).  The degree is 1 + prev at the rank of
    X(w)[:-1] (see _split_shard), which depends only on the value split
    and on the sorted patterns U = X(L) and V = X(R).  So each U makes,
    per split, one row of 1 + prev over the V of _patterns, and turns it
    into its block with one translate of R's images (_images), or a map
    when R has more than 256 patterns; each L then copies the blocks of
    its U (_images of L) into place, one Python write per block.  No
    side is sorted here.  The ends are prev itself, deg(L m) = deg(L),
    and deg(m R) = max(deg R, 1)."""
    k = i - 1
    if k in (0, m - 1):
        return prev.translate(_AT_LEAST_ONE) if k == 0 else prev
    r = m - 1 - k
    plus_one = prev.translate(_PLUS_ONE)
    rid, vs = _images(r, sorter), list(_patterns(r))
    pad = bytes(256 - len(vs)) if len(vs) <= 256 else None
    weights = [math.factorial(m - 2 - j) for j in range(m - 2)]
    # pairs(u) gives, split by split in lex order of the values of R,
    # (x, ys): the rank of X(w)[:-1] is x + y for the y of each V
    if sorter == "revstack":  # X(w)[:-1] = T(R)T(L): V leads, and its
        # offsets run over the values of L in lex order, so R's backwards
        cols = list(zip(*(_head_offsets(v, k, weights) for v in vs)))[::-1]
        pairs = lambda u: zip(itertools.repeat(_rank(u)), cols)
    else:  # S(L)S(R): U leads
        ranks = list(map(_rank, vs))
        pairs = lambda u: zip(_head_offsets(u, r, weights), itertools.repeat(ranks))

    def blocks(u: Word) -> list[bytes]:
        rows = (bytes(map(plus_one.__getitem__, map(x.__add__, ys))) for x, ys in pairs(u))
        return [rid.translate(row + pad) if pad is not None
                else bytes(map(row.__getitem__, rid)) for row in rows]

    made = list(map(blocks, _patterns(k)))
    block = math.factorial(r)
    out = bytearray(math.factorial(m - 1))
    for p, u in zip(itertools.permutations(range(1, k + 1)), _images(k, sorter)):
        for at, value in zip(_head_offsets(p, r, weights), made[u]):
            out[at:at + block] = value
    return bytes(out)


@functools.cache
def _images(a: int, sorter: str) -> bytes | array:
    """The index in _patterns(a) of X(q) for each q of S_a, in rank order:
    bytes while there are at most 256 patterns (a <= 6), else an array of
    unsigned ints."""
    ids = {y: j for j, y in enumerate(_patterns(a))}
    sort = revstack_sort_sim if sorter == "revstack" else stack_sort_sim
    images = map(ids.__getitem__, map(sort, itertools.permutations(range(1, a + 1))))
    return bytes(images) if len(ids) <= 256 else array("I", images)


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
    (_head_offsets) plus the rank of the tail's sorted pattern, and
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
    polys = [0] * (n - 1)  # indexed by prev, one less than the degree
    for x, head_poly in _patterns(head).items():
        tail_polys = [0] * (n - 1)
        for off in _head_offsets(x, tail, weights):
            for rank, tail_poly in tails:
                tail_polys[prev[off + rank]] += tail_poly
        for d, tail_poly in enumerate(tail_polys):
            polys[d] += head_poly * tail_poly
    mask = (1 << _BITS) - 1
    for d, poly in enumerate(polys):
        for j in range(n - 1):
            counts[d + 1][j + 1] = (poly >> (_BITS * j)) & mask
    return counts
