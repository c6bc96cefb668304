"""Zigzag patterns: detection, interruption, and maximal degrees.

A k-zigzag of a word is a strictly decreasing value sequence
``z = (z_0, ..., z_{k+1})`` whose even-indexed entries (z_2, z_4, ...) sit
left of z_0 and whose odd-indexed entries (z_1, z_3, ...) sit right of z_0.
A 0-zigzag is an inversion, a 1-zigzag a 132 occurrence, and a 2-zigzag an
occurrence of 2413 or 2431.

A zigzag is *interrupted* when some same-parity pair (z_i, z_j) with i < j
is straddled in position by a value c > z_i.  Note the threshold is the
larger element of the straddled pair, not z_0: requiring c > z_0 admits
counterexamples to the sorting bound starting at n = 7 (3615724 has a
(7,4,3,2,1) zigzag with nothing above 7, yet three passes sort it; the
value 6 between the even entries 3 and 1 is what actually disturbs the
stack).  With the pair-wise threshold the bound "an uninterrupted k-zigzag
forbids sorting in k passes" holds exhaustively for all n <= 11.

Window lemma.  Let window(v) be the open position interval between the
nearest values greater than v on either side.  A zigzag is uninterrupted
iff every entry of each parity class lies in the window of the previous
entry of its class.  Sketch: if b < a lies in window(a), then a on one
side of b and the bound of window(a) on the other are greater than b, so
window(b) is inside window(a).  By induction the entries of a class from
cls[i] on all lie in window(cls[i]), which holds no value above cls[i],
so nothing interrupts them; conversely a value above cls[i] between cls[i]
and cls[i + 1] interrupts that pair.  _interrupted reads it off the windows
(_windows), and _window_dp runs a DP on it; the definition above is the
tests' oracle.

Plain zigzags come from a greedy chain per pivot (_chain).  Uninterrupted
ones come from one loop of starts (_starts): each z_0, z_1 and z_2 in
descending lexicographic order of values, with the most entries the window
DP can add to it.  zigzag_degrees takes the largest of these reaches, and
find_uninterrupted_zigzag the first start that reaches k + 2, extended
entry by entry.  Each finder builds the lexicographically largest
k-zigzag, taking every entry as the largest value that still completes one.
"""
from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .perms import Word, _windows


class Zigzag(NamedTuple):
    values: Word
    interrupted: bool

    @property
    def k(self) -> int:
        return len(self.values) - 2

    def to_json(self) -> dict:
        return {"k": self.k, "values": list(self.values), "interrupted": self.interrupted}


def _interrupted(word: Sequence[int], values: Sequence[int]) -> bool:
    """Whether some entry of a parity class lies outside the window of the
    previous entry of its class (the window lemma)."""
    left, right = _windows(word)
    pos = {v: p for p, v in enumerate(word)}
    return any(not left[pos[a]] < pos[b] < right[pos[a]]
               for cls in (values[1::2], values[2::2]) for a, b in zip(cls, cls[1:]))


def _chain(w: Word, order: list[int], i: int) -> list[int]:
    """The greedy chain of the pivot at order[i] (the positions of w by
    descending value): the pivot, then each smaller value in turn on the
    side whose turn it is, right of the pivot first.  A larger value never
    shrinks the choices further down, so the chain is the longest zigzag
    from its pivot and, cut to any length, the lexicographically largest."""
    p0 = order[i]
    chain = [w[p0]]
    for p in order[i + 1:]:
        if (p > p0) == (len(chain) % 2 == 1):
            chain.append(w[p])
    return chain


def find_zigzag(word: Sequence[int], k: int) -> Optional[Zigzag]:
    """The lexicographically largest k-zigzag, or None: the chain of the
    largest pivot that reaches k + 2 entries, cut to k + 2.

    >>> find_zigzag((1, 5, 3, 2, 7, 8, 4, 6), 3).values
    (8, 6, 5, 4, 3)
    """
    if k < 0:
        raise ValueError("zigzag degree must be non-negative")
    w = tuple(word)
    order = sorted(range(len(w)), key=w.__getitem__, reverse=True)
    for i in range(len(w)):
        values = tuple(_chain(w, order, i)[:k + 2])
        if len(values) == k + 2:
            return Zigzag(values, _interrupted(w, values))
    return None


def max_zigzag_degree(word: Sequence[int]) -> int:
    """Largest k such that word contains a k-zigzag; -1 for the identity:
    the longest chain less 2."""
    w = tuple(word)
    n = len(w)
    order = sorted(range(n), key=w.__getitem__, reverse=True)
    best = 1
    for i in range(n):
        if n - i <= best:  # the pivot at order[i] has at most n - i entries
            break
        best = max(best, len(_chain(w, order, i)))
    return best - 2


def _window_dp(w: Word, left: list[int], right: list[int]) -> Callable[[int, int], int]:
    """picks(a, b) for w, with left and right from _windows(w): the most
    entries that can follow the entry at position a, the next one smaller
    than w[a] and in the window of the entry at position b, the last entry
    on the side it goes to.  A window never crosses a larger value, so once
    each side holds an entry the pivot plays no further part and picks
    serves all pivots.  Taking the largest legal value is not optimal
    here: it can shrink the window the next pick on that side must lie in."""
    n = len(w)
    memo = [-1] * (n * n)

    def picks(a: int, b: int) -> int:
        r = memo[a * n + b]
        if r < 0:
            va = w[a]
            r = 0
            for c in range(left[b] + 1, right[b]):
                if w[c] < va:
                    r = max(r, 1 + picks(c, a))
            memo[a * n + b] = r
        return r

    return picks


def _starts(w: Word, order: list[int],
            picks: Callable[[int, int], int]) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every uninterrupted start of w with its reach, in descending
    lexicographic order of values, each pair before the triples it begins:
    ((p0, p1), 2) for z_1 right of z_0, and ((p0, p1, p2), 3 + picks(p2, p1))
    for z_2 left of z_0 as well, the reach being the most entries of an
    uninterrupted zigzag that starts so.  order lists the positions of w by
    descending value; picks is _window_dp(w, ...)."""
    for i, p0 in enumerate(order):
        for j in range(i + 1, len(order)):
            p1 = order[j]
            if p1 > p0:
                yield (p0, p1), 2
                for p2 in order[j + 1:]:
                    if p2 < p0:
                        yield (p0, p1, p2), 3 + picks(p2, p1)


def find_uninterrupted_zigzag(word: Sequence[int], k: int) -> Optional[Zigzag]:
    """The lexicographically largest uninterrupted k-zigzag, or None: the
    first start (_starts) that reaches k + 2 entries, cut to k + 2 or
    extended greedily, each later entry the largest value in the window of
    the previous entry of its class from which the window DP still
    reaches k + 2."""
    if k < 0:
        raise ValueError("zigzag degree must be non-negative")
    w = tuple(word)
    if k > max_zigzag_degree(w):  # no k-zigzag at all
        return None
    left, right = _windows(w)
    picks = _window_dp(w, left, right)
    order = sorted(range(len(w)), key=w.__getitem__, reverse=True)
    need = k + 2
    z = next((start[:need] for start, reach in _starts(w, order, picks) if reach >= need), None)
    if z is None:
        return None
    while len(z) < need:
        b, a = z[-2], z[-1]
        c = next(c for c in order if left[b] < c < right[b] and w[c] < w[a]
                 and len(z) + 1 + picks(c, a) >= need)
        z += (c,)
    return Zigzag(tuple(w[p] for p in z), False)


def zigzag_degrees(word: Sequence[int]) -> tuple[int, int]:
    """(max zigzag degree, max uninterrupted zigzag degree).

    Dropping the final entry of an (uninterrupted) zigzag leaves an
    (uninterrupted) zigzag, so both families are downward closed and the
    two maxima capture every k at once.  The uninterrupted maximum is the
    largest reach of a start (_starts), less 2; the scan stops once a
    start reaches maxz + 2, as nothing can beat that.
    """
    w = tuple(word)
    maxz = max_zigzag_degree(w)
    order = sorted(range(len(w)), key=w.__getitem__, reverse=True)
    best = 1  # the identity has no start
    for _, reach in _starts(w, order, _window_dp(w, *_windows(w))):
        if reach > best:
            best = reach
            if best >= maxz + 2:
                break
    return maxz, best - 2
