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
forbids sorting in k passes" holds exhaustively for all n <= 10.

Window lemma.  Let window(v) be the open position interval between the
nearest values greater than v on either side.  A zigzag is uninterrupted
iff every entry of each parity class lies in the window of the previous
entry of its class.  Sketch: if b < a lies in window(a), then a on one
side of b and the bound of window(a) on the other are greater than b, so
window(b) is inside window(a).  By induction the entries of a class from
cls[i] on all lie in window(cls[i]), which holds no value above cls[i],
so nothing interrupts them; conversely a value above cls[i] between cls[i]
and cls[i + 1] interrupts that pair.  _window_dp runs a DP on it.

Plain zigzags come from a greedy chain per pivot (_chain), uninterrupted
ones from the window DP.  Each finder builds the lexicographically largest
k-zigzag, taking every entry as the largest value that still completes one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .perms import Word


@dataclass(frozen=True)
class Zigzag:
    values: Word
    interrupted: bool

    @property
    def k(self) -> int:
        return len(self.values) - 2

    def to_json(self) -> dict:
        return {"k": self.k, "values": list(self.values), "interrupted": self.interrupted}


def is_zigzag(word: Sequence[int], values: Sequence[int]) -> bool:
    """Whether the value sequence satisfies both zigzag conditions in word."""
    m = len(values)
    if m < 2 or len(set(values)) != m:
        return False
    if any(values[i] <= values[i + 1] for i in range(m - 1)):
        return False
    pos = {v: i for i, v in enumerate(word, start=1)}
    if any(v not in pos for v in values):
        return False
    p0 = pos[values[0]]
    return all(
        (pos[values[i]] > p0) == (i % 2 == 1) for i in range(1, m)
    )


def _interrupted(word: Sequence[int], values: Sequence[int]) -> bool:
    n = len(word)
    pos = {v: i for i, v in enumerate(word, start=1)}
    for cls in (values[1::2], values[2::2]):
        # cls is listed in decreasing value order; the pair condition for
        # element cls[i] covers the positional span of cls[i:] as a whole.
        for i in range(len(cls) - 1):
            suffix = [pos[v] for v in cls[i:]]
            lo, hi = min(suffix), max(suffix)
            if any(lo < pos[c] < hi for c in range(cls[i] + 1, n + 1)):
                return True
    return False


def is_interrupted(word: Sequence[int], zigzag: Zigzag | Sequence[int]) -> bool:
    """Interruption test; rejects sequences that are not zigzags of word."""
    values = zigzag.values if isinstance(zigzag, Zigzag) else tuple(zigzag)
    if not is_zigzag(word, values):
        raise ValueError(f"{values!r} is not a zigzag of {tuple(word)!r}")
    return _interrupted(word, values)


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


def _windows(w: Word) -> tuple[list[int], list[int]]:
    """For each position p, the positions of the nearest values greater than
    w[p] on the left (-1 if none) and on the right (len(w) if none), by
    two monotone-stack passes; window(w[p]) is the open interval between."""
    n = len(w)
    left, right = [-1] * n, [n] * n
    stack: list[int] = []
    for p in range(n):
        while stack and w[stack[-1]] < w[p]:
            right[stack.pop()] = p
        left[p] = stack[-1] if stack else -1
        stack.append(p)
    return left, right


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


def find_uninterrupted_zigzag(word: Sequence[int], k: int) -> Optional[Zigzag]:
    """The lexicographically largest uninterrupted k-zigzag, or None: each
    entry the largest value that can follow the ones before it (z_1 right
    of z_0, z_2 left of it, a later entry in the window of the previous
    entry of its class) from which the window DP still reaches k + 2."""
    if k < 0:
        raise ValueError("zigzag degree must be non-negative")
    w = tuple(word)
    if k > max_zigzag_degree(w):  # no k-zigzag at all
        return None
    left, right = _windows(w)
    picks = _window_dp(w, left, right)
    order = sorted(range(len(w)), key=w.__getitem__, reverse=True)

    def nexts(z: tuple[int, ...]) -> list[int]:  # what can follow z, by descending value
        b = z[-2] if len(z) > 1 else z[0]
        span = (range(b + 1, len(w)) if len(z) == 1 else range(b) if len(z) == 2
                else range(left[b] + 1, right[b]))
        return [c for c in order if c in span and w[c] < w[z[-1]]]

    need = k + 2
    pivots: dict[tuple[int, ...], bool] = {}  # reaches() of (z_0) and (z_0, z_1)

    def reaches(z: tuple[int, ...]) -> bool:  # whether a zigzag of need entries starts z
        if len(z) > 2:
            return len(z) + picks(z[-1], z[-2]) >= need
        if z not in pivots:
            pivots[z] = len(z) >= need or any(reaches(z + (c,)) for c in nexts(z))
        return pivots[z]

    z: tuple[int, ...] = ()
    while len(z) < need:
        for c in nexts(z) if z else order:
            if reaches(z + (c,)):
                z += (c,)
                break
        else:
            return None
    return Zigzag(tuple(w[p] for p in z), False)


def zigzag_degrees(word: Sequence[int]) -> tuple[int, int]:
    """(max zigzag degree, max uninterrupted zigzag degree).

    Dropping the final entry of an (uninterrupted) zigzag leaves an
    (uninterrupted) zigzag, so both families are downward closed and the
    two maxima capture every k at once.  The uninterrupted maximum tries
    every z_0, z_1 and z_2 and reads the rest from the window DP.
    """
    w = tuple(word)
    n = len(w)
    maxz = max_zigzag_degree(w)
    picks = _window_dp(w, *_windows(w))
    best = min(maxz + 1, 1)  # entries after z0 (z1 right, z2 left): 1 if w has an inversion
    for p0, z0 in enumerate(w):
        for p1 in range(p0 + 1, n):
            z1 = w[p1]
            if z1 < z0:
                for p2 in range(p0):
                    if w[p2] < z1:
                        best = max(best, 2 + picks(p2, p1))
                if best > maxz:  # maxu <= maxz: nothing can beat it
                    return maxz, maxz
    return maxz, best - 1
