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
and cls[i + 1] interrupts that pair.  zigzag_degrees runs a DP on it.

The witness searches enumerate decreasing value subsets in descending
lexicographic order, so the first hit is the lexicographically largest
witness.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

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


def _scan(word: Word, k: int, uninterrupted_only: bool) -> Optional[Zigzag]:
    n = len(word)
    m = k + 2
    if k < 0:
        raise ValueError("zigzag degree must be non-negative")
    if m > n:
        return None
    pos = {v: i for i, v in enumerate(word, start=1)}
    desc = sorted(word, reverse=True)
    for sub in itertools.combinations(desc, m):
        p0 = pos[sub[0]]
        if all((pos[sub[i]] > p0) == (i % 2 == 1) for i in range(1, m)):
            inter = _interrupted(word, sub)
            if uninterrupted_only and inter:
                continue
            return Zigzag(sub, inter)
    return None


def find_zigzag(word: Sequence[int], k: int) -> Optional[Zigzag]:
    """The lexicographically largest k-zigzag, or None.

    >>> find_zigzag((1, 5, 3, 2, 7, 8, 4, 6), 3).values
    (8, 6, 5, 4, 3)
    """
    return _scan(tuple(word), k, uninterrupted_only=False)


def find_uninterrupted_zigzag(word: Sequence[int], k: int) -> Optional[Zigzag]:
    """The lexicographically largest uninterrupted k-zigzag, or None."""
    return _scan(tuple(word), k, uninterrupted_only=True)


def _chain_length(left_desc: list[int], right_desc: list[int], bound: int) -> int:
    """Longest strictly decreasing chain below bound alternating
    right, left, right, ... between the two descending value lists."""
    i = j = 0
    length = 0
    take_right = True
    while True:
        if take_right:
            while i < len(right_desc) and right_desc[i] >= bound:
                i += 1
            if i == len(right_desc):
                return length
            bound = right_desc[i]
            i += 1
        else:
            while j < len(left_desc) and left_desc[j] >= bound:
                j += 1
            if j == len(left_desc):
                return length
            bound = left_desc[j]
            j += 1
        length += 1
        take_right = not take_right


def max_zigzag_degree(word: Sequence[int]) -> int:
    """Largest k such that word contains a k-zigzag; -1 for the identity.

    Greedy per pivot: always extending the chain with the largest legal
    value is optimal, because a larger value never shrinks the choices
    available further down the chain.
    """
    w = tuple(word)
    best = -1
    for p0, v in enumerate(w):
        left = sorted((x for x in w[:p0] if x < v), reverse=True)
        right = sorted((x for x in w[p0 + 1:] if x < v), reverse=True)
        best = max(best, _chain_length(left, right, v) - 1)
    return best


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


def zigzag_degrees(word: Sequence[int]) -> tuple[int, int]:
    """(max zigzag degree, max uninterrupted zigzag degree).

    Dropping the final entry of an (uninterrupted) zigzag leaves an
    (uninterrupted) zigzag, so both families are downward closed and the
    two maxima capture every k at once.

    The uninterrupted maximum is a DP over the window lemma.  picks(a, b)
    is the largest number of entries that can follow the entry at position
    a, the next one smaller than w[a] and in the window of the entry at
    position b, the last entry on the side it goes to.  A window never
    crosses a larger value, so once each side holds an entry the pivot
    plays no further part and picks is shared by all pivots.  Taking the
    largest legal value is not optimal here, since it can shrink the
    window the next pick on that side must lie in.
    """
    w = tuple(word)
    n = len(w)
    maxz = max_zigzag_degree(w)
    left, right = _windows(w)
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

    best = 0  # entries after the pivot z0: z1 right of it, then z2 left
    for p0, z0 in enumerate(w):
        for p1 in range(p0 + 1, n):
            z1 = w[p1]
            if z1 < z0:
                best = max(best, 1)
                for p2 in range(p0):
                    if w[p2] < z1:
                        best = max(best, 2 + picks(p2, p1))
                if best > maxz:  # maxu <= maxz: nothing can beat it
                    return maxz, maxz
    return maxz, best - 1
