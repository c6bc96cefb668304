"""Classical and barred pattern containment with explicit witnesses.

A pattern is a permutation word of length m, optionally with one barred
letter.  Containment of a classical pattern is the usual notion: some
subsequence of the host is order-isomorphic to the pattern.

Containment of a barred pattern means: the host has an occurrence of the
reduction (the pattern with its barred letter deleted and the remaining
values renormalised) that CANNOT be extended to an occurrence of the full
unbarred pattern by inserting a single host element at the barred slot.
Avoidance means every occurrence of the reduction extends.

Text syntax: letters as integers, a ``!`` suffix marking the barred one,
e.g. ``"2 4 1 5! 3"``; compact form ``"2415!3"`` is accepted for
single-digit patterns.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .perms import Word, positions, revstack_sort_sim


@dataclass(frozen=True)
class PatternSpec:
    """A pattern word with at most one barred letter (1-based position)."""

    letters: Word
    barred_index: Optional[int] = None

    def __post_init__(self):
        m = len(self.letters)
        if sorted(self.letters) != list(range(1, m + 1)):
            raise ValueError(f"pattern letters must form a permutation: {self.letters!r}")
        if self.barred_index is not None and not 1 <= self.barred_index <= m:
            raise ValueError(f"barred index {self.barred_index} out of range 1..{m}")

    @property
    def has_bar(self) -> bool:
        return self.barred_index is not None

    def reduction(self) -> Word:
        """The pattern with the barred letter deleted and values renormalised."""
        if self.barred_index is None:
            return self.letters
        kept = [v for i, v in enumerate(self.letters, start=1) if i != self.barred_index]
        ranks = {v: r for r, v in enumerate(sorted(kept), start=1)}
        return tuple(ranks[v] for v in kept)

    def __str__(self) -> str:
        return " ".join(
            f"{v}!" if i == self.barred_index else str(v)
            for i, v in enumerate(self.letters, start=1)
        )


@dataclass(frozen=True)
class Occurrence:
    """A witness: strictly increasing 1-based positions and their values."""

    positions: Word
    values: Word

    def to_json(self) -> dict:
        return {"positions": list(self.positions), "values": list(self.values)}


def parse_pattern(text: str) -> PatternSpec:
    """Parse the pattern DSL.

    >>> str(parse_pattern("2415!3"))
    '2 4 1 5! 3'
    """
    text = text.strip()
    parts = text.split()
    if not parts:
        raise ValueError("empty pattern")
    if len(parts) == 1 and (len(parts[0]) > 1 or parts[0].endswith("!")):
        token = parts[0]
        parts = []
        i = 0
        while i < len(token):
            if not token[i].isdigit():
                raise ValueError(f"cannot parse pattern from {text!r}")
            j = i + 1
            if j < len(token) and token[j] == "!":
                parts.append(token[i] + "!")
                i = j + 1
            else:
                parts.append(token[i])
                i = j
    letters = []
    barred = None
    for k, p in enumerate(parts, start=1):
        if p.endswith("!"):
            if barred is not None:
                raise ValueError("at most one barred letter is supported")
            barred = k
            p = p[:-1]
        letters.append(int(p))
    return PatternSpec(tuple(letters), barred)


PATTERN_132 = parse_pattern("132")
REVSTACK_T2_CLASSICAL = parse_pattern("2431")
REVSTACK_T2_BARRED = parse_pattern("2415!3")
STACK_S2_CLASSICAL = parse_pattern("2341")
STACK_S2_BARRED = parse_pattern("35!241")


def contains_classical(word: Sequence[int], pattern: PatternSpec) -> Optional[Occurrence]:
    """First (lexicographically least positions) occurrence of a classical pattern.

    >>> contains_classical((4, 2, 5, 1, 3), PATTERN_132).values
    (2, 5, 3)
    """
    if pattern.has_bar:
        raise ValueError("contains_classical expects a pattern without a bar")
    return next(_occurrences(tuple(word), pattern.letters), None)


@functools.lru_cache(maxsize=None)
def _neighbours(pat: Word) -> tuple[tuple[int, int], ...]:
    """For each depth d, the indices in pat[:d] of the nearest smaller and
    the nearest larger letter than pat[d] by value, -1 where there is none."""
    out = []
    for d, v in enumerate(pat):
        below = [j for j in range(d) if pat[j] < v]
        above = [j for j in range(d) if pat[j] > v]
        out.append((max(below, key=pat.__getitem__, default=-1),
                    min(above, key=pat.__getitem__, default=-1)))
    return tuple(out)


def _occurrences(word: Word, pat: Word) -> Iterator[Occurrence]:
    """Every occurrence of a classical pattern, positions in lexicographic
    order, by backtracking.  A prefix order-isomorphic to pat[:d] extends
    by exactly the letters strictly between its letters at the indices of
    pat[d]'s nearest smaller and nearest larger letters (_neighbours)."""
    m, n = len(pat), len(word)
    bounds = _neighbours(pat)
    chosen: list[int] = []

    def extend(start: int) -> Iterator[Occurrence]:
        depth = len(chosen)
        if depth == m:
            yield Occurrence(tuple(i + 1 for i in chosen), tuple(word[i] for i in chosen))
            return
        below, above = bounds[depth]
        lo = word[chosen[below]] if below >= 0 else -math.inf
        hi = word[chosen[above]] if above >= 0 else math.inf
        for i in range(start, n - (m - depth) + 1):
            if lo < word[i] < hi:
                chosen.append(i)
                yield from extend(i + 1)
                chosen.pop()

    return extend(0)


def _extends(word: Word, pattern: PatternSpec, occ: Occurrence) -> bool:
    """Can one host element be inserted at the barred slot to realise the
    full unbarred pattern around this occurrence of the reduction?"""
    bi = pattern.barred_index
    assert bi is not None
    m = len(pattern.letters)
    vb = pattern.letters[bi - 1]
    n = len(word)

    lo_pos = occ.positions[bi - 2] if bi >= 2 else 0
    hi_pos = occ.positions[bi - 1] if bi <= m - 1 else n + 1

    lo_val, hi_val = 0, n + 1
    kept = [v for i, v in enumerate(pattern.letters, start=1) if i != bi]
    for letter, witness in zip(kept, occ.values):
        if letter < vb:
            lo_val = max(lo_val, witness)
        else:
            hi_val = min(hi_val, witness)

    return any(
        lo_val < word[p - 1] < hi_val for p in range(lo_pos + 1, hi_pos)
    )


def contains_barred(word: Sequence[int], pattern: PatternSpec) -> Optional[Occurrence]:
    """First occurrence of the reduction that cannot be extended at the bar.

    For a pattern without a bar this coincides with contains_classical.
    """
    w = tuple(word)
    return next(
        (occ for occ in _occurrences(w, pattern.reduction())
         if not pattern.has_bar or not _extends(w, pattern, occ)),
        None,
    )


def is_member_T2(word: Sequence[int]) -> bool:
    """Whether the word avoids 2431 and the barred pattern 241(5)3.

    This is the pattern characterisation of the permutations sorted by at
    most two revstack passes; the test suite checks it against the
    iteration oracle exhaustively.
    """
    w = tuple(word)
    return (
        contains_classical(w, REVSTACK_T2_CLASSICAL) is None
        and contains_barred(w, REVSTACK_T2_BARRED) is None
    )


def is_member_S2(word: Sequence[int]) -> bool:
    """West's companion: avoidance of 2341 and barred 3(5)241 characterises
    the permutations sorted by at most two stack passes."""
    w = tuple(word)
    return (
        contains_classical(w, STACK_S2_CLASSICAL) is None
        and contains_barred(w, STACK_S2_BARRED) is None
    )


@dataclass(frozen=True)
class SortedPatternWitness:
    """Why one 132 occurrence of T(sigma) is inevitable: sigma contains a
    2431 pattern on (b,d,c,a), or a 2413 pattern on (b,d,a,c) admitting no
    e > c between a and c."""

    triple: Word          # (a, c, b): the 132 occurrence values in T(sigma)
    kind: str             # "2431" or "2413-unextendable"
    d: int

    def to_json(self) -> dict:
        return {"triple": list(self.triple), "kind": self.kind, "d": self.d}


@dataclass(frozen=True)
class SortedPatternReport:
    holds: bool
    witnesses: tuple[SortedPatternWitness, ...]
    failed_triple: Optional[Word] = None


def check_sorted_132_witnesses(word: Sequence[int]) -> SortedPatternReport:
    """For every 132 occurrence (a,c,b) in T(word), find the promised witness
    in word itself: a 2431 occurrence (b,d,c,a), or a 2413 occurrence
    (b,d,a,c) with no e > c positioned between a and c."""
    sigma = tuple(word)
    tau = revstack_sort_sim(sigma)
    n = len(sigma)
    pos = positions(sigma)
    witnesses = []
    for i, j, k in itertools.combinations(range(n), 3):
        a, c, b = tau[i], tau[j], tau[k]
        if not a < b < c:
            continue
        pa, pb, pc = pos[a], pos[b], pos[c]
        found = None
        if pb < pc < pa:
            for d in range(c + 1, n + 1):
                if pb < pos[d] < pc:
                    found = SortedPatternWitness((a, c, b), "2431", d)
                    break
        if found is None and pb < pa < pc:
            blocked = any(
                e > c and pa < pos[e] < pc for e in range(c + 1, n + 1)
            )
            if not blocked:
                for d in range(c + 1, n + 1):
                    if pb < pos[d] < pa:
                        found = SortedPatternWitness((a, c, b), "2413-unextendable", d)
                        break
        if found is None:
            return SortedPatternReport(False, tuple(witnesses), (a, c, b))
        witnesses.append(found)
    return SortedPatternReport(True, tuple(witnesses))
