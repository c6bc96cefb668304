"""Classical and barred pattern containment with explicit witnesses.

A pattern is a permutation word of length m, optionally with one barred
letter.  Containment of a classical pattern is the usual notion: some
subsequence of the host is order-isomorphic to the pattern.

Containment of a barred pattern means: the host has an occurrence of the
reduction (the pattern with its barred letter deleted and the remaining
values renormalised) that CANNOT be extended to an occurrence of the full
unbarred pattern by inserting a single host element at the barred slot.
Avoidance means every occurrence of the reduction extends.

Occurrences are found by backtracking in one loop over an explicit stack
of chosen indices (_occurrences), in lexicographic order of positions, so
the first one is the least witness.  A candidate letter is tried with one
compare against the bounds its pattern letter's nearest smaller and
nearest larger letters set (_neighbours).  Each barred pattern's
reduction and bar slot are computed once (_bar_slot), and the bar test
is one scan of the host letters between the slot's flanking positions.

Text syntax: letters as integers, a ``!`` suffix marking the barred one,
e.g. ``"2 4 1 5! 3"``; compact form ``"2415!3"`` is accepted for
single-digit patterns.
"""
from __future__ import annotations

import functools
import itertools
import math
import re
from typing import Iterator, NamedTuple, Optional, Sequence

from .perms import Word, positions, revstack_sort_sim


# A NamedTuple body may not define __new__, so PatternSpec validates in the
# __new__ of a subclass of its fields.
class _PatternFields(NamedTuple):
    letters: Word
    barred_index: Optional[int] = None


class PatternSpec(_PatternFields):
    """A pattern word with at most one barred letter (1-based position)."""

    __slots__ = ()

    def __new__(cls, letters: Word, barred_index: Optional[int] = None):
        m = len(letters)
        if sorted(letters) != list(range(1, m + 1)):
            raise ValueError(f"pattern letters must form a permutation: {letters!r}")
        if barred_index is not None and not 1 <= barred_index <= m:
            raise ValueError(f"barred index {barred_index} out of range 1..{m}")
        return super().__new__(cls, letters, barred_index)

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


class Occurrence(NamedTuple):
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
        if not re.fullmatch(r"(\d!?)+", parts[0]):
            raise ValueError(f"cannot parse pattern from {text!r}")
        parts = re.findall(r"\d!?", parts[0])
    letters = []
    barred = None
    for k, p in enumerate(parts, start=1):
        if p.endswith("!"):
            if barred is not None:
                raise ValueError("at most one barred letter is supported")
            barred = k
            p = p[:-1]
        try:
            letters.append(int(p))
        except ValueError:
            raise ValueError(f"cannot parse pattern from {text!r}") from None
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
    the nearest larger letter than pat[d] by value.  Where there is none
    the index is m or m + 1, the slots past the m chosen letters that
    _occurrences fills with -inf and +inf."""
    m = len(pat)
    out = []
    for d, v in enumerate(pat):
        below = [j for j in range(d) if pat[j] < v]
        above = [j for j in range(d) if pat[j] > v]
        out.append((max(below, key=pat.__getitem__, default=m),
                    min(above, key=pat.__getitem__, default=m + 1)))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _bar_slot(pattern: PatternSpec) -> tuple[Word, int, int, int, int]:
    """A barred pattern's reduction and where its bar sits in an occurrence
    of it: the indices of the occurrence letters just left and just right
    of the barred slot, and of the kept letters just below and just above
    the barred letter by value, -1 where there is none."""
    bi = pattern.barred_index
    assert bi is not None
    red = pattern.reduction()
    vb = pattern.letters[bi - 1]
    return (
        red,
        bi - 2,
        bi - 1 if bi <= len(red) else -1,
        red.index(vb - 1) if vb > 1 else -1,
        red.index(vb) if vb <= len(red) else -1,
    )


def _occurrences(word: Word, pat: Word) -> Iterator[Occurrence]:
    """Every occurrence of a classical pattern, positions in lexicographic
    order, by backtracking in one loop over an explicit stack of chosen
    indices and their values, one per depth.  A prefix order-isomorphic to
    pat[:d] extends by exactly the letters strictly between its values at
    the indices of pat[d]'s nearest smaller and nearest larger letters
    (_neighbours).  The next candidate at depth d is scanned for from i;
    when none is left, the loop backs up to depth d - 1 and resumes after
    the index chosen there."""
    m, n = len(pat), len(word)
    if m == 0:
        yield Occurrence((), ())
        return
    bounds = _neighbours(pat)
    chosen = [0] * m
    values = [0] * m + [-math.inf, math.inf]
    d = i = 0
    while True:
        below, above = bounds[d]
        lo, hi = values[below], values[above]
        for i in range(i, n - m + d + 1):
            if lo < word[i] < hi:
                break
        else:
            if d == 0:
                return
            d -= 1
            i = chosen[d] + 1
            continue
        chosen[d] = i
        values[d] = word[i]
        i += 1
        if d < m - 1:
            d += 1
        else:
            yield Occurrence(tuple([c + 1 for c in chosen]), tuple(values[:m]))


def _extends(word: Word, slot: tuple[Word, int, int, int, int], occ: Occurrence) -> bool:
    """Can one host element be inserted at the barred slot to realise the
    full unbarred pattern around this occurrence of the reduction?  The
    slot's positions lie strictly between the flanking letters' positions,
    and its value strictly between the kept letters' values (_bar_slot)."""
    _, left, right, below, above = slot
    lo_pos = occ.positions[left] if left >= 0 else 0
    hi_pos = occ.positions[right] if right >= 0 else len(word) + 1
    lo_val = occ.values[below] if below >= 0 else 0
    hi_val = occ.values[above] if above >= 0 else len(word) + 1
    for v in word[lo_pos:hi_pos - 1]:
        if lo_val < v < hi_val:
            return True
    return False


def contains_barred(word: Sequence[int], pattern: PatternSpec) -> Optional[Occurrence]:
    """First occurrence of the reduction that cannot be extended at the bar.

    For a pattern without a bar this coincides with contains_classical.
    """
    if not pattern.has_bar:
        return contains_classical(word, pattern)
    w = tuple(word)
    slot = _bar_slot(pattern)
    return next((occ for occ in _occurrences(w, slot[0]) if not _extends(w, slot, occ)), None)


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


class SortedPatternWitness(NamedTuple):
    """Why one 132 occurrence of T(sigma) is inevitable: sigma contains a
    2431 pattern on (b,d,c,a), or a 2413 pattern on (b,d,a,c) admitting no
    e > c between a and c."""

    triple: Word          # (a, c, b): the 132 occurrence values in T(sigma)
    kind: str             # "2431" or "2413-unextendable"
    d: int

    def to_json(self) -> dict:
        return {"triple": list(self.triple), "kind": self.kind, "d": self.d}


class SortedPatternReport(NamedTuple):
    holds: bool
    witnesses: tuple[SortedPatternWitness, ...]
    failed_triple: Optional[Word] = None


def check_sorted_132_witnesses(word: Sequence[int]) -> SortedPatternReport:
    """For every 132 occurrence (a,c,b) in T(word), find the promised witness
    in word itself: a 2431 occurrence (b,d,c,a), or a 2413 occurrence
    (b,d,a,c) with no e > c positioned between a and c."""
    sigma = tuple(word)
    return _report(sigma, revstack_sort_sim(sigma))


def _report(sigma: Word, tau: Word) -> SortedPatternReport:
    """check_sorted_132_witnesses for sigma, given tau = T(sigma): the
    witnesses of _witnesses up to the first 132 occurrence that has none."""
    witnesses = []
    for triple, kind, d in _witnesses(sigma, tau):
        if not d:
            return SortedPatternReport(False, tuple(witnesses), triple)
        witnesses.append(SortedPatternWitness(triple, kind, d))
    return SortedPatternReport(True, tuple(witnesses))


def _witnesses(sigma: Word, tau: Word) -> Iterator[tuple[Word, str, int]]:
    """(triple, kind, d) for each 132 occurrence triple = (a,c,b) of tau, in
    the order of its positions.  d is the least value above c in sigma
    strictly between b and c (kind 2431), or else, when no value above c
    lies between a and c, strictly between b and a (2413); d is 0, and
    kind empty, when there is no witness."""
    pos = positions(sigma)
    for a, c, b in itertools.combinations(tau, 3):
        if not a < b < c:
            continue
        pa, pb, pc = pos[a], pos[b], pos[c]
        if pb < pc < pa:
            kind, between = "2431", sigma[pb:pc - 1]
        elif pb < pa < pc and max(sigma[pa:pc - 1], default=0) < c:
            kind, between = "2413-unextendable", sigma[pb:pa - 1]
        else:
            kind, between = "", ()
        yield (a, c, b), kind, min((v for v in between if v > c), default=0)
