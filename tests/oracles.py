"""Brute-force oracles shared by several test modules.

They answer the library's questions by the definitions alone, so a test
can compare the library's fast algorithms with something independent.
"""
import itertools

from revstack.zigzag import Zigzag, _interrupted


def scan_zigzag(word, k, uninterrupted=False):
    """The lexicographically largest (uninterrupted) k-zigzag of word, or
    None: the first decreasing value subset of size k + 2, in descending
    lexicographic order, whose odd-indexed entries sit right of its first
    entry and whose even-indexed ones sit left of it."""
    w = tuple(word)
    pos = {v: i for i, v in enumerate(w)}
    for sub in itertools.combinations(sorted(w, reverse=True), k + 2):
        p0 = pos[sub[0]]
        if all((pos[sub[i]] > p0) == (i % 2 == 1) for i in range(1, k + 2)):
            interrupted = _interrupted(w, sub)
            if not (uninterrupted and interrupted):
                return Zigzag(sub, interrupted)
    return None


def scan_degree(word, uninterrupted=False):
    """The largest k with an (uninterrupted) k-zigzag by the scan, -1 if
    there is none."""
    return max((k for k in range(len(word)) if scan_zigzag(word, k, uninterrupted)),
               default=-1)
