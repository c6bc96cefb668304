"""Brute-force oracles shared by several test modules.

They answer the library's questions by the definitions alone, so a test
can compare the library's fast algorithms with something independent.
"""
import itertools

from revstack.perms import descents, revstack_sort_sim, stack_sort_sim
from revstack.zigzag import Zigzag, _interrupted


def walk_patterns(a, sorter, bits):
    """split._patterns by sorting every permutation p of S_a: each sorted
    pattern X(p) with the sum of t^des(p) over its p, bits per packed
    coefficient."""
    sort = revstack_sort_sim if sorter == "revstack" else stack_sort_sim
    polys = {}
    for p in itertools.permutations(range(1, a + 1)):
        x = sort(p)
        polys[x] = polys.get(x, 0) + (1 << (bits * descents(p)))
    return polys


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
