"""Decreasing binary trees and the descent-statistic bijections, read off
the word itself: no node is ever built.

The decreasing binary tree of a word w = L n R has the maximum n at its
root and the trees of L and R as its left and right subtrees, so its
in-order reading is w.  ``tree_walk`` reads six things off that tree in
one recursion on the maximum: the in-order word; one stack-sort pass
S(w) = S(L)S(R)n (post-order); one revstack pass T(w) = T(R)T(L)n (right
subtree, left subtree, root); the number of right edges, which equals
des(w); and the two bijections below.

The duality f moves every lone child to the other side: an involution
with des(w) + des(f(w)) = n - 1 that keeps both sorting images.  Its
conjugate by reversal, g, swaps the two children of every full node.

``injection_h`` raises the descent count by exactly one while preserving
both sorting images, by flipping the only-child subtrees hanging off a
balanced bottom portion of the tree.  ``h_details`` reads the tree's
shape from the windows of w (``perms._windows``): the window of an entry
is the span of its subtree, which gives its parent, its depth and its
children.  A flip changes no depth and no level's order, so h(w) has the
same v_1..v_n, with the balance (left minus right edges) of each prefix
up to h's index negated.  w's earlier prefixes stay below +1, so h's
index is the least prefix of h(w) with balance -1, and
``injection_h_inverse`` flips the same vertices back: h is injective.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .perms import Word, _windows


class TreeWalk(NamedTuple):
    """Six readings of the decreasing binary tree of a word, from one walk."""

    in_order: Word   # left, root, right: the word itself
    s: Word          # left, right, root: one stack-sort pass S(w)
    t: Word          # right, left, root: one revstack pass T(w)
    f: Word          # every lone child moved to the other side: the duality f(w)
    g: Word          # both children of every full node swapped: g(w) = f(rev(w))
    right_edges: int  # the number of right edges, which is des(w)


def _readings(w: Word) -> tuple:
    """The TreeWalk fields of the non-empty word w, by one recursion on the
    position i of its maximum m: w = m R (a lone right child), w = L m (a
    lone left child) or w = L m R with both sides non-empty."""
    if len(w) == 1:
        return w, w, w, w, w, 0
    m = max(w)
    i = w.index(m)
    top = (m,)
    if i == 0:
        a, s, t, f, g, r = _readings(w[1:])
        return top + a, s + top, t + top, f + top, top + g, r + 1
    if i == len(w) - 1:
        a, s, t, f, g, r = _readings(w[:i])
        return a + top, s + top, t + top, top + f, g + top, r
    a, s, t, f, g, r = _readings(w[:i])
    a2, s2, t2, f2, g2, r2 = _readings(w[i + 1:])
    return a + top + a2, s + s2 + top, t2 + t + top, f + top + f2, g2 + top + g, r + r2 + 1


def tree_walk(word: Sequence[int]) -> TreeWalk:
    """In-order, S, T, f, g and the right-edge count of the decreasing
    binary tree of word, read in one walk that builds no node.

    >>> walk = tree_walk((4, 2, 5, 1, 3))
    >>> walk.s, walk.t
    ((2, 4, 1, 3, 5), (1, 3, 2, 4, 5))
    >>> walk.f, walk.g, walk.right_edges
    ((2, 4, 5, 3, 1), (1, 3, 5, 4, 2), 2)
    """
    w = tuple(word)
    return TreeWalk._make(_readings(w)) if w else TreeWalk((), (), (), (), (), 0)


class HStep(NamedTuple):
    """The descent-raising construction applied to one word."""

    word: Word
    result: Word
    index: int                    # minimal i with one more left edge than right in T_i
    flipped_labels: tuple[int, ...]
    flipped_indices: tuple[int, ...]  # positions of the flipped vertices in v_1..v_n


def _flip(word: Sequence[int], target: int) -> HStep:
    """Flip the lone-child vertices of the least prefix T_i whose left edges
    outnumber its right edges by target: +1 for h, -1 for its inverse."""
    w = tuple(word)
    if not w:
        raise ValueError("the empty permutation has no tree")
    n = len(w)
    left, right = _windows(w)
    # The parent of an entry is the smaller value bounding its window, so
    # depths fill in by decreasing value; depth[n] = depth[-1] is no bound.
    depth = [0] * n + [-1]
    for p in sorted(range(n), key=w.__getitem__, reverse=True):
        a, b = left[p], right[p]
        depth[p] = 1 + depth[a if b == n or (a >= 0 and w[a] < w[b]) else b]
    # Deepest level first; the sort is stable, so left to right in a level.
    order = sorted(range(n), key=depth.__getitem__, reverse=True)
    # The entry at p has a left (right) child exactly when its window
    # reaches past p on that side.  Both children of a vertex precede it.
    edges = 0
    for index, p in enumerate(order, start=1):
        edges += (left[p] + 1 < p) - (p + 1 < right[p])
        if edges == target:
            break
    else:
        raise LookupError(f"no balanced prefix index exists for {w}")
    # Moving the lone child of the entry at p to the other side moves p to
    # the other end of its window.  Deeper flips come first and stay inside
    # their own windows, so each move finds its window already flipped.
    out = list(w)
    flipped = []
    for i, p in enumerate(order[:index], start=1):
        lo, hi = left[p] + 1, right[p]
        if (lo < p) != (p + 1 < hi):
            out[lo:hi] = out[lo + 1:hi] + [out[p]] if p == lo else [out[p]] + out[lo:p]
            flipped.append(i)
    return HStep(w, tuple(out), index, tuple(w[order[i - 1]] for i in flipped), tuple(flipped))


def h_details(word: Sequence[int]) -> HStep:
    """Run the descent-raising map and report the balanced-prefix index and
    the flipped only-child vertices.  The vertices v_1, ..., v_n run
    bottom-to-top by depth (deepest level first) and left-to-right within
    a level, and T_i is the forest of v_1..v_i.

    >>> step = h_details((8, 7, 9, 4, 6, 1, 10, 2, 3, 5, 11))
    >>> step.index, step.flipped_labels
    (9, (8, 3, 5))
    >>> step.result
    (7, 8, 9, 4, 6, 1, 10, 5, 3, 2, 11)
    >>> injection_h_inverse(step.result)
    (8, 7, 9, 4, 6, 1, 10, 2, 3, 5, 11)

    Raises LookupError when no prefix T_i has exactly one more left edge
    than right edges (outside the guaranteed range des <= (n-3)/2 this can
    happen and the map is simply not defined), and ValueError for the
    empty word.
    """
    return _flip(word, 1)


def injection_h(word: Sequence[int]) -> Word:
    """The descent-raising image of word; see h_details."""
    return h_details(word).result


def injection_h_inverse(word: Sequence[int]) -> Word:
    """The left inverse of injection_h (see h_details).  Raises LookupError
    when no prefix T_i has one more right edge than left edges."""
    return _flip(word, -1).result
