"""Decreasing binary trees and the descent-statistic bijections.

The decreasing binary tree of a word w = L n R has the maximum n at its
root and the trees of L and R as its left and right subtrees, so its
in-order reading is w.  ``tree_walk`` reads six things off that tree in
one recursion on the maximum, building no node: the in-order word; one
stack-sort pass S(w) = S(L)S(R)n (post-order); one revstack pass
T(w) = T(R)T(L)n (right subtree, left subtree, root); the number of right
edges, which equals des(w); and the two bijections below.

``duality_f`` is the descent-complementing involution (des(w) + des(f(w))
= n-1) that preserves the image under both sorting operators: it moves
every lone child to the other side.  ``g_map`` is its conjugate by
reversal: it swaps the two children of every node that has both.  Both
are reads of ``tree_walk``.

``tree_of`` builds the tree as ``Node`` records for ``injection_h``, which
raises the descent count by exactly one while preserving both sorting
images, by flipping the only-child subtrees hanging off a balanced bottom
portion of the tree.
"""
from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .perms import Word


class Node(NamedTuple):
    label: int
    left: Optional["Node"] = None
    right: Optional["Node"] = None

    def to_json(self) -> dict:
        out: dict = {"label": self.label}
        if self.left is not None:
            out["left"] = self.left.to_json()
        if self.right is not None:
            out["right"] = self.right.to_json()
        return out


def tree_of(word: Sequence[int]) -> Node:
    """The decreasing binary tree with in-order reading equal to word."""
    w = tuple(word)
    if not w:
        raise ValueError("the empty permutation has no tree")
    i = w.index(max(w))
    return Node(
        w[i],
        tree_of(w[:i]) if i > 0 else None,
        tree_of(w[i + 1:]) if i + 1 < len(w) else None,
    )


def in_order(t: Optional[Node]) -> Word:
    if t is None:
        return ()
    return in_order(t.left) + (t.label,) + in_order(t.right)


class TreeWalk(NamedTuple):
    """Six readings of the decreasing binary tree of a word, from one walk."""

    in_order: Word   # left, root, right: the word itself
    s: Word          # left, right, root: one stack-sort pass S(w)
    t: Word          # right, left, root: one revstack pass T(w)
    f: Word          # a lone child moved to the other side: duality_f(w)
    g: Word          # the two children of a full node swapped: g_map(w)
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
    binary tree of word, read in one walk that builds no Node.

    >>> walk = tree_walk((4, 2, 5, 1, 3))
    >>> walk.s, walk.t
    ((2, 4, 1, 3, 5), (1, 3, 2, 4, 5))
    >>> walk.f, walk.g, walk.right_edges
    ((2, 4, 5, 3, 1), (1, 3, 5, 4, 2), 2)
    """
    w = tuple(word)
    return TreeWalk._make(_readings(w)) if w else TreeWalk((), (), (), (), (), 0)


def duality_f(word: Sequence[int]) -> Word:
    """The descent-complementing involution: des(w) + des(f(w)) = n - 1,
    and f(w) has the S and T images of w."""
    return tree_walk(word).f


def g_map(word: Sequence[int]) -> Word:
    """The reversal conjugate of duality_f: g(w) = f(reverse(w)) = reverse(f(w))."""
    return tree_walk(word).g


def _vertices(t: Node) -> list[Node]:
    """The nodes of t bottom-to-top by depth (deepest level first) and
    left-to-right within a level, level by level from the root: on one
    level that order is the in-order one."""
    levels = [[t]]
    while True:
        below = [c for node in levels[-1] for c in (node.left, node.right) if c is not None]
        if not below:
            return [node for level in reversed(levels) for node in level]
        levels.append(below)


def vertex_indexing(t: Node) -> list[int]:
    """Labels v_1, ..., v_n ordered bottom-to-top by depth (deepest level
    first) and left-to-right (by in-order position) within a level."""
    return [node.label for node in _vertices(t)]


class HStep(NamedTuple):
    """The descent-raising construction applied to one word."""

    word: Word
    result: Word
    index: int                    # minimal i with one more left edge than right in T_i
    flipped_labels: tuple[int, ...]
    flipped_indices: tuple[int, ...]  # positions of the flipped vertices in v_1..v_n


def h_details(word: Sequence[int]) -> HStep:
    """Run the descent-raising map and report the balanced-prefix index and
    the flipped only-child vertices, reading each vertex's children off the
    nodes _vertices lists (one walk of the tree).

    Raises LookupError when no prefix T_i has exactly one more left edge
    than right edges (outside the guaranteed range des <= (n-3)/2 this can
    happen and the map is simply not defined).
    """
    w = tuple(word)
    t = tree_of(w)
    order = _vertices(t)
    # Vertices arrive deepest level first, so both children of a vertex are
    # already in the prefix when it arrives; edge counts grow by its arity.
    left_edges = right_edges = 0
    index = None
    for i, node in enumerate(order, start=1):
        left_edges += node.left is not None
        right_edges += node.right is not None
        if left_edges == right_edges + 1:
            index = i
            break
    if index is None:
        raise LookupError(f"no balanced prefix index exists for {w}")

    flip_labels = []
    flip_indices = []
    for i, node in enumerate(order[:index], start=1):
        if (node.left is None) != (node.right is None):
            flip_labels.append(node.label)
            flip_indices.append(i)
    flips = set(flip_labels)

    def rebuild(node: Optional[Node]) -> Optional[Node]:
        if node is None:
            return None
        left, right = rebuild(node.left), rebuild(node.right)
        if node.label in flips:
            left, right = right, left
        return Node(node.label, left, right)

    return HStep(w, in_order(rebuild(t)), index, tuple(flip_labels), tuple(flip_indices))


def injection_h(word: Sequence[int]) -> Word:
    """The descent-raising image of word; see h_details."""
    return h_details(word).result
