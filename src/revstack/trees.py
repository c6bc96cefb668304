"""Decreasing binary trees and the descent-statistic bijections.

``tree_of`` builds the unique decreasing binary tree whose in-order
reading is the given word (the root carries the maximum; left/right
subtrees come from the flanking subwords).  Post-order reading of that
tree performs one stack-sort pass; reading right subtree, then left, then
root (``rpostorder``) performs one revstack pass.  The number of right
edges equals the number of descents.

``duality_f`` is the descent-complementing involution (des(w) + des(f(w))
= n-1) that preserves the image under both sorting operators; ``g_map`` is
its conjugate by reversal.  ``injection_h`` raises the descent count by
exactly one while preserving both sorting images, by flipping the
only-child subtrees hanging off a balanced bottom portion of the tree.
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


def post_order(t: Optional[Node]) -> Word:
    """Left, right, root: one stack-sort pass of the in-order word."""
    if t is None:
        return ()
    return post_order(t.left) + post_order(t.right) + (t.label,)


def rpostorder(t: Optional[Node]) -> Word:
    """Right, left, root: one revstack pass of the in-order word."""
    if t is None:
        return ()
    return rpostorder(t.right) + rpostorder(t.left) + (t.label,)


def right_edge_count(t: Optional[Node]) -> int:
    if t is None:
        return 0
    own = 1 if t.right is not None else 0
    return own + right_edge_count(t.left) + right_edge_count(t.right)


def duality_f(word: Sequence[int]) -> Word:
    """The descent-complementing involution, by the five-case recursion:
    f(eps) = eps, f(x) = x, f(LnR) = f(L) n f(R) when both sides are
    non-empty, f(Ln) = n f(L), and f(nR) = f(R) n."""
    w = tuple(word)
    if len(w) <= 1:
        return w
    i = w.index(max(w))
    left, pivot, right = w[:i], w[i], w[i + 1:]
    if left and right:
        return duality_f(left) + (pivot,) + duality_f(right)
    if left:
        return (pivot,) + duality_f(left)
    return duality_f(right) + (pivot,)


def g_map(word: Sequence[int]) -> Word:
    """The reversal conjugate of duality_f: g(LnR) = g(R) n g(L) when both
    sides are non-empty, g(Ln) = g(L) n, g(nR) = n g(R)."""
    w = tuple(word)
    if len(w) <= 1:
        return w
    i = w.index(max(w))
    left, pivot, right = w[:i], w[i], w[i + 1:]
    if left and right:
        return g_map(right) + (pivot,) + g_map(left)
    if left:
        return g_map(left) + (pivot,)
    return (pivot,) + g_map(right)


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
