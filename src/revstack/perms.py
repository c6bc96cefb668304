"""Permutations and the two stack-sorting operators.

Permutations are words over {1..n} in one-line notation, held as tuples of
ints. Positions are 1-based throughout the public API, matching the usual
convention that ``position(v)`` is the slot of value ``v`` in the word.

Two sorting operators act on words:

- stack sort ``S``, defined by the recursion S(LnR) = S(L)S(R)n where n is
  the largest value of the word, or equivalently by one pass through a
  stack that keeps smaller elements above larger ones;
- revstack sort ``T``, defined by T(LnR) = T(R)T(L)n, equivalently
  T = S o rev (feed the word into the stack from the right end).

The stack simulations ``stack_sort_sim`` and ``revstack_sort_sim`` are
the operators.  The recursions are read off the decreasing binary tree
by ``trees.tree_walk``, which the theorem suite compares with the
simulations; the test suite keeps the plain recursions as its reference.
"""
from __future__ import annotations

import operator
from typing import Callable, Iterable, Sequence

Word = tuple[int, ...]


def is_permutation(word: Sequence[int]) -> bool:
    """Check that word is a permutation of {1..n} in one-line notation.

    >>> is_permutation((4, 2, 5, 1, 3))
    True
    >>> is_permutation((1, 1, 2))
    False
    """
    return sorted(word) == list(range(1, len(word) + 1))


def check_permutation(word: Iterable[int]) -> Word:
    """Return word as a tuple, raising ValueError if it is not a permutation."""
    w = tuple(word)
    if not is_permutation(w):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w!r}")
    return w


def is_identity(word: Sequence[int]) -> bool:
    return tuple(word) == tuple(range(1, len(word) + 1))


def positions(word: Sequence[int]) -> dict[int, int]:
    """Map each value to its 1-based position in the word."""
    return {v: i for i, v in enumerate(word, start=1)}


def parse_permutation(text: str) -> Word:
    """Parse a permutation from text.

    Accepts space-separated values ("4 2 5 1 3") always, and a compact
    digit string ("42513") when n <= 9.

    >>> parse_permutation("4 2 5 1 3")
    (4, 2, 5, 1, 3)
    >>> parse_permutation("42513")
    (4, 2, 5, 1, 3)
    """
    text = text.strip()
    if not text:
        return ()
    parts = text.split()
    compact = len(parts) == 1 and len(parts[0]) > 1
    try:
        word = tuple(int(p) for p in (parts[0] if compact else parts))
    except ValueError:
        raise ValueError(f"cannot parse permutation from {text!r}") from None
    if compact and len(word) > 9:
        raise ValueError("compact digit form only supports n <= 9")
    return check_permutation(word)


def format_permutation(word: Sequence[int]) -> str:
    """One-line output form: space-separated values."""
    return " ".join(str(v) for v in word)


def reverse(word: Sequence[int]) -> Word:
    """Reverse the word.  An involution; des(w) + des(reverse(w)) = n - 1."""
    return tuple(reversed(word))


def stack_sort_sim(word: Sequence[int]) -> Word:
    """Stack sort by simulating the physical stack.

    An element may sit above another in the stack only if it is smaller,
    so the stack is popped while its top is less than the incoming value.

    >>> stack_sort_sim((4, 2, 5, 1, 3))
    (2, 4, 1, 3, 5)
    """
    out: list[int] = []
    stack: list[int] = []
    for x in word:
        while stack and stack[-1] < x:
            out.append(stack.pop())
        stack.append(x)
    while stack:
        out.append(stack.pop())
    return tuple(out)


def revstack_sort_sim(word: Sequence[int]) -> Word:
    """Revstack sort by feeding the word into the stack from its right end.

    >>> revstack_sort_sim((4, 2, 5, 1, 3))
    (1, 3, 2, 4, 5)
    """
    out: list[int] = []
    stack: list[int] = []
    for x in reversed(word):
        while stack and stack[-1] < x:
            out.append(stack.pop())
        stack.append(x)
    while stack:
        out.append(stack.pop())
    return tuple(out)


def descents(word: Sequence[int]) -> int:
    """Number of positions i with w_i > w_{i+1}.  Undefined for the empty word.

    >>> descents((4, 2, 5, 1, 3))
    2
    """
    if len(word) == 0:
        raise ValueError("descent count is undefined for the empty permutation")
    return sum(map(operator.gt, word, word[1:]))


def _windows(w: Word) -> tuple[list[int], list[int]]:
    """For each position p, the positions of the nearest values greater than
    w[p] on the left (-1 if none) and on the right (len(w) if none), by
    two monotone-stack passes; window(w[p]) is the open interval between.
    That window is the span of the subtree of w[p] in the decreasing binary
    tree of w, and the smaller of the two values bounding it is the parent
    of w[p]."""
    n = len(w)
    left, right = [-1] * n, [n] * n
    stack: list[int] = []
    for p in range(n):
        while stack and w[stack[-1]] < w[p]:
            right[stack.pop()] = p
        left[p] = stack[-1] if stack else -1
        stack.append(p)
    return left, right


def _walk(word: Sequence[int], sort: Callable[[Sequence[int]], Word]) -> int:
    """Minimal t with sort^t(word) = identity.  Both sorts take a
    permutation of 1..n there in at most n - 1 passes (the empty word in
    none), so a word that takes more is no permutation and raises
    ValueError."""
    identity = tuple(range(1, len(word) + 1))
    w = tuple(word)
    for d in range(len(word)):
        if w == identity:
            return d
        w = sort(w)
    if not word:
        return 0
    raise ValueError(f"not a permutation of 1..{len(word)}: {tuple(word)!r}")


def deg_revstack(word: Sequence[int]) -> int:
    """Minimal t with T^t(word) = identity.  Always <= n - 1.

    >>> deg_revstack((2, 4, 1, 3, 5))
    3
    """
    return _walk(word, revstack_sort_sim)


def deg_stack(word: Sequence[int]) -> int:
    """Minimal t with S^t(word) = identity.  Always <= n - 1."""
    return _walk(word, stack_sort_sim)
