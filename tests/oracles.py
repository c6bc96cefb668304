"""Brute-force oracles shared by several test modules.

They answer the library's questions by the definitions alone, so a test
can compare the library's fast algorithms with something independent.
"""
import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional

from revstack.patterns import SortedPatternReport, SortedPatternWitness
from revstack.perms import descents, positions, revstack_sort_sim, stack_sort_sim
from revstack.polynomials import IntPoly
from revstack.roots import (
    RootInterval,
    RootReport,
    cauchy_bound,
    sign_variations,
    square_free_parts,
    sturm_chain,
)
from revstack.trees import HStep
from revstack.zigzag import Zigzag


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


def stack_sort_by_recursion(word):
    """One stack-sort pass by the recursion S(LnR) = S(L)S(R)n on the
    maximum n."""
    w = tuple(word)
    if len(w) <= 1:
        return w
    i = w.index(max(w))
    return stack_sort_by_recursion(w[:i]) + stack_sort_by_recursion(w[i + 1:]) + (w[i],)


def revstack_sort_by_recursion(word):
    """One revstack pass by the recursion T(LnR) = T(R)T(L)n on the
    maximum n."""
    w = tuple(word)
    if len(w) <= 1:
        return w
    i = w.index(max(w))
    return revstack_sort_by_recursion(w[i + 1:]) + revstack_sort_by_recursion(w[:i]) + (w[i],)


def duality_f_by_cases(word):
    """tree_walk(word).f by its five-case recursion on the maximum n:
    f(eps) = eps, f(x) = x, f(LnR) = f(L) n f(R) when both sides are
    non-empty, f(Ln) = n f(L), and f(nR) = f(R) n."""
    w = tuple(word)
    if len(w) <= 1:
        return w
    i = w.index(max(w))
    left, pivot, right = w[:i], w[i], w[i + 1:]
    if left and right:
        return duality_f_by_cases(left) + (pivot,) + duality_f_by_cases(right)
    if left:
        return (pivot,) + duality_f_by_cases(left)
    return duality_f_by_cases(right) + (pivot,)


def g_map_by_cases(word):
    """tree_walk(word).g by its five-case recursion: g(eps) = eps, g(x) = x,
    g(LnR) = g(R) n g(L) when both sides are non-empty, g(Ln) = g(L) n,
    and g(nR) = n g(R)."""
    w = tuple(word)
    if len(w) <= 1:
        return w
    i = w.index(max(w))
    left, pivot, right = w[:i], w[i], w[i + 1:]
    if left and right:
        return g_map_by_cases(right) + (pivot,) + g_map_by_cases(left)
    if left:
        return g_map_by_cases(left) + (pivot,)
    return (pivot,) + g_map_by_cases(right)


class Node(NamedTuple):
    label: int
    left: Optional["Node"] = None
    right: Optional["Node"] = None


def tree_of(word):
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


def in_order(t):
    if t is None:
        return ()
    return in_order(t.left) + (t.label,) + in_order(t.right)


def vertices(t):
    """The nodes of t bottom-to-top by depth (deepest level first) and
    left-to-right within a level, level by level from the root: on one
    level that order is the in-order one."""
    levels = [[t]]
    while True:
        below = [c for node in levels[-1] for c in (node.left, node.right) if c is not None]
        if not below:
            return [node for level in reversed(levels) for node in level]
        levels.append(below)


def h_details_by_tree(word):
    """trees.h_details on a tree of Node records: the vertices in the
    order vertices lists them, and the flipped word the in-order reading
    of the tree rebuilt with the two sides of each flipped vertex swapped."""
    w = tuple(word)
    t = tree_of(w)
    order = vertices(t)
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

    def rebuild(node):
        if node is None:
            return None
        left, right = rebuild(node.left), rebuild(node.right)
        if node.label in flips:
            left, right = right, left
        return Node(node.label, left, right)

    return HStep(w, in_order(rebuild(t)), index, tuple(flip_labels), tuple(flip_indices))


def is_zigzag(word, values):
    """Whether the value sequence is a zigzag of word: at least two
    distinct values of word, strictly decreasing, with the odd-indexed
    entries right of the first and the even-indexed ones left of it."""
    m = len(values)
    if m < 2 or len(set(values)) != m:
        return False
    if any(values[i] <= values[i + 1] for i in range(m - 1)):
        return False
    pos = {v: i for i, v in enumerate(word, start=1)}
    if any(v not in pos for v in values):
        return False
    p0 = pos[values[0]]
    return all((pos[values[i]] > p0) == (i % 2 == 1) for i in range(1, m))


def interrupted_by_definition(word, values):
    """Whether some same-parity pair (z_i, z_j), i < j, of the zigzag values
    is straddled in position by a value c > z_i: for each entry of a
    parity class, any larger value inside the positional span of that
    entry and the later entries of its class."""
    n = len(word)
    pos = {v: i for i, v in enumerate(word, start=1)}
    for cls in (values[1::2], values[2::2]):
        for i in range(len(cls) - 1):
            suffix = [pos[v] for v in cls[i:]]
            lo, hi = min(suffix), max(suffix)
            if any(lo < pos[c] < hi for c in range(cls[i] + 1, n + 1)):
                return True
    return False


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
            interrupted = interrupted_by_definition(w, sub)
            if not (uninterrupted and interrupted):
                return Zigzag(sub, interrupted)
    return None


def scan_degree(word, uninterrupted=False):
    """The largest k with an (uninterrupted) k-zigzag by the scan, -1 if
    there is none."""
    return max((k for k in range(len(word)) if scan_zigzag(word, k, uninterrupted)),
               default=-1)


def witnesses_by_definition(sigma, tau):
    """patterns._report by value loops: for each 132 occurrence (a, c, b)
    of tau, by index triples, the least d > c positioned strictly between b
    and c in sigma (2431), or else, when no e > c sits between a and c,
    strictly between b and a (2413)."""
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
            blocked = any(pa < pos[e] < pc for e in range(c + 1, n + 1))
            if not blocked:
                for d in range(c + 1, n + 1):
                    if pb < pos[d] < pa:
                        found = SortedPatternWitness((a, c, b), "2413-unextendable", d)
                        break
        if found is None:
            return SortedPatternReport(False, tuple(witnesses), (a, c, b))
        witnesses.append(found)
    return SortedPatternReport(True, tuple(witnesses))


def precedence_by_value_pairs(w, t):
    """The precedence lemmas for w and its revstack image t, value pair by
    value pair: (1) an inversion of w is never an inversion of t; (2) a
    non-inversion (a, b) flips iff some c > b sits between them; (3)
    hence inversions of t are exactly the (b, a) with a 132 occurrence
    (a, c, b) in w."""
    n = len(w)
    pos_w = {v: i for i, v in enumerate(w)}
    pos_t = {v: i for i, v in enumerate(t)}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if pos_w[b] < pos_w[a]:
                if pos_t[a] > pos_t[b]:
                    return False
            else:
                has_c = any(
                    c > b and pos_w[a] < pos_w[c] < pos_w[b] for c in range(b + 1, n + 1)
                )
                if (pos_t[b] < pos_t[a]) != has_c:
                    return False
    return True


def gamma_vector(coeffs):
    """The gamma-vector of the polynomial sum_i coeffs[i] t^i, palindromic
    about d / 2 with d = len(coeffs) - 1: the gamma_j with
    sum_j gamma_j t^j (1 + t)^(d - 2j) equal to it, peeled off from the
    lowest degree.  Asserts that nothing is left over."""
    rest = list(coeffs)
    d = len(rest) - 1
    gamma = []
    for j in range(d // 2 + 1):
        g = rest[j]
        gamma.append(g)
        for i in range(d - 2 * j + 1):
            rest[j + i] -= g * math.comb(d - 2 * j, i)
    assert not any(rest), coeffs
    return gamma


def _fraction_sign(f, x):
    value = f(x)
    return (value > 0) - (value < 0)


def _fraction_count(chain, a, b):
    return (sign_variations([_fraction_sign(c, a) for c in chain])
            - sign_variations([_fraction_sign(c, b) for c in chain]))


def _fraction_isolate(chain, lo, hi):
    """Isolating intervals for the roots of chain[0] inside (lo, hi) by
    bisection on Fraction endpoints, counting at both ends of every node."""
    k = _fraction_count(chain, lo, hi)
    if k == 0:
        return []
    if k == 1:
        return [(lo, hi)]
    f = chain[0]
    mid = (lo + hi) / 2
    if _fraction_sign(f, mid) == 0:
        # Exact root at the midpoint: fence it off with a shrinking collar.
        w = (hi - lo) / 4
        while True:
            a, b = mid - w, mid + w
            if (_fraction_sign(f, a) and _fraction_sign(f, b)
                    and _fraction_count(chain, a, b) == 1):
                break
            w /= 2
        return _fraction_isolate(chain, lo, a) + [(mid, mid)] + _fraction_isolate(chain, b, hi)
    return _fraction_isolate(chain, lo, mid) + _fraction_isolate(chain, mid, hi)


def _fraction_refine(f, lo, hi, width):
    if lo == hi:
        return lo, hi
    slo = _fraction_sign(f, lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        smid = _fraction_sign(f, mid)
        if smid == 0:
            return mid, mid
        if smid != slo:
            hi = mid
        else:
            lo = mid
    return lo, hi


def fraction_real_roots(p, width):
    """roots.real_roots by bisection on Fraction endpoints with exact
    Fraction values of the polynomials: the same points visited and the
    same RootReport, by a route that shares no sign evaluation or
    bisection code with the library."""
    zero_mult = next(i for i, c in enumerate(p.coeffs) if c)
    f = IntPoly(p.coeffs[zero_mult:])
    roots = [RootInterval(Fraction(0), Fraction(0), zero_mult)] if zero_mult else []
    if f.degree > 0:
        parts = square_free_parts(f)
        g = math.prod((part for part, _ in parts), start=IntPoly.from_coeffs([1]))
        chain = sturm_chain(g)
        bound = Fraction(cauchy_bound(f))
        zero = Fraction(0)
        for lo, hi in _fraction_isolate(chain, -bound, zero) + _fraction_isolate(chain, zero, bound):
            lo, hi = _fraction_refine(g, lo, hi, width)
            mult = next(m for part, m in parts
                        if _fraction_sign(part, lo) * _fraction_sign(part, hi) <= 0)
            roots.append(RootInterval(lo, hi, mult))
    roots.sort(key=lambda r: (r.lo, r.hi))
    return RootReport(all_real=sum(r.multiplicity for r in roots) == p.degree,
                      nonpositive=all(r.hi <= 0 for r in roots), roots=tuple(roots))
