import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import interrupted_by_definition, is_zigzag, scan_degree, scan_zigzag
from revstack.patterns import contains_classical, parse_pattern
from revstack.perms import deg_revstack, is_identity
from revstack.zigzag import (
    Zigzag,
    _interrupted,
    find_uninterrupted_zigzag,
    find_zigzag,
    max_zigzag_degree,
    zigzag_degrees,
)


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


def perms(max_n=8, min_n=1):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(tuple)
    )


def all_zigzags(w):
    """Every zigzag of the permutation w: each pivot extended by smaller
    values, odd-indexed entries right of it and even-indexed ones left."""
    pos = {v: i for i, v in enumerate(w)}

    def extend(z):
        right = len(z) % 2 == 1
        for v in range(z[-1] - 1, 0, -1):
            if (pos[v] > pos[z[0]]) == right:
                yield z + (v,)
                yield from extend(z + (v,))

    for v in w:
        yield from extend((v,))


def window(w, v):
    """Positions (0-based) of the nearest values above v on either side of
    it, -1 and len(w) where there is none."""
    p = w.index(v)
    lo = max((q for q in range(p) if w[q] > v), default=-1)
    hi = min((q for q in range(p + 1, len(w)) if w[q] > v), default=len(w))
    return lo, hi


def window_condition(w, z):
    """Every entry of each parity class lies in the window of the previous
    entry of its class."""
    for cls in (z[1::2], z[2::2]):
        for a, b in zip(cls, cls[1:]):
            lo, hi = window(w, a)
            if not lo < w.index(b) < hi:
                return False
    return True


def uninterrupted_degree_matches_scan(w):
    """zigzag_degrees' uninterrupted maximum u is the one the subset scan
    finds: a u-zigzag and no (u + 1)-zigzag, which settles every larger k
    because the family is downward closed."""
    _, u = zigzag_degrees(w)
    return (u < 0 or scan_zigzag(w, u, uninterrupted=True) is not None) and (
        scan_zigzag(w, u + 1, uninterrupted=True) is None
    )


def finders_match_scan(w):
    """Both finders return the scan's zigzag, or None with it, for every k
    from 0 to n + 1."""
    return all(
        find_zigzag(w, k) == scan_zigzag(w, k)
        and find_uninterrupted_zigzag(w, k) == scan_zigzag(w, k, uninterrupted=True)
        for k in range(len(w) + 2)
    )


class TestWorkedExamples:
    W = (1, 5, 3, 2, 7, 8, 4, 6)
    W_PRIME = (1, 5, 3, 2, 7, 4, 8, 6)
    W_LONG = (4, 6, 11, 8, 3, 2, 10, 12, 7, 1, 9, 5)

    def test_contains_the_illustrated_3_zigzag(self):
        z = (7, 6, 5, 4, 2)
        assert is_zigzag(self.W, z)
        assert not interrupted_by_definition(self.W, z)
        assert not _interrupted(self.W, z)

    def test_lex_largest_3_zigzag(self):
        # (8,6,5,4,3) is also a 3-zigzag and beats (7,...) lexicographically
        z = find_zigzag(self.W, 3)
        assert z.values == (8, 6, 5, 4, 3)
        assert not z.interrupted
        assert not interrupted_by_definition(self.W, z.values)
        assert find_uninterrupted_zigzag(self.W, 3).values == (8, 6, 5, 4, 3)

    def test_interrupted_variant(self):
        # the 8 moved between 4 and 6 interrupts the odd entries, and the
        # lexicographically largest 3-zigzag now starts at 7
        z = (7, 6, 5, 4, 2)
        assert is_zigzag(self.W_PRIME, z)
        assert interrupted_by_definition(self.W_PRIME, z)
        assert _interrupted(self.W_PRIME, z)
        found = find_zigzag(self.W_PRIME, 3)
        assert found == Zigzag((7, 6, 5, 4, 3), True)
        assert interrupted_by_definition(self.W_PRIME, found.values)

    def test_interrupted_long_example(self):
        # an 11 sits between the even entries 8 and 6
        z = (10, 9, 8, 7, 6, 5)
        assert is_zigzag(self.W_LONG, z)
        assert interrupted_by_definition(self.W_LONG, z)
        assert _interrupted(self.W_LONG, z)
        found = find_zigzag(self.W_LONG, 4)
        assert found == Zigzag((12, 9, 8, 7, 6, 5), True)
        assert interrupted_by_definition(self.W_LONG, found.values)

    def test_identity_has_nothing(self):
        for k in range(5):
            assert find_zigzag((1, 2, 3, 4, 5), k) is None

    def test_132_is_the_unique_1_zigzag(self):
        z = find_zigzag((1, 3, 2), 1)
        assert z.values == (3, 2, 1)
        assert not z.interrupted

    def test_42513_has_a_2_zigzag(self):
        # via the 2413 occurrence 2-5-1-3; three passes are needed to sort
        z = find_zigzag((4, 2, 5, 1, 3), 2)
        assert z is not None
        assert z.values == (5, 3, 2, 1)
        assert deg_revstack((4, 2, 5, 1, 3)) == 3

    def test_invalid_zigzag_rejected(self):
        # the definition the finders are checked against: not decreasing,
        # an entry on the wrong side of z_0, a value not in the word
        assert not is_zigzag((1, 3, 2), (2, 3, 1))
        assert not is_zigzag((1, 3, 2), (3, 1, 2))
        assert not is_zigzag((2, 1, 3), (3, 1))
        assert not is_zigzag((1, 3, 2), (4, 2))
        assert is_zigzag((1, 3, 2), (3, 2, 1))

    def test_json(self):
        z = find_zigzag(self.W, 3)
        assert z.to_json() == {"k": 3, "values": [8, 6, 5, 4, 3], "interrupted": False}


class TestGroundings:
    def test_degree_0_iff_inversion(self):
        for n in range(1, 7):
            for w in all_perms(n):
                assert (find_zigzag(w, 0) is None) == is_identity(w)

    def test_degree_1_iff_132(self):
        for n in range(1, 7):
            for w in all_perms(n):
                here = find_zigzag(w, 1) is not None
                assert here == (contains_classical(w, parse_pattern("132")) is not None)

    def test_degree_2_iff_2413_or_2431(self):
        p2413 = parse_pattern("2413")
        p2431 = parse_pattern("2431")
        for n in range(1, 7):
            for w in all_perms(n):
                here = find_zigzag(w, 2) is not None
                classical = (
                    contains_classical(w, p2413) is not None
                    or contains_classical(w, p2431) is not None
                )
                assert here == classical

    def test_monotone_in_k(self):
        for n in range(1, 7):
            for w in all_perms(n):
                ks = [k for k in range(n) if find_zigzag(w, k) is not None]
                assert ks == list(range(len(ks)))

    def test_small_degree_always_uninterrupted(self):
        # interruption needs two same-parity entries beyond the pivot
        for n in range(1, 7):
            for w in all_perms(n):
                for k in (0, 1):
                    z = find_zigzag(w, k)
                    if z is not None:
                        assert not z.interrupted


class TestWindowLemma:
    def test_window_condition_is_uninterruption(self):
        for n in range(1, 8):
            for w in all_perms(n):
                for z in all_zigzags(w):
                    interrupted = interrupted_by_definition(w, z)
                    assert window_condition(w, z) == (not interrupted), (w, z)
                    assert _interrupted(w, z) == interrupted, (w, z)

    def test_zigzag_enumeration_is_complete(self):
        for n in range(1, 6):
            for w in all_perms(n):
                expected = [
                    z
                    for m in range(2, n + 1)
                    for z in itertools.combinations(sorted(w, reverse=True), m)
                    if is_zigzag(w, z)
                ]
                assert sorted(all_zigzags(w)) == sorted(expected)


class TestFastDegrees:
    def test_agree_with_subset_scan(self):
        for n in range(1, 8):
            for w in all_perms(n):
                maxz, maxu = zigzag_degrees(w)
                brute_z = scan_degree(w)
                assert maxz == brute_z
                assert maxu == scan_degree(w, uninterrupted=True)
                assert max_zigzag_degree(w) == brute_z

    def test_degrees_of_words_that_are_not_permutations(self):
        # any word of distinct values: only the relative order counts,
        # for the interruption flag as well
        for w in all_perms(6):
            word = tuple(10 * v - 25 for v in w)
            assert zigzag_degrees(word) == zigzag_degrees(w)
            assert max_zigzag_degree(word) == max_zigzag_degree(w)
            for k in range(6):
                z, scaled = find_zigzag(w, k), find_zigzag(word, k)
                assert (z is None) == (scaled is None)
                if z is not None:
                    assert scaled.interrupted == z.interrupted

    def test_uninterrupted_agrees_with_scan_n8(self):
        for w in all_perms(8):
            assert uninterrupted_degree_matches_scan(w), w

    @given(perms(max_n=12, min_n=9))
    @settings(deadline=None)
    def test_uninterrupted_agrees_with_scan_large(self, w):
        assert uninterrupted_degree_matches_scan(w)

    @given(perms(max_n=7))
    @settings(deadline=None)
    def test_bracketing(self, w):
        maxz, maxu = zigzag_degrees(w)
        assert maxu < deg_revstack(w) <= maxz + 1

    @given(perms(max_n=8))
    @settings(deadline=None)
    def test_found_zigzags_are_valid(self, w):
        maxz, maxu = zigzag_degrees(w)
        for k in range(maxz + 1):
            z = find_zigzag(w, k)
            assert z is not None
            assert is_zigzag(w, z.values)
            assert isinstance(z, Zigzag)
            assert z.k == k
            assert interrupted_by_definition(w, z.values) == z.interrupted
        for k in range(maxu + 1):
            z = find_uninterrupted_zigzag(w, k)
            assert isinstance(z, Zigzag)
            assert is_zigzag(w, z.values)
            assert z.k == k
            assert z.interrupted is False
            assert not interrupted_by_definition(w, z.values)


class TestFindersAgainstScan:
    """find_zigzag and find_uninterrupted_zigzag against the subset scan
    of tests/oracles.py, which tries decreasing value subsets in descending
    lexicographic order."""

    def test_every_permutation_up_to_n7(self):
        for n in range(8):
            for w in all_perms(n):
                assert finders_match_scan(w), w

    @given(perms(max_n=12, min_n=8))
    @settings(deadline=None)
    def test_larger_permutations(self, w):
        assert finders_match_scan(w)

    @pytest.mark.extended
    def test_every_permutation_of_s8(self):
        for w in all_perms(8):
            assert finders_match_scan(w), w
