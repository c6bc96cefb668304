import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import revstack_sort_by_recursion, stack_sort_by_recursion
from revstack.cli import main
from revstack.perms import (
    deg_revstack,
    deg_stack,
    descents,
    format_permutation,
    is_identity,
    is_permutation,
    parse_permutation,
    reverse,
    revstack_sort_sim,
    stack_sort_sim,
)


def perms(max_n=8, min_n=0):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(tuple)
    )


def identity(n):
    return tuple(range(1, n + 1))


def inversions(word):
    """The set of value pairs (b, a) with b > a and b preceding a."""
    return {(b, a) for i, b in enumerate(word) for a in word[i + 1:] if b > a}


def revstack_passes(word, t):
    """T applied t times."""
    for _ in range(t):
        word = revstack_sort_sim(word)
    return tuple(word)


class TestWorkedExamples:
    def test_stack_sort_42513(self):
        assert stack_sort_by_recursion((4, 2, 5, 1, 3)) == (2, 4, 1, 3, 5)
        assert stack_sort_sim((4, 2, 5, 1, 3)) == (2, 4, 1, 3, 5)

    def test_stack_sort_small(self):
        assert stack_sort_by_recursion((2, 3, 1)) == stack_sort_sim((2, 3, 1)) == (2, 1, 3)
        assert stack_sort_sim((3, 2, 1)) == (1, 2, 3)
        assert stack_sort_by_recursion(()) == ()
        assert stack_sort_sim(()) == ()
        assert stack_sort_by_recursion((1,)) == stack_sort_sim((1,)) == (1,)

    def test_identity_is_fixed_point(self):
        for sort in (stack_sort_by_recursion, stack_sort_sim,
                     revstack_sort_by_recursion, revstack_sort_sim):
            assert sort((1, 2, 3, 4, 5)) == (1, 2, 3, 4, 5)

    def test_revstack_sort_42513(self):
        assert revstack_sort_by_recursion((4, 2, 5, 1, 3)) == (1, 3, 2, 4, 5)
        assert revstack_sort_sim((4, 2, 5, 1, 3)) == (1, 3, 2, 4, 5)

    def test_revstack_sort_24153(self):
        # rev(24153) = 35142 through the stack
        assert revstack_sort_by_recursion((2, 4, 1, 5, 3)) == (3, 1, 2, 4, 5)
        assert revstack_sort_sim((2, 4, 1, 5, 3)) == (3, 1, 2, 4, 5)

    def test_reverse(self):
        assert reverse((4, 2, 5, 1, 3)) == (3, 1, 5, 2, 4)
        assert reverse((1,)) == (1,)
        assert reverse((2, 8, 5, 4, 9, 1, 3, 7, 6)) == (6, 7, 3, 1, 9, 4, 5, 8, 2)

    def test_descents(self):
        assert descents((1, 2, 3, 4, 5)) == 0
        assert descents((5, 4, 3, 2, 1)) == 4
        assert descents((4, 2, 5, 1, 3)) == 2
        with pytest.raises(ValueError):
            descents(())

    def test_identity_and_descents_agree_with_pointwise_forms(self):
        words = [(), (1,), [1, 2, 3], [2, 1], (1, 3, 2)]
        words += [w for n in range(1, 7) for w in itertools.permutations(range(1, n + 1))]
        for w in words:
            assert is_identity(w) == all(v == i for i, v in enumerate(w, start=1)), w
            if w:
                assert descents(w) == sum(1 for a, b in zip(w, w[1:]) if a > b), w
                assert type(descents(w)) is int

    def test_inversions(self):
        # the helper the precedence tests read, pinned
        assert inversions((1, 2, 3, 4, 5)) == set()
        assert inversions((2, 1)) == {(2, 1)}
        assert inversions((4, 2, 5, 1, 3)) == {
            (4, 2), (4, 1), (4, 3), (2, 1), (5, 1), (5, 3)
        }

    def test_degrees(self):
        assert deg_revstack((1, 2, 3, 4, 5)) == 0
        assert deg_revstack((1, 3, 2)) == 2
        assert deg_revstack((2, 4, 1, 3, 5)) == 3
        # T: 42513 -> 13245 -> 21345 -> id
        assert deg_revstack((4, 2, 5, 1, 3)) == 3
        assert deg_revstack(()) == deg_stack(()) == 0

    def test_iterate(self, capsys):
        # T applied t times, as a loop of one-pass sorts and through sort --times
        for word, t, want in (((4, 2, 5, 1, 3), 1, (1, 3, 2, 4, 5)),
                              ((4, 2, 5, 1, 3), 0, (4, 2, 5, 1, 3)),
                              ((2, 4, 1, 3, 5), 2, (2, 1, 3, 4, 5))):
            assert revstack_passes(word, t) == want
            assert main(["sort", "--op", "revstack", "--times", str(t),
                         format_permutation(word)]) == 0
            assert capsys.readouterr().out.strip() == format_permutation(want)
        assert main(["sort", "--op", "revstack", "--times", "-1", "1"]) == 2
        assert capsys.readouterr().err == "error: iteration count must be non-negative\n"

    @pytest.mark.parametrize("word", [(2, 3), (1, 1), (0,)])
    def test_degrees_reject_non_permutations(self, word):
        # no number of passes sorts these into 1..n; the walk stops after n - 1
        for deg in (deg_revstack, deg_stack):
            with pytest.raises(ValueError) as exc:
                deg(word)
            assert str(exc.value) == f"not a permutation of 1..{len(word)}: {word!r}"


class TestTextFormat:
    def test_parse_spaced(self):
        assert parse_permutation("4 2 5 1 3") == (4, 2, 5, 1, 3)

    def test_parse_compact(self):
        assert parse_permutation("42513") == (4, 2, 5, 1, 3)

    def test_parse_empty(self):
        assert parse_permutation("") == ()

    def test_round_trip(self):
        for w in itertools.permutations(range(1, 6)):
            assert parse_permutation(format_permutation(w)) == w

    @pytest.mark.parametrize("bad", ["1 2 2", "0 1", "abc", "1 2 4", "3x1x2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_permutation(bad)

    def test_is_permutation(self):
        assert is_permutation(())
        assert is_permutation((2, 1, 3))
        assert not is_permutation((2, 2, 1))
        assert not is_permutation((0, 1))


class TestOperatorIdentities:
    def test_exhaustive_small(self):
        for n in range(9):
            for w in itertools.permutations(range(1, n + 1)):
                assert stack_sort_by_recursion(w) == stack_sort_sim(w)
                t = revstack_sort_by_recursion(w)
                assert t == revstack_sort_sim(w)
                assert t == stack_sort_by_recursion(reverse(w))

    @given(perms(max_n=10))
    def test_recursion_equals_simulation(self, w):
        assert stack_sort_by_recursion(w) == stack_sort_sim(w)
        assert revstack_sort_by_recursion(w) == revstack_sort_sim(w)

    @given(perms(max_n=10))
    def test_revstack_is_stack_of_reverse(self, w):
        assert revstack_sort_sim(w) == stack_sort_sim(reverse(w))
        assert revstack_sort_by_recursion(w) == stack_sort_by_recursion(reverse(w))

    @given(perms(max_n=10))
    def test_reverse_involution_and_descents(self, w):
        assert reverse(reverse(w)) == w
        if w:
            assert descents(w) + descents(reverse(w)) == len(w) - 1

    @given(perms(max_n=8, min_n=1))
    @settings(deadline=None)
    def test_degree_bounds(self, w):
        n = len(w)
        d = deg_revstack(w)
        assert 0 <= d <= n - 1 or (n == 0 and d == 0)
        assert is_identity(revstack_passes(w, n - 1))
        assert is_identity(revstack_passes(w, d))
        if d >= 1:
            assert not is_identity(revstack_passes(w, d - 1))
        assert (d == 0) == is_identity(w)

    @given(perms(max_n=8))
    def test_inversions_empty_iff_identity(self, w):
        assert (inversions(w) == set()) == is_identity(w)


class TestPrecedenceLemmas:
    """How one revstack pass rearranges each value pair."""

    @given(perms(max_n=8, min_n=1))
    @settings(deadline=None)
    def test_pair_behaviour(self, w):
        n = len(w)
        t = revstack_sort_sim(w)
        pos_w = {v: i for i, v in enumerate(w)}
        pos_t = {v: i for i, v in enumerate(t)}
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                if pos_w[b] < pos_w[a]:
                    # inversions always heal
                    assert pos_t[a] < pos_t[b]
                else:
                    # non-inversions flip exactly when a larger value c
                    # separates the pair
                    has_c = any(
                        pos_w[a] < pos_w[c] < pos_w[b] for c in range(b + 1, n + 1)
                    )
                    assert (pos_t[b] < pos_t[a]) == has_c

    def test_inversion_characterisation_exhaustive(self):
        # (b, a) inverted after one pass iff some (a, c, b) forms 132 before
        for n in range(1, 7):
            for w in itertools.permutations(range(1, n + 1)):
                t = revstack_sort_sim(w)
                pos = {v: i for i, v in enumerate(w)}
                expected = set()
                for a in range(1, n + 1):
                    for b in range(a + 1, n + 1):
                        if any(
                            c > b and pos[a] < pos[c] < pos[b]
                            for c in range(b + 1, n + 1)
                        ):
                            expected.add((b, a))
                assert inversions(t) == expected

    def test_stack_degree_identity_vs_revstack(self):
        # 231 contains 231 but avoids 132: one revstack pass, two stack passes
        assert deg_stack((2, 3, 1)) == 2
        assert deg_revstack((2, 3, 1)) == 1

    def test_identity_smallest(self):
        for n in range(7):
            assert deg_revstack(identity(n)) == 0
            assert deg_stack(identity(n)) == 0
