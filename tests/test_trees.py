import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    duality_f_by_cases,
    g_map_by_cases,
    h_details_by_tree,
    in_order,
    revstack_sort_by_recursion,
    stack_sort_by_recursion,
    tree_of,
    vertices,
)
from revstack.perms import descents, reverse, revstack_sort_sim, stack_sort_sim
from revstack.trees import h_details, injection_h, injection_h_inverse, tree_walk

WORKED = (8, 7, 9, 4, 6, 1, 10, 2, 3, 5, 11)


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


def identity(n):
    return tuple(range(1, n + 1))


def perms(max_n=9):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(tuple)
    )


class TestTreeConstruction:
    # the oracle's Node tree, pinned to the paper's examples
    def test_worked_example_structure(self):
        t = tree_of(WORKED)
        assert t.label == 11
        assert t.right is None
        assert t.left.label == 10
        assert t.left.left.label == 9
        assert t.left.right.label == 5
        assert t.left.left.left.label == 8
        assert t.left.left.left.right.label == 7
        assert t.left.left.right.label == 6
        assert in_order(t) == WORKED

    def test_identity_chain(self):
        t = tree_of(identity(5))
        # root n with a pure left chain; no right edges, no descents
        node, labels = t, []
        while node is not None:
            labels.append(node.label)
            assert node.right is None
            node = node.left
        assert labels == [5, 4, 3, 2, 1]

    def test_42513(self):
        t = tree_of((4, 2, 5, 1, 3))
        assert t.label == 5
        assert t.left.label == 4
        assert t.left.right.label == 2
        assert t.right.label == 3
        assert t.right.left.label == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tree_of(())
        with pytest.raises(ValueError):
            h_details(())


class TestTraversals:
    def test_worked_sort_images(self):
        walk = tree_walk((4, 2, 5, 1, 3))
        assert walk.s == (2, 4, 1, 3, 5)
        assert walk.t == (1, 3, 2, 4, 5)

    def test_identity_fixed(self):
        walk = tree_walk(identity(6))
        assert walk.in_order == walk.s == walk.t == identity(6)

    def test_reversed_identity(self):
        assert tree_walk((5, 4, 3, 2, 1)).t == (1, 2, 3, 4, 5)

    def test_exhaustive_identities(self):
        for n in range(1, 8):
            for w in all_perms(n):
                walk = tree_walk(w)
                assert in_order(tree_of(w)) == walk.in_order == w
                assert walk.s == stack_sort_sim(w)
                assert walk.t == revstack_sort_sim(w)
                assert walk.right_edges == descents(w)


class TestTreeWalk:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_readings_match_their_definitions(self, n):
        # each reading against a definition that shares no code with the
        # walk: the word, the sorting recursions, the five-case recursions
        # of f and g, and the descent count
        for w in all_perms(n):
            walk = tree_walk(w)
            assert walk.in_order == w
            assert walk.s == stack_sort_by_recursion(w)
            assert walk.t == revstack_sort_by_recursion(w)
            assert walk.f == duality_f_by_cases(w)
            assert walk.g == g_map_by_cases(w)
            assert walk.right_edges == descents(w)

    def test_empty_word(self):
        assert tree_walk(()) == ((), (), (), (), (), 0)
        assert tree_walk([]) == tree_walk(())


class TestDuality:
    def test_fixed_point_231(self):
        assert tree_walk((2, 3, 1)).f == (2, 3, 1)

    def test_identity_maps_to_reverse(self):
        for n in range(1, 8):
            assert tree_walk(identity(n)).f == reverse(identity(n))

    def test_exhaustive_properties(self):
        for n in range(1, 7):
            for w in all_perms(n):
                f = tree_walk(w).f
                assert tree_walk(f).f == w
                assert descents(w) + descents(f) == n - 1
                assert stack_sort_sim(f) == stack_sort_sim(w)
                assert revstack_sort_sim(f) == revstack_sort_sim(w)

    @given(perms(max_n=9))
    @settings(deadline=None)
    def test_involution_random(self, w):
        assert tree_walk(tree_walk(w).f).f == w

    def test_g_bases(self):
        assert tree_walk(()).f == tree_walk(()).g == ()
        assert tree_walk((1,)).f == tree_walk((1,)).g == (1,)
        assert tree_walk((2, 3, 1)).g == (1, 3, 2)

    def test_g_is_conjugate_exhaustive(self):
        for n in range(1, 8):
            for w in all_perms(n):
                walk = tree_walk(w)
                assert walk.g == tree_walk(reverse(w)).f
                assert walk.g == reverse(walk.f)


def vertex_labels(w):
    return [node.label for node in vertices(tree_of(w))]


class TestVertexIndexing:
    # the oracle's vertex order v_1..v_n, pinned to the paper's example
    def test_worked_example_order(self):
        assert vertex_labels(WORKED) == [7, 4, 1, 2, 8, 6, 3, 9, 5, 10, 11]

    def test_covers_all_labels(self):
        for n in range(1, 7):
            for w in all_perms(n):
                assert sorted(vertex_labels(w)) == list(range(1, n + 1))


def h_or_lookup_error(h, w):
    try:
        return h(w)
    except LookupError as exc:
        return str(exc)


class TestInjectionH:
    def test_worked_example(self):
        vertex = vertex_labels(WORKED)
        for h in (h_details, h_details_by_tree):
            step = h(WORKED)
            assert step.result == (7, 8, 9, 4, 6, 1, 10, 5, 3, 2, 11)
            assert step.index == 9
            assert step.flipped_indices == (5, 7, 9)
            assert step.flipped_labels == (8, 3, 5)
            assert [vertex[i - 1] for i in step.flipped_indices] == [8, 3, 5]

    @pytest.mark.parametrize("n", [*range(1, 9), pytest.param(9, marks=pytest.mark.extended)])
    def test_matches_the_tree_oracle(self, n):
        # result, index, flipped labels and indices, or the LookupError
        for w in all_perms(n):
            assert h_or_lookup_error(h_details, w) == h_or_lookup_error(h_details_by_tree, w)

    def test_identity_five(self):
        w = identity(5)
        h = injection_h(w)
        assert descents(h) == 1
        assert stack_sort_sim(h) == stack_sort_sim(w)
        assert revstack_sort_sim(h) == revstack_sort_sim(w)

    @pytest.mark.parametrize("n", [*range(1, 9), pytest.param(9, marks=pytest.mark.extended)])
    def test_left_inverse(self, n):
        # the inverse flips back the same vertices of h(w), so the theorem
        # pass reads injectivity one permutation at a time
        for w in all_perms(n):
            if descents(w) <= (n - 3) // 2:
                assert injection_h_inverse(injection_h(w)) == w, w

    def test_inverse_needs_a_prefix_with_one_more_right_edge(self):
        # the tree of 1..n is a pure left chain: right edges never lead
        with pytest.raises(LookupError):
            injection_h_inverse(identity(5))
        with pytest.raises(ValueError):
            injection_h_inverse(())

    def test_no_index_for_reversed_identity(self):
        # the tree of n...1 is a pure right chain: left edges never lead
        with pytest.raises(LookupError):
            injection_h((5, 4, 3, 2, 1))

    @pytest.mark.parametrize("n", [6, 7])
    def test_injective_with_preserved_images(self, n):
        for i in range((n - 3) // 2 + 1):
            images = {}
            for w in all_perms(n):
                if descents(w) != i:
                    continue
                h = injection_h(w)
                assert descents(h) == i + 1
                assert stack_sort_sim(h) == stack_sort_sim(w)
                assert revstack_sort_sim(h) == revstack_sort_sim(w)
                assert h not in images
                images[h] = w
