import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from revstack.perms import deg_revstack, descents
from revstack.polynomials import (
    IntPoly,
    count_revstack_nm2,
    count_revstack_nm3,
    count_revstack_nm3_sixterm,
    count_stack_nm2,
    count_stack_nm3,
    counting_inequalities_hold,
    d_poly,
    degree_nm2_contributions,
    eulerian_poly,
    format_poly,
    is_log_concave,
    is_symmetric,
    is_unimodal,
    l_poly,
    narayana_poly,
    w_revstack_nm2,
    w_revstack_nm3,
    w_revstack_nm3_from_contributions,
)


def descent_polynomial(words):
    coeffs = [0] * 16
    for w in words:
        coeffs[1 + descents(w)] += 1
    return IntPoly.from_coeffs(coeffs)


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


class TestIntPoly:
    def test_normalisation(self):
        assert IntPoly.from_coeffs([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly.from_coeffs([0, 0]).coeffs == ()
        assert IntPoly.zero().is_zero()
        assert IntPoly.x_power(3, 2).coeffs == (0, 0, 0, 2)

    def test_degree_and_indexing(self):
        p = IntPoly.from_coeffs([0, 1, 4, 1])
        assert p.degree == 3
        assert p[2] == 4
        assert p[7] == 0
        # iteration ends at the last coefficient, although indexing past it gives 0
        assert list(p) == list(p.coeffs)
        assert list(IntPoly.zero()) == []

    @given(
        st.lists(st.integers(-9, 9), max_size=6),
        st.lists(st.integers(-9, 9), max_size=6),
        st.integers(-5, 5),
    )
    def test_ring_operations_respect_evaluation(self, a, b, x):
        p, q = IntPoly.from_coeffs(a), IntPoly.from_coeffs(b)
        assert (p + q)(x) == p(x) + q(x)
        assert (p - q)(x) == p(x) - q(x)
        assert (p * q)(x) == p(x) * q(x)
        assert (3 * p)(x) == 3 * p(x)

    def test_halve(self):
        assert IntPoly.from_coeffs([2, 4]).halve().coeffs == (1, 2)
        with pytest.raises(ArithmeticError):
            IntPoly.from_coeffs([1, 2]).halve()

    def test_format(self):
        assert format_poly(IntPoly.from_coeffs([0, 1, 4, 1])) == "x^3 + 4x^2 + x"
        assert format_poly(IntPoly.from_coeffs([0, 1])) == "x"
        assert format_poly(IntPoly.zero()) == "0"
        assert format_poly(IntPoly.from_coeffs([3, -1])) == "-x + 3"

    def test_json(self):
        assert IntPoly.from_coeffs([0, 1, 4, 1]).to_json() == {"coeffs": [0, 1, 4, 1]}


class TestEulerian:
    def test_base_cases(self):
        assert eulerian_poly(0).coeffs == (1,)
        assert eulerian_poly(1).coeffs == (0, 1)
        assert str(eulerian_poly(3)) == "x^3 + 4x^2 + x"
        assert str(eulerian_poly(5)) == "x^5 + 26x^4 + 66x^3 + 26x^2 + x"

    def test_against_enumeration(self):
        for n in range(1, 8):
            assert eulerian_poly(n) == descent_polynomial(all_perms(n))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            eulerian_poly(-1)


class TestNarayana:
    def test_examples(self):
        assert narayana_poly(1).coeffs == (0, 1)
        assert str(narayana_poly(4)) == "x^4 + 6x^3 + 6x^2 + x"
        assert str(narayana_poly(6)) == "x^6 + 15x^5 + 50x^4 + 50x^3 + 15x^2 + x"

    def test_against_one_pass_enumeration(self):
        for n in range(1, 8):
            words = [w for w in all_perms(n) if deg_revstack(w) <= 1]
            assert narayana_poly(n) == descent_polynomial(words)

    def test_coefficient_symmetry(self):
        for n in range(1, 10):
            p = narayana_poly(n)
            assert is_symmetric(p, n)


class TestDandL:
    def test_small_values(self):
        assert d_poly(2).coeffs == (0, 1)
        assert d_poly(3).coeffs == (0, 1, 2)

    def test_against_enumeration(self):
        for n in range(2, 8):
            words = [w for w in all_perms(n) if w.index(n) > w.index(n - 1)]
            assert d_poly(n) == descent_polynomial(words)
            others = [w for w in all_perms(n) if w.index(n) < w.index(n - 1)]
            assert l_poly(n) == descent_polynomial(others)

    def test_partition_of_eulerian(self):
        for n in range(2, 12):
            assert d_poly(n) + l_poly(n) == eulerian_poly(n)

    def test_n1_has_no_second_value(self):
        # the halved-convolution identity would yield 1/2 at n = 1, and the
        # left/right-of-(n-1) sets are ill-defined there: both polynomials
        # reject it by their bound
        for poly in (d_poly, l_poly):
            with pytest.raises(ValueError, match="n must be at least 2"):
                poly(1)

    def test_half_of_all(self):
        for n in range(2, 12):
            assert 2 * d_poly(n)(1) == eulerian_poly(n)(1)


class TestClosedForms:
    def test_appendix_values(self):
        assert str(w_revstack_nm2(5)) == "x^5 + 25x^4 + 64x^3 + 25x^2 + x"
        assert str(w_revstack_nm3(5)) == "x^5 + 20x^4 + 49x^3 + 20x^2 + x"
        assert str(w_revstack_nm3(6)) == "x^6 + 50x^5 + 267x^4 + 267x^3 + 50x^2 + x"
        assert str(w_revstack_nm2(4)) == "x^4 + 10x^3 + 10x^2 + x"
        assert str(w_revstack_nm2(6)) == "x^6 + 56x^5 + 297x^4 + 297x^3 + 56x^2 + x"

    def test_preconditions(self):
        for bad in (0, 1, 2, 3):
            with pytest.raises(ValueError):
                w_revstack_nm2(bad)
            with pytest.raises(ValueError):
                w_revstack_nm3(bad)

    def test_displayed_form_equals_case_total(self):
        for n in range(4, 11):
            assert w_revstack_nm3(n) == w_revstack_nm3_from_contributions(n)

    def test_contributions_keys(self):
        c = degree_nm2_contributions(5)
        assert set(c) == {"a-left", "a-right", "b", "c", "d-odd", "d-even"}
        total = sum(p(1) for p in c.values())
        assert total == count_revstack_nm2(5) - count_revstack_nm3(5) == 25


class TestCounts:
    def test_spot_values(self):
        assert count_revstack_nm2(5) == 116
        assert count_revstack_nm3(5) == 91
        assert count_stack_nm2(5) == 114
        assert count_stack_nm3(5) == 91

    def test_counts_match_polynomials(self):
        for n in range(4, 11):
            assert count_revstack_nm2(n) == w_revstack_nm2(n)(1)
            assert count_revstack_nm3(n) == w_revstack_nm3(n)(1)

    def test_sixterm_equals_compact(self):
        for n in range(4, 13):
            assert count_revstack_nm3_sixterm(n) == count_revstack_nm3(n)

    def test_coefficient_sums_match_reference(self):
        assert count_revstack_nm2(5) == 1 + 25 + 64 + 25 + 1
        assert count_revstack_nm3(5) == 1 + 20 + 49 + 20 + 1

    def test_inequalities(self):
        for n in range(2, 31):
            assert counting_inequalities_hold(n)

    def test_stack_vs_revstack_ordering(self):
        for n in range(4, 13):
            assert count_stack_nm2(n) <= count_revstack_nm2(n)
            assert count_stack_nm3(n) <= count_revstack_nm3(n)
        for n in range(5, 13):
            assert count_stack_nm2(n) < count_revstack_nm2(n)
        for n in range(6, 13):
            assert count_stack_nm3(n) < count_revstack_nm3(n)


class TestPredicates:
    def test_reference_polynomial(self):
        p = IntPoly.from_coeffs([0, 1, 20, 49, 20, 1])
        assert is_symmetric(p, 5)
        assert is_unimodal(p)
        assert is_log_concave(p)

    def test_monomial(self):
        p = IntPoly.from_coeffs([0, 1])
        assert is_symmetric(p, 1)
        assert is_unimodal(p)
        assert is_log_concave(p)

    def test_constructed_counterexamples(self):
        p = IntPoly.from_coeffs([1, 1, 3])
        assert is_unimodal(p)          # nondecreasing is unimodal
        assert not is_log_concave(p)   # 1*1 < 1*3
        assert not is_symmetric(IntPoly.from_coeffs([0, 1, 2]), 2)
        assert not is_unimodal(IntPoly.from_coeffs([2, 1, 2]))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_unimodal(IntPoly.zero())
