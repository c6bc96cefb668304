import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import witnesses_by_definition
from revstack.patterns import (
    PATTERN_132,
    REVSTACK_T2_BARRED,
    REVSTACK_T2_CLASSICAL,
    STACK_S2_BARRED,
    STACK_S2_CLASSICAL,
    Occurrence,
    PatternSpec,
    _occurrences,
    _report,
    _witnesses,
    avoids_132,
    check_sorted_132_witnesses,
    contains_barred,
    contains_classical,
    is_member_S2,
    is_member_T2,
    parse_pattern,
)
from revstack.perms import deg_revstack, deg_stack, revstack_sort_sim


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


CLASSICAL_ORACLE_PATTERNS = ("132", "2431", "2341", "2413", "3241", "24351")
# Bars in the middle, then bars in the first and last slot and on the
# smallest and largest letter, where the slot has no flank or no bound.
BARRED_ORACLE_PATTERNS = (
    "2415!3", "35!241", "2435!1", "1!32", "213!", "3!21", "231!", "21!", "1!",
)


def order_isomorphic(values, letters):
    return all(
        (letters[i] < letters[j]) == (values[i] < values[j])
        for i in range(len(letters))
        for j in range(i + 1, len(letters))
    )


def occurrences_by_brute_force(w, letters):
    """Every occurrence of the classical pattern letters in w, trying the
    position sets in the order itertools.combinations lists them, which is
    lexicographic."""
    for combo in itertools.combinations(range(1, len(w) + 1), len(letters)):
        values = tuple(w[i - 1] for i in combo)
        if order_isomorphic(values, letters):
            yield Occurrence(combo, values)


def first_unextendable_by_brute_force(w, pattern):
    """Oracle for contains_barred: the lexicographically first occurrence of
    the reduction whose positions are not those of some occurrence of the
    full pattern with the barred slot dropped."""
    bi = pattern.barred_index
    extendable = {
        occ.positions[: bi - 1] + occ.positions[bi:]
        for occ in occurrences_by_brute_force(w, pattern.letters)
    }
    return next(
        (occ for occ in occurrences_by_brute_force(w, pattern.reduction())
         if occ.positions not in extendable),
        None,
    )


class TestPatternSpec:
    def test_parse_forms(self):
        assert parse_pattern("2431").letters == (2, 4, 3, 1)
        assert parse_pattern("2431").barred_index is None
        p = parse_pattern("2 4 1 5! 3")
        assert p.letters == (2, 4, 1, 5, 3)
        assert p.barred_index == 4
        assert parse_pattern("2415!3") == p
        assert str(p) == "2 4 1 5! 3"

    def test_reduction(self):
        assert parse_pattern("2415!3").reduction() == (2, 4, 1, 3)
        assert parse_pattern("35!241").reduction() == (3, 2, 4, 1)
        assert parse_pattern("2435!1").reduction() == (2, 4, 3, 1)
        assert parse_pattern("2431").reduction() == (2, 4, 3, 1)

    def test_rejects(self):
        with pytest.raises(ValueError):
            parse_pattern("1! 2!")
        # str.isdigit accepts "²", but it is no decimal digit
        with pytest.raises(ValueError, match="cannot parse pattern from '1²'"):
            parse_pattern("1²")
        with pytest.raises(ValueError):
            PatternSpec((1, 1))
        with pytest.raises(ValueError):
            PatternSpec((1, 2), barred_index=3)


class TestClassical:
    def test_spec_examples(self):
        occ = contains_classical((4, 2, 5, 1, 3), PATTERN_132)
        assert occ.values == (2, 5, 3)
        assert occ.positions == (2, 3, 5)
        assert contains_classical((1, 2, 3, 4, 5), parse_pattern("21")) is None
        assert contains_classical((2, 4, 1, 5, 3), REVSTACK_T2_CLASSICAL) is None

    def test_lexicographically_least_positions(self):
        # two 21 occurrences; the earliest positions win
        occ = contains_classical((3, 1, 2), parse_pattern("21"))
        assert occ.positions == (1, 2)

    def test_brute_force_agreement(self):
        # the witness itself, not only containment: the least positions
        pats = [parse_pattern(s) for s in CLASSICAL_ORACLE_PATTERNS]
        for n in range(8):
            for w in all_perms(n):
                for p in pats:
                    brute = next(occurrences_by_brute_force(w, p.letters), None)
                    assert contains_classical(w, p) == brute, (w, str(p))

    @staticmethod
    def check_occurrence_order(sizes):
        # contains_barred takes the first unextendable occurrence, so the
        # whole order matters, not only its head
        pats = [parse_pattern(s) for s in CLASSICAL_ORACLE_PATTERNS]
        for n in sizes:
            for w in all_perms(n):
                for p in pats:
                    assert list(_occurrences(w, p.letters)) == list(
                        occurrences_by_brute_force(w, p.letters)
                    ), (w, str(p))

    def test_occurrence_order_matches_brute_force(self):
        self.check_occurrence_order(range(8))

    @pytest.mark.extended
    def test_occurrence_order_matches_brute_force_at_8(self):
        self.check_occurrence_order([8])

    def test_bar_rejected(self):
        with pytest.raises(ValueError):
            contains_classical((1, 2, 3), REVSTACK_T2_BARRED)


class TestBarred:
    def test_contained_24135(self):
        occ = contains_barred((2, 4, 1, 3, 5), REVSTACK_T2_BARRED)
        assert occ is not None
        assert occ.values == (2, 4, 1, 3)
        assert occ.positions == (1, 2, 3, 4)

    def test_avoided_24153(self):
        # the only 2413 occurrence extends via the 5 sitting inside the slot
        assert contains_barred((2, 4, 1, 5, 3), REVSTACK_T2_BARRED) is None

    def test_avoided_when_reduction_absent(self):
        assert contains_barred((1, 2, 3, 4, 5), REVSTACK_T2_BARRED) is None

    @staticmethod
    def check_witnesses(pattern, sizes):
        for n in sizes:
            for w in all_perms(n):
                assert contains_barred(w, pattern) == first_unextendable_by_brute_force(
                    w, pattern
                ), w

    @pytest.mark.parametrize("text", BARRED_ORACLE_PATTERNS)
    def test_witness_matches_brute_force_oracle(self, text):
        self.check_witnesses(parse_pattern(text), range(8))

    @pytest.mark.extended
    @pytest.mark.parametrize("text", BARRED_ORACLE_PATTERNS)
    def test_witness_matches_brute_force_oracle_at_8(self, text):
        self.check_witnesses(parse_pattern(text), [8])

    def test_barless_pattern_falls_back_to_classical(self):
        for n in range(6):
            for w in all_perms(n):
                assert contains_barred(w, REVSTACK_T2_CLASSICAL) == contains_classical(
                    w, REVSTACK_T2_CLASSICAL
                )

    def test_membership_examples(self):
        assert is_member_T2((2, 4, 1, 5, 3))
        assert not is_member_T2((2, 4, 1, 3, 5))
        assert is_member_T2((1, 2, 3, 4, 5))
        assert not is_member_S2((2, 3, 4, 1))
        assert is_member_S2((3, 5, 2, 4, 1))
        assert not is_member_S2((3, 2, 4, 1))
        # no word shorter than 4 holds a 4-letter pattern; of them only
        # 132 itself contains 132
        for n in range(4):
            for w in all_perms(n):
                assert is_member_T2(w) and is_member_S2(w), w
                assert avoids_132(w) == (w != (1, 3, 2)), w

    def test_t2_characterisation_exhaustive(self):
        for n in range(7):
            for w in all_perms(n):
                assert is_member_T2(w) == (deg_revstack(w) <= 2)

    def test_west_characterisation_exhaustive(self):
        for n in range(8):
            for w in all_perms(n):
                assert is_member_S2(w) == (deg_stack(w) <= 2)

    def test_barred_set_identity(self):
        # Av(243(5)1) and Av(241(5)3) intersected with Av(24351) is exactly
        # Av(2431, 241(5)3); the 24351 pattern is what covers a bare 2431.
        b2435_1 = parse_pattern("2435!1")
        p24351 = parse_pattern("24351")
        for n in range(7):
            for w in all_perms(n):
                lhs = (
                    contains_barred(w, b2435_1) is None
                    and contains_barred(w, REVSTACK_T2_BARRED) is None
                    and contains_classical(w, p24351) is None
                )
                assert lhs == is_member_T2(w)


def member_by_engine(w, classical, barred):
    return contains_classical(w, classical) is None and contains_barred(w, barred) is None


def check_scans_match_engine(w):
    assert avoids_132(w) == (contains_classical(w, PATTERN_132) is None), w
    assert is_member_T2(w) == member_by_engine(w, REVSTACK_T2_CLASSICAL, REVSTACK_T2_BARRED), w
    assert is_member_S2(w) == member_by_engine(w, STACK_S2_CLASSICAL, STACK_S2_BARRED), w


class TestMembershipScans:
    """avoids_132, is_member_T2 and is_member_S2 scan for their patterns
    directly; the backtracking engine is their reference."""

    def test_scans_match_engine(self):
        for n in range(9):
            for w in all_perms(n):
                check_scans_match_engine(w)

    @pytest.mark.extended
    def test_scans_match_engine_at_9(self):
        for w in all_perms(9):
            check_scans_match_engine(w)

    # In the first two examples the 100 and the 50 sit in the bar slot,
    # above the 4, so neither word contains its barred pattern.
    @given(st.lists(st.integers(-20, 20), unique=True, max_size=9))
    @example([2, 4, 1, 100, 3])
    @example([3, 50, 2, 4, 1])
    @example([-3, -1, -4, 0, -2])
    @settings(max_examples=500, deadline=None)
    def test_scans_match_engine_on_any_distinct_integers(self, word):
        # no sentinel may stand in for "no value": 0, the length and the
        # length + 1 are all possible letters here
        w = tuple(word)
        check_scans_match_engine(w)
        for text in BARRED_ORACLE_PATTERNS:
            pattern = parse_pattern(text)
            assert contains_barred(w, pattern) == first_unextendable_by_brute_force(w, pattern)


@st.composite
def perm_and_pattern(draw):
    n = draw(st.integers(1, 8))
    w = tuple(draw(st.permutations(range(1, n + 1))))
    p = draw(st.sampled_from(["132", "21", "2431", "2413", "2341", "1234"]))
    return w, parse_pattern(p)


class TestWitnessValidity:
    @given(perm_and_pattern())
    @settings(deadline=None)
    def test_returned_occurrence_is_valid(self, case):
        w, p = case
        occ = contains_classical(w, p)
        if occ is None:
            return
        assert isinstance(occ, Occurrence)
        assert all(a < b for a, b in zip(occ.positions, occ.positions[1:]))
        assert tuple(w[i - 1] for i in occ.positions) == occ.values
        # order isomorphism
        for i in range(len(p.letters)):
            for j in range(i + 1, len(p.letters)):
                assert (p.letters[i] < p.letters[j]) == (occ.values[i] < occ.values[j])

    def test_occurrence_json(self):
        occ = contains_classical((4, 2, 5, 1, 3), PATTERN_132)
        assert occ.to_json() == {"positions": [2, 3, 5], "values": [2, 5, 3]}


class TestSorted132Witnesses:
    def test_24135(self):
        report = check_sorted_132_witnesses((2, 4, 1, 3, 5))
        assert report.holds
        assert any(w.kind == "2413-unextendable" for w in report.witnesses)

    def test_identity_vacuous(self):
        report = check_sorted_132_witnesses((1, 2, 3, 4, 5))
        assert report.holds
        assert report.witnesses == ()

    def test_exhaustive(self):
        for n in range(7):
            for w in all_perms(n):
                assert check_sorted_132_witnesses(w).holds

    def test_matches_the_definition_on_every_pair(self):
        # every (sigma, tau) in S_n x S_n, so most pairs take the failing
        # path and report a failed triple
        for n in range(6):
            for sigma in all_perms(n):
                for tau in all_perms(n):
                    report = _report(sigma, tau)
                    assert report == witnesses_by_definition(sigma, tau)
                    # the theorem pass reads only whether every d is found
                    assert all(d is not None for *_, d in _witnesses(sigma, tau)) == report.holds

    def test_shifted_letters_give_shifted_witnesses(self):
        # the check reads only the order of the letters: shifted down to
        # letters <= 0, where a real d can be 0 and a max can be below 0,
        # a word gives the same verdict and the shifted witnesses
        for n in range(3, 7):
            for w in all_perms(n):
                report = check_sorted_132_witnesses(w)
                for k in (1, 3, n):
                    down = [tuple(v - k for v in triple)
                            for triple in (*(x.triple for x in report.witnesses),
                                           report.failed_triple or ())]
                    shifted = check_sorted_132_witnesses(tuple(v - k for v in w))
                    assert shifted.holds == report.holds, (w, k)
                    assert shifted.witnesses == tuple(
                        x._replace(triple=triple, d=x.d - k)
                        for x, triple in zip(report.witnesses, down)), (w, k)
                    assert shifted.failed_triple == (down[-1] or None), (w, k)

    def test_matches_the_definition_on_sorted_images(self):
        for n in range(8):
            for w in all_perms(n):
                t = revstack_sort_sim(w)
                assert _report(w, t) == witnesses_by_definition(w, t), w
