import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import fraction_real_roots
from revstack.polynomials import IntPoly, narayana_poly, w_revstack_nm2
from revstack.roots import (
    InterlacingReport,
    _sign,
    check_interlacing,
    format_decimal,
    real_roots,
)


def poly_from_roots(roots):
    p = IntPoly.from_coeffs([1])
    for r in roots:
        r = Fraction(r)
        p = p * IntPoly.from_coeffs([-r.numerator, r.denominator])
    return p


class TestReferenceExamples:
    def test_cubic(self):
        rep = real_roots(IntPoly.from_coeffs([0, 1, 4, 1]))
        assert rep.all_real and rep.nonpositive
        assert rep.approx_values() == ["-3.73205", "-0.26795", "0.00000"]

    def test_linear(self):
        rep = real_roots(IntPoly.from_coeffs([0, 1]))
        assert rep.all_real and rep.nonpositive
        assert len(rep.roots) == 1
        assert rep.roots[0].exact and rep.roots[0].lo == 0

    def test_quartic_with_rational_root(self):
        rep = real_roots(IntPoly.from_coeffs([0, 1, 10, 10, 1]))
        assert rep.all_real and rep.nonpositive
        vals = [float(v) for v in rep.approx_values()]
        for got, want in zip(vals, [-8.88748, -1.0, -0.11252, 0.0]):
            assert abs(got - want) < 1e-4
        # -1 is bracketed by its interval; 0 is stripped out exactly
        assert any(r.lo <= -1 <= r.hi for r in rep.roots)
        assert any(r.exact and r.lo == 0 for r in rep.roots)

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError):
            real_roots(IntPoly.zero())


class TestMultiplicityAndRealness:
    def test_multiple_root(self):
        # x (x+1)^2
        p = IntPoly.from_coeffs([0, 1, 2, 1])
        rep = real_roots(p)
        assert rep.all_real and rep.nonpositive
        mults = {(r.lo, r.multiplicity) for r in rep.roots if r.exact}
        assert (Fraction(-1), 2) in mults
        assert (Fraction(0), 1) in mults

    def test_complex_pair_detected(self):
        # x (x^2 + 1)
        rep = real_roots(IntPoly.from_coeffs([0, 1, 0, 1]))
        assert not rep.all_real
        assert rep.nonpositive

    def test_positive_root_detected(self):
        rep = real_roots(IntPoly.from_coeffs([-2, 0, 1]))  # x^2 - 2
        assert rep.all_real
        assert not rep.nonpositive

    def test_triple_root(self):
        p = poly_from_roots([-2, -2, -2, 0])
        rep = real_roots(p)
        assert rep.all_real and rep.nonpositive
        assert any(r.lo <= -2 <= r.hi and r.multiplicity == 3 for r in rep.roots)

    def test_constant_polynomial(self):
        rep = real_roots(IntPoly.from_coeffs([5]))
        assert rep.all_real and rep.nonpositive and rep.roots == ()


class TestWidthAndFormatting:
    def test_width_honoured(self):
        width = Fraction(1, 1000)
        rep = real_roots(IntPoly.from_coeffs([0, 1, 4, 1]), width)
        for r in rep.roots:
            assert r.hi - r.lo <= width

    @pytest.mark.parametrize("width", [Fraction(0), Fraction(-1), Fraction(-1, 3)])
    def test_non_positive_width_rejected(self, width):
        with pytest.raises(ValueError, match="width must be positive"):
            real_roots(IntPoly.from_coeffs([0, 1, 4, 1]), width)

    def test_format_decimal(self):
        assert format_decimal(Fraction(-1)) == "-1.00000"
        assert format_decimal(Fraction(1, 3)) == "0.33333"
        # round-half-even at the boundary digit
        assert format_decimal(Fraction(25, 10**6)) == "0.00002"
        assert format_decimal(Fraction(35, 10**6)) == "0.00004"

    def test_report_json_shape(self):
        rep = real_roots(IntPoly.from_coeffs([0, 1]))
        blob = rep.to_json()
        assert set(blob) == {"all_real", "nonpositive", "roots"}
        assert set(blob["roots"][0]) == {"lo", "hi", "approx", "mult"}


class TestSturmAdditivity:
    @given(st.data())
    @settings(deadline=None, max_examples=40)
    def test_product_counts_add(self, data):
        pool = list(range(-8, 9))
        random.shuffle(pool)
        ra = data.draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
        rb = data.draw(
            st.lists(
                st.sampled_from([v for v in pool if v not in ra]),
                min_size=1, max_size=3, unique=True,
            )
        )
        p, q = poly_from_roots(ra), poly_from_roots(rb)
        rep_p = real_roots(p) if p.degree > 0 else None
        na = len(real_roots(p).roots) if p.degree > 0 else 0
        nb = len(real_roots(q).roots)
        nprod = len(real_roots(p * q).roots)
        assert nprod == na + nb


def w_nm2(n):
    """Descent polynomial of the (n-2)-revstack-sortable permutations of
    S_n: the closed form for n >= 4, and for n = 3 the 132-avoiders."""
    return narayana_poly(3) if n == 3 else w_revstack_nm2(n)


class TestInterlacing:
    def test_reference_range(self):
        for n in range(3, 10):
            report = check_interlacing(w_nm2(n), w_nm2(n + 1))
            assert report.ok, (n, report.detail)

    def test_reports_are_typed(self):
        assert isinstance(check_interlacing(w_nm2(4), w_nm2(5)), InterlacingReport)

    def test_failure_non_real(self):
        p = IntPoly.from_coeffs([0, 1, 0, 1])  # x(x^2+1)
        q = poly_from_roots([0, -1, -3])
        report = check_interlacing(p, q)
        assert not report.ok
        assert "non-real" in report.detail

    def test_failure_wrong_ordering(self):
        p = poly_from_roots([0, -1, -3])
        q = poly_from_roots([0, -2, -4, -6])
        report = check_interlacing(p, q)
        assert not report.ok
        assert "ordering violated" in report.detail

    def test_failure_shared_root(self):
        p = poly_from_roots([0, -1, -2])
        q = poly_from_roots([0, -1, -3, -5])
        report = check_interlacing(p, q)
        assert not report.ok
        assert "separate" in report.detail

    def test_failure_wrong_count(self):
        p = poly_from_roots([0, -1])
        q = poly_from_roots([0, -2, -3, -4])
        report = check_interlacing(p, q)
        assert not report.ok
        assert "expected" in report.detail

    def test_good_pair(self):
        p = poly_from_roots([0, -2, -4])
        q = poly_from_roots([0, -1, -3, -5])
        assert check_interlacing(p, q).ok


class TestSign:
    @given(
        st.lists(st.integers(-50, 50), max_size=8),
        st.one_of(
            st.tuples(st.integers(-60, 60), st.integers(1, 40)),
            # Dyadic points u/2^e with u unreduced, as the bisection passes them.
            st.tuples(st.integers(-10**6, 10**6), st.integers(0, 40).map(lambda e: 1 << e)),
        ),
        st.booleans(),
    )
    @example([], (3, 2), False)
    @example([1, 2, 1], (-1, 1), True)
    @example([1, 2, 1], (-4, 4), True)
    @settings(deadline=None, max_examples=200)
    def test_sign_is_the_sign_of_the_value(self, coeffs, point, through_x):
        u, v = point
        x = Fraction(u, v)
        f = IntPoly.from_coeffs(coeffs)
        if through_x:
            # A factor v X - u makes x = u/v an exact root.
            f = f * IntPoly.from_coeffs([-x.numerator, x.denominator])
        value = f(x)
        assert _sign(f, u, v) == (value > 0) - (value < 0)
        if through_x:
            assert _sign(f, u, v) == 0


class TestBisectionOracle:
    """real_roots against the bisection on Fraction endpoints in
    tests/oracles.py: the same report, every endpoint included."""

    @given(
        st.dictionaries(
            st.builds(Fraction, st.integers(-20, 20), st.sampled_from([1, 2, 3, 5, 7])),
            st.integers(1, 3), min_size=1, max_size=5,
        ),
        st.sampled_from([None, 1, 2, 5]),
        st.sampled_from([Fraction(1, 10**7), Fraction(1, 1000), Fraction(1, 3)]),
    )
    # (x + 3)(x + 1) has Cauchy bound 6: bisecting (-6, 0) lands on the root
    # -3, and the first collar, (-9/2, -3/2), holds it alone.
    @example({Fraction(-3): 1, Fraction(-1): 1}, None, Fraction(1, 3))
    # (x + 3)(x + 2) has Cauchy bound 8: bisecting (-4, 0) lands on the root
    # -2; the first collar ends on -3, so it shrinks once.
    @example({Fraction(-3): 1, Fraction(-2): 1}, None, Fraction(1, 3))
    # Cauchy bound 28: bisection lands on -7/2, and its collar shrinks twice
    # before it holds that root alone.
    @example({Fraction(-7, 2): 1, Fraction(-3): 1, Fraction(-5, 2): 1}, None, Fraction(1, 10**7))
    # The same collar around a double root, shrunk once to shed -2.
    @example({Fraction(-7, 2): 2, Fraction(-2): 1}, None, Fraction(1, 1000))
    @settings(deadline=None, max_examples=60)
    def test_report_matches_fraction_bisection(self, mults, quad, width):
        p = poly_from_roots([r for r, m in mults.items() for _ in range(m)])
        if quad is not None:
            p = p * IntPoly.from_coeffs([quad, 0, 1])
        assert real_roots(p, width) == fraction_real_roots(p, width)


class TestKnownRootOracle:
    """Polynomials built from known roots; the roots are the only oracle."""

    @given(
        st.dictionaries(
            st.builds(Fraction, st.integers(-20, 20), st.sampled_from([1, 2, 3, 5, 7])),
            st.integers(1, 3), min_size=1, max_size=5,
        ),
        st.sampled_from([None, 1, 2, 5]),
        st.sampled_from([1, -1, 3]),
        st.sampled_from([Fraction(1, 10**7), Fraction(1, 1000), Fraction(1, 3)]),
    )
    # A Sturm chain whose degree drops by two: pseudo-division by lc(g)^3
    # instead of |lc(g)|^3 would flip the sign of the next term.
    @example({Fraction(-2): 1, Fraction(2, 3): 1}, 2, 1, Fraction(1, 10**7))
    # Roots of different multiplicities closer together than the width:
    # each needs its own interval, and the multiplicity of the one
    # square-free part that changes sign on it.
    @example({Fraction(2): 1, Fraction(11, 5): 2}, 1, 1, Fraction(1, 3))
    @example({Fraction(1, 7): 1, Fraction(1, 5): 3}, None, 1, Fraction(1, 3))
    @example({Fraction(2, 3): 1, Fraction(3, 2): 1, Fraction(1): 3}, None, 1, Fraction(1, 3))
    @example({Fraction(5, 2): 1, Fraction(17, 7): 2}, None, -1, Fraction(1, 3))
    # A rational double root that bisection of the square-free kernel
    # (2x - 1)(x - 1) brackets but never hits: its part 2x - 1 changes sign.
    @example({Fraction(1, 2): 2, Fraction(1): 1}, None, 1, Fraction(1, 10**7))
    @settings(deadline=None, max_examples=60)
    def test_isolation_brackets_known_roots(self, mults, quad, scale, width):
        p = poly_from_roots([r for r, m in mults.items() for _ in range(m)]) * scale
        if quad is not None:
            p = p * IntPoly.from_coeffs([quad, 0, 1])  # x^2 + quad: no real root
        rep = real_roots(p, width)
        assert rep.all_real == (quad is None)
        assert rep.nonpositive == all(r <= 0 for r in mults)
        assert len(rep.roots) == len(mults)
        # Sorted intervals are pairwise disjoint; they may share an endpoint.
        assert all(a.hi <= b.lo for a, b in zip(rep.roots, rep.roots[1:])), rep
        for root, m in mults.items():
            # A non-exact interval holds its root strictly inside.
            hits = [iv for iv in rep.roots if iv.lo == root == iv.hi or iv.lo < root < iv.hi]
            assert [iv.multiplicity for iv in hits] == [m], (root, rep)
        assert all(iv.hi - iv.lo <= width for iv in rep.roots)

    @given(st.data())
    @settings(deadline=None, max_examples=60)
    def test_interlacing_verdict_matches_known_roots(self, data):
        if data.draw(st.booleans()):
            vals = sorted(data.draw(st.sets(st.integers(-15, -1), min_size=1, max_size=7)))
            proots, qroots = set(vals[1::2]), set(vals[0::2])
        else:
            proots = data.draw(st.sets(st.integers(-15, -1), max_size=4))
            qroots = data.draw(st.sets(st.integers(-15, -1), max_size=5))
        owners = [owner for _, owner in sorted(
            [(r, "p") for r in proots] + [(r, "q") for r in qroots]
        )]
        expected = (not proots and len(qroots) <= 1) or (
            not proots & qroots and owners == ["q", "p"] * len(proots) + ["q"]
        )
        p = poly_from_roots(sorted(proots) + [0])
        q = poly_from_roots(sorted(qroots) + [0])
        assert check_interlacing(p, q).ok == expected
