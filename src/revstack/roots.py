"""Exact real-root counting, isolation, and refinement via Sturm sequences.

Polynomials are ``IntPoly`` with integer coefficients throughout.  Division
is pseudo-division by the absolute leading coefficient, and every Sturm
term and gcd is divided by the positive gcd of its coefficients, so each is
a positive multiple of its classical rational counterpart with the same
signs.  Evaluation returns signs only: the sign of f(u/v) is that of
v^d f(u/v), computed by Horner's rule in integers.  Isolation runs on the
square-free kernel (the product of the square-free parts) with one Sturm
chain, so the intervals are disjoint from the start; each root's
multiplicity is that of the one square-free part that vanishes or changes
sign on its interval.  Bisection starts from an integer Cauchy bound, so
every point it visits is dyadic: an interval is two integer numerators
over one power of two 2^e, and a ``Fraction`` is built only for a reported
interval.  The Sturm chain is evaluated once at each new point (a midpoint
or a collar end), and the sign-variation counts at an interval's ends are
passed down to its halves, so each half's root count is one subtraction.
Reported decimal approximations are rounded half-even to five places.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from .polynomials import IntPoly

DEFAULT_WIDTH = Fraction(1, 10**7)


def _sign(f: IntPoly, u: int, v: int) -> int:
    """The sign (-1, 0 or 1) of f(u/v) for v > 0, from v^d f(u/v) in
    integers."""
    acc, scale = 0, 1
    for c in reversed(f.coeffs):
        acc = acc * u + c * scale
        scale *= v
    return (acc > 0) - (acc < 0)


def poly_derivative(f: IntPoly) -> IntPoly:
    return IntPoly.from_coeffs([i * c for i, c in enumerate(f.coeffs)][1:])


def _primitive(f: IntPoly) -> IntPoly:
    """f divided by the positive gcd of its coefficients."""
    g = math.gcd(*f.coeffs)
    return IntPoly(tuple(c // g for c in f.coeffs)) if g > 1 else f


def _pseudo_divmod(f: IntPoly, g: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Quotient and remainder of |lc(g)|^k f by g (g nonzero), where
    k = max(deg f - deg g + 1, 0).  Both are positive multiples of the
    rational quotient and remainder of f by g."""
    dg = g.degree
    lead = abs(g.coeffs[-1])
    sign = 1 if g.coeffs[-1] > 0 else -1
    r = list(f.coeffs)
    q = [0] * max(len(r) - dg, 0)
    for j in reversed(range(len(q))):
        # lead * r - c x^j g cancels the x^(j+dg) term, since c lc(g) = lead r[j+dg].
        c = sign * r[j + dg]
        q = [lead * a for a in q]
        q[j] = c
        r = [lead * a for a in r[:j + dg]]
        for i, b in enumerate(g.coeffs[:-1]):
            r[j + i] -= c * b
    return IntPoly.from_coeffs(q), IntPoly.from_coeffs(r)


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Greatest common divisor, primitive with a positive leading coefficient."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    a = _primitive(a)
    return a * -1 if a.coeffs and a.coeffs[-1] < 0 else a


def poly_div_exact(f: IntPoly, g: IntPoly) -> IntPoly:
    """Quotient of f by a divisor g in Z[x]; raises ArithmeticError when g
    does not divide f there."""
    q, r = _pseudo_divmod(f, g)
    scale = abs(g.coeffs[-1]) ** max(f.degree - g.degree + 1, 0)
    if not r.is_zero() or any(c % scale for c in q.coeffs):
        raise ArithmeticError("inexact polynomial division")
    return IntPoly(tuple(c // scale for c in q.coeffs))


def square_free_parts(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """Decompose f into square-free factors with multiplicities by the
    repeated derivative-gcd chain: c_i = (gcd chain quotients) collects the
    roots of multiplicity >= i, and consecutive quotients separate exact
    multiplicities.  Each factor is primitive with a positive leading
    coefficient."""
    if f.degree < 1:
        return []
    chain = [poly_gcd(f, IntPoly.zero())]  # f, primitive with a positive lead
    while chain[-1].degree > 0:
        chain.append(poly_gcd(chain[-1], poly_derivative(chain[-1])))
    # c_i = chain[i-1] / chain[i] has the distinct roots of multiplicity >= i
    cs = [poly_div_exact(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    out = []
    for i in range(len(cs)):
        part = cs[i] if i == len(cs) - 1 else poly_div_exact(cs[i], cs[i + 1])
        if part.degree > 0:
            out.append((part, i + 1))
    return out


def sturm_chain(f: IntPoly) -> list[IntPoly]:
    """Sturm sequence of a nonzero f: f, f', then each negated remainder,
    every term scaled by a positive constant to a primitive polynomial."""
    chain = [_primitive(f), _primitive(poly_derivative(f))]
    while not chain[-1].is_zero():
        chain.append(_primitive(_pseudo_divmod(chain[-2], chain[-1])[1]) * -1)
    return chain[:-1]


def sign_variations(signs: Sequence[int]) -> int:
    """Sign changes along the sequence, zeros skipped."""
    nonzero = [s > 0 for s in signs if s]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)


def _signs(chain: list[IntPoly], u: int, v: int) -> list[int]:
    return [_sign(c, u, v) for c in chain]


def cauchy_bound(f: IntPoly) -> int:
    """Integer B with every real root in (-B, B): 2 + max|c_i| // |lead|."""
    *rest, lead = f.coeffs
    return 2 + max(map(abs, rest), default=0) // abs(lead)


@dataclass(frozen=True)
class RootInterval:
    """One isolated real root: lo == hi for an exact rational root, and
    otherwise the root lies strictly between lo and hi."""

    lo: Fraction
    hi: Fraction
    multiplicity: int

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def approx(self) -> str:
        return format_decimal(self.midpoint())

    def to_json(self) -> dict:
        return {
            "lo": str(self.lo),
            "hi": str(self.hi),
            "approx": self.approx(),
            "mult": self.multiplicity,
        }


def format_decimal(x: Fraction) -> str:
    """Round half-even to five decimal places."""
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(x.numerator) / Decimal(x.denominator)
        q = d.quantize(Decimal("0.00001"), rounding=ROUND_HALF_EVEN)
    return str(q)


@dataclass(frozen=True)
class RootReport:
    all_real: bool
    nonpositive: bool
    roots: tuple[RootInterval, ...]

    def approx_values(self) -> list[str]:
        out = []
        for r in self.roots:
            out.extend([r.approx()] * r.multiplicity)
        return out

    def to_json(self) -> dict:
        return {
            "all_real": self.all_real,
            "nonpositive": self.nonpositive,
            "roots": [r.to_json() for r in self.roots],
        }


def _isolate(chain: list[IntPoly], lo: int, hi: int, e: int, vlo: int, vhi: int,
             out: list[tuple[int, int, int]]) -> None:
    """Append to out, in ascending order, isolating intervals (a, b, e')
    for the roots inside (lo/2^e, hi/2^e) of the square-free polynomial
    chain[0]: the root lies in (a/2^e', b/2^e'), or is a/2^e' when a == b.
    Both endpoints must be non-roots; vlo and vhi are the chain's sign
    variations there."""
    k = vlo - vhi
    if k == 0:
        return
    if k == 1:
        out.append((lo, hi, e))
        return
    lo, hi, e = lo << 1, hi << 1, e + 1
    mid = (lo + hi) >> 1
    signs = _signs(chain, mid, 1 << e)
    if signs[0]:
        vmid = sign_variations(signs)
        _isolate(chain, lo, mid, e, vlo, vmid, out)
        _isolate(chain, mid, hi, e, vmid, vhi, out)
        return
    # Exact root at the midpoint: fence it off with a collar mid ± w, where
    # w starts at a quarter of the interval and halves until both ends are
    # non-roots with only the midpoint's root between them.  w = d/2^e for
    # the interval's numerator width d, once e is raised by two, and each
    # halving raises e by one more.
    d = hi - lo
    lo, hi, mid, e = lo << 2, hi << 2, mid << 2, e + 2
    while True:
        signs = _signs(chain, mid - d, 1 << e)
        if signs[0]:
            va = sign_variations(signs)
            signs = _signs(chain, mid + d, 1 << e)
            if signs[0]:
                vb = sign_variations(signs)
                if va - vb == 1:
                    break
        lo, hi, mid, e = lo << 1, hi << 1, mid << 1, e + 1
    _isolate(chain, lo, mid - d, e, vlo, va, out)
    out.append((mid, mid, e))
    _isolate(chain, mid + d, hi, e, vb, vhi, out)


def _refine(f: IntPoly, lo: int, hi: int, e: int, width: Fraction) -> tuple[int, int, int]:
    """Shrink a one-root sign-changing interval (lo/2^e, hi/2^e) to width
    at most width, as (lo', hi', e')."""
    if lo == hi:
        return lo, hi, e
    slo = _sign(f, lo, 1 << e)
    while (hi - lo) * width.denominator > width.numerator << e:
        lo, hi, e = lo << 1, hi << 1, e + 1
        mid = (lo + hi) >> 1
        smid = _sign(f, mid, 1 << e)
        if smid == 0:
            return mid, mid, e
        if smid != slo:
            hi = mid
        else:
            lo = mid
    return lo, hi, e


def real_roots(p: IntPoly, width: Fraction = DEFAULT_WIDTH) -> RootReport:
    """Isolate all real roots of p with multiplicities, refined to the
    requested interval width, and report exact realness/nonpositivity.

    >>> real_roots(IntPoly.from_coeffs([0, 1, 4, 1])).approx_values()
    ['-3.73205', '-0.26795', '0.00000']
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no root report")
    if width <= 0:
        raise ValueError(f"width must be positive (got {width})")
    zero_mult = next(i for i, c in enumerate(p.coeffs) if c)
    f = IntPoly(p.coeffs[zero_mult:])

    roots: list[RootInterval] = []
    if zero_mult:
        roots.append(RootInterval(Fraction(0), Fraction(0), zero_mult))

    if f.degree > 0:
        parts = square_free_parts(f)
        # The square-free kernel; primitive with a positive lead by Gauss's lemma.
        g = math.prod((part for part, _ in parts), start=IntPoly.from_coeffs([1]))
        chain = sturm_chain(g)
        bound = cauchy_bound(f)
        vneg, vzero, vpos = (sign_variations(_signs(chain, x, 1)) for x in (-bound, 0, bound))
        # 0 is not a root of f here, so split there: intervals never straddle 0.
        found: list[tuple[int, int, int]] = []
        _isolate(chain, -bound, 0, 0, vneg, vzero, found)
        _isolate(chain, 0, bound, 0, vzero, vpos, found)
        width = Fraction(width)
        for lo, hi, e in found:
            lo, hi, e = _refine(g, lo, hi, e, width)
            den = 1 << e
            # The one root in [lo, hi] is a simple root of exactly one part:
            # the part that vanishes at lo == hi or changes sign across (lo, hi).
            mult = next(m for part, m in parts if _sign(part, lo, den) * _sign(part, hi, den) <= 0)
            roots.append(RootInterval(Fraction(lo, den), Fraction(hi, den), mult))

    roots.sort(key=lambda r: (r.lo, r.hi))
    # No interval straddles 0, so a root is positive exactly when hi > 0.
    return RootReport(all_real=sum(r.multiplicity for r in roots) == p.degree,
                      nonpositive=all(r.hi <= 0 for r in roots), roots=tuple(roots))


@dataclass(frozen=True)
class InterlacingReport:
    ok: bool
    detail: str = ""


def check_interlacing(p: IntPoly, q: IntPoly) -> InterlacingReport:
    """Check that p and q both have all-real, simple, nonpositive roots
    including 0, that q has exactly one more negative root than p, and
    that ascending from the most negative root the owners strictly
    alternate q, p, q, ..., q.  A p with no negative root and a q with at
    most one have nothing to interlace, and pass.

    For the last check, P = p/x and Q = q/x then have simple negative
    roots, and they interlace exactly when gcd(P, Q) = 1 and the Wronskian
    W = P Q' - P' Q has no real root: Q/P is then strictly monotone between
    consecutive roots of P, so Q has one root in each of the deg P + 1 gaps.

    >>> check_interlacing(IntPoly.from_coeffs([0, 1, 3, 1]),
    ...                   IntPoly.from_coeffs([0, 1, 10, 10, 1])).ok
    True
    """
    for label, poly in (("first", p), ("second", q)):
        rep = real_roots(poly)
        if not rep.all_real:
            return InterlacingReport(False, f"{label} polynomial has non-real roots")
        if any(r.multiplicity != 1 for r in rep.roots):
            return InterlacingReport(False, f"{label} polynomial has a repeated root")
        if not rep.nonpositive:
            return InterlacingReport(False, f"{label} polynomial has a positive root")
        if not any(r.exact and r.lo == 0 for r in rep.roots):
            return InterlacingReport(False, f"{label} polynomial lacks the root 0")

    # Every root is real, simple and nonpositive, and 0 is one of them.
    pneg, qneg = p.degree - 1, q.degree - 1
    if pneg == 0 and qneg <= 1:
        return InterlacingReport(True, "degenerate: no interior roots to interlace")
    if qneg != pneg + 1:
        return InterlacingReport(
            False, f"expected {pneg + 1} negative roots in the second polynomial, got {qneg}"
        )

    P, Q = IntPoly(p.coeffs[1:]), IntPoly(q.coeffs[1:])
    if poly_gcd(P, Q).degree > 0:
        return InterlacingReport(False, "could not separate a root pair (common root?)")
    # deg Q = deg P + 1 >= 2, so W has degree 2 deg P and lead lc(P) lc(Q).
    W = P * poly_derivative(Q) - poly_derivative(P) * Q
    chain, bound = sturm_chain(W), cauchy_bound(W)
    if sign_variations(_signs(chain, -bound, 1)) != sign_variations(_signs(chain, bound, 1)):
        return InterlacingReport(False, "ordering violated")
    return InterlacingReport(True)
