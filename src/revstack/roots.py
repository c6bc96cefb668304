"""Exact real-root counting, isolation, and refinement via Sturm sequences.

All arithmetic is over ``fractions.Fraction``; bisection starts from an
integer Cauchy bound, so interval endpoints stay dyadic.  Multiplicities
come from square-free decomposition by repeated derivative-gcd.  Reported
decimal approximations are rounded half-even to five places.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from .polynomials import IntPoly, narayana_poly, w_revstack_nm2

FPoly = list[Fraction]

DEFAULT_WIDTH = Fraction(1, 10**7)


def _strip(f: FPoly) -> FPoly:
    while f and f[-1] == 0:
        f.pop()
    return f


def _to_fpoly(coeffs: Sequence) -> FPoly:
    return _strip([Fraction(c) for c in coeffs])


def poly_eval(f: FPoly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def poly_derivative(f: FPoly) -> FPoly:
    return _strip([i * c for i, c in enumerate(f)][1:])


def poly_rem(f: FPoly, g: FPoly) -> FPoly:
    """Remainder of f by g (g nonzero)."""
    r = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while len(r) - 1 >= dg and _strip(r):
        dr = len(r) - 1
        q = r[-1] / lg
        for i in range(dg + 1):
            r[dr - dg + i] -= q * g[i]
        r.pop()
        _strip(r)
    return r


def poly_monic(f: FPoly) -> FPoly:
    if not f:
        return f
    lead = f[-1]
    return [c / lead for c in f]


def poly_gcd(f: FPoly, g: FPoly) -> FPoly:
    a, b = list(f), list(g)
    while b:
        a, b = b, _strip(poly_rem(a, b))
    return poly_monic(a)


def poly_div_exact(f: FPoly, g: FPoly) -> FPoly:
    """Quotient of f by a known divisor g."""
    r = list(f)
    dg = len(g) - 1
    lg = g[-1]
    q = [Fraction(0)] * (len(f) - dg)
    while len(r) - 1 >= dg and _strip(r):
        dr = len(r) - 1
        c = r[-1] / lg
        q[dr - dg] = c
        for i in range(dg + 1):
            r[dr - dg + i] -= c * g[i]
        r.pop()
        _strip(r)
    if _strip(r):
        raise ArithmeticError("inexact polynomial division")
    return _strip(q)


def square_free_parts(f: FPoly) -> list[tuple[FPoly, int]]:
    """Decompose f into square-free factors with multiplicities by the
    repeated derivative-gcd chain: c_i = (gcd chain quotients) collects the
    roots of multiplicity >= i, and consecutive quotients separate exact
    multiplicities."""
    if len(f) <= 1:
        return []
    chain = [poly_monic(f)]
    while len(chain[-1]) > 1:
        g = poly_gcd(chain[-1], poly_derivative(chain[-1]))
        chain.append(g)
    # c_i = chain[i-1] / chain[i] has the distinct roots of multiplicity >= i
    cs = [poly_div_exact(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    out = []
    for i in range(len(cs)):
        part = cs[i] if i == len(cs) - 1 else poly_div_exact(cs[i], cs[i + 1])
        if len(part) > 1:
            out.append((part, i + 1))
    return out


def sturm_chain(f: FPoly) -> list[FPoly]:
    chain = [list(f), poly_derivative(f)]
    while chain[-1]:
        r = _strip(poly_rem(chain[-2], chain[-1]))
        if not r:
            break
        chain.append([-c for c in r])
    return [c for c in chain if c]


def sign_variations(values: Sequence[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_between(chain: list[FPoly], a: Fraction, b: Fraction) -> int:
    """Distinct real roots of the chain's polynomial in (a, b); requires
    that neither endpoint is a root."""
    va = sign_variations([poly_eval(c, a) for c in chain])
    vb = sign_variations([poly_eval(c, b) for c in chain])
    return va - vb


def cauchy_bound(f: FPoly) -> int:
    """Integer B with every real root in (-B, B)."""
    lead = abs(f[-1])
    m = max(abs(c) for c in f[:-1]) if len(f) > 1 else Fraction(0)
    b = 1 + m / lead
    return int(b) + 1


@dataclass(frozen=True)
class RootInterval:
    """One isolated real root: lo == hi for an exact rational root."""

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


def format_decimal(x: Fraction, places: int = 5) -> str:
    """Round half-even to a fixed number of decimal places."""
    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(x.numerator) / Decimal(x.denominator)
        q = d.quantize(Decimal(1).scaleb(-places), rounding=ROUND_HALF_EVEN)
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


def _isolate_square_free(f: FPoly, lo: Fraction, hi: Fraction,
                         chain: list[FPoly]) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for the roots of square-free f inside (lo, hi);
    both endpoints must be non-roots."""
    k = count_roots_between(chain, lo, hi)
    if k == 0:
        return []
    if k == 1:
        return [(lo, hi)]
    mid = (lo + hi) / 2
    if poly_eval(f, mid) == 0:
        # Exact root at the midpoint: fence it off with a shrinking collar.
        w = (hi - lo) / 4
        while True:
            a, b = mid - w, mid + w
            if (
                poly_eval(f, a) != 0
                and poly_eval(f, b) != 0
                and count_roots_between(chain, a, b) == 1
            ):
                break
            w /= 2
        return (
            _isolate_square_free(f, lo, a, chain)
            + [(mid, mid)]
            + _isolate_square_free(f, b, hi, chain)
        )
    return _isolate_square_free(f, lo, mid, chain) + _isolate_square_free(f, mid, hi, chain)


def _refine(f: FPoly, lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink a one-root sign-changing interval below the requested width."""
    if lo == hi:
        return lo, hi
    slo = poly_eval(f, lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        vmid = poly_eval(f, mid)
        if vmid == 0:
            return mid, mid
        if (slo > 0) != (vmid > 0):
            hi = mid
        else:
            lo, slo = mid, vmid
    return lo, hi


def real_roots(p: IntPoly | Sequence, width: Fraction = DEFAULT_WIDTH) -> RootReport:
    """Isolate all real roots of p with multiplicities, refined to the
    requested interval width, and report exact realness/nonpositivity.

    >>> real_roots(IntPoly.from_coeffs([0, 1, 4, 1])).approx_values()
    ['-3.73205', '-0.26795', '0.00000']
    """
    coeffs = list(p.coeffs) if isinstance(p, IntPoly) else list(p)
    f = _to_fpoly(coeffs)
    if not f:
        raise ValueError("the zero polynomial has no root report")
    degree = len(f) - 1

    roots: list[RootInterval] = []
    zero_mult = 0
    while f[0] == 0:
        zero_mult += 1
        f = f[1:]
    if zero_mult:
        roots.append(RootInterval(Fraction(0), Fraction(0), zero_mult))

    found = zero_mult
    positive = False
    if len(f) > 1:
        bound = Fraction(cauchy_bound(f))
        for part, mult in square_free_parts(f):
            chain = sturm_chain(part)
            # 0 is not a root of f here, so split there: intervals never straddle 0.
            neg = _isolate_square_free(part, -bound, Fraction(0), chain)
            pos = _isolate_square_free(part, Fraction(0), bound, chain)
            for lo, hi in neg + pos:
                lo, hi = _refine(part, lo, hi, width)
                roots.append(RootInterval(lo, hi, mult))
                found += mult
                if lo >= 0 and (lo, hi) != (0, 0):
                    positive = True

    roots.sort(key=lambda r: (r.lo, r.hi))
    return RootReport(all_real=(found == degree), nonpositive=not positive,
                      roots=tuple(roots))


def _disjoint(a: RootInterval, b: RootInterval) -> bool:
    return a.hi < b.lo or b.hi < a.lo


@dataclass(frozen=True)
class InterlacingReport:
    ok: bool
    n: int
    detail: str = ""


def _w_nm2_any(n: int) -> IntPoly:
    """Descent polynomial of the (n-2)-revstack-sortable set for any n >= 2:
    the closed form for n >= 4; for n = 3 that set is the 132-avoiders;
    for n = 2 it is just the identity permutation."""
    if n >= 4:
        return w_revstack_nm2(n)
    if n == 3:
        return narayana_poly(3)
    if n == 2:
        return IntPoly.from_coeffs([0, 1])
    raise ValueError("n must be at least 2")


def interlacing_pair_report(p: IntPoly, q: IntPoly, n: int,
                            width: Fraction = DEFAULT_WIDTH) -> InterlacingReport:
    """Check that p and q both have all-real, simple, nonpositive roots
    including 0, that q has exactly one more negative root than p, and
    that ascending from the most negative root the owners strictly
    alternate q, p, q, ..., q."""
    rp = real_roots(p, width)
    rq = real_roots(q, width)
    for label, rep in (("first", rp), ("second", rq)):
        if not rep.all_real:
            return InterlacingReport(False, n, f"{label} polynomial has non-real roots")
        if any(r.multiplicity != 1 for r in rep.roots):
            return InterlacingReport(False, n, f"{label} polynomial has a repeated root")
        if not rep.nonpositive:
            return InterlacingReport(False, n, f"{label} polynomial has a positive root")
        if not any(r.exact and r.lo == 0 for r in rep.roots):
            return InterlacingReport(False, n, f"{label} polynomial lacks the root 0")

    pneg = [r for r in rp.roots if r.hi < 0 or (not r.exact and r.lo < 0)]
    qneg = [r for r in rq.roots if r.hi < 0 or (not r.exact and r.lo < 0)]
    if not pneg and len(qneg) <= 1:
        return InterlacingReport(True, n, "degenerate: no interior roots to interlace")
    if len(qneg) != len(pneg) + 1:
        return InterlacingReport(
            False, n,
            f"expected {len(pneg) + 1} negative roots in the second polynomial, got {len(qneg)}",
        )

    # Refine until every p-interval is disjoint from every q-interval.
    fp = _to_fpoly(p.coeffs)
    fq = _to_fpoly(q.coeffs)
    for _ in range(300):
        overlap = None
        for a in pneg:
            for b in qneg:
                if not _disjoint(a, b):
                    overlap = (a, b)
                    break
            if overlap:
                break
        if overlap is None:
            break
        pneg = [
            r if r.exact else
            RootInterval(*_refine(fp, r.lo, r.hi, (r.hi - r.lo) / 2), r.multiplicity)
            for r in pneg
        ]
        qneg = [
            r if r.exact else
            RootInterval(*_refine(fq, r.lo, r.hi, (r.hi - r.lo) / 2), r.multiplicity)
            for r in qneg
        ]
    else:
        return InterlacingReport(False, n, "could not separate a root pair (common root?)")

    merged = sorted(
        [("p", r) for r in pneg] + [("q", r) for r in qneg], key=lambda t: t[1].lo
    )
    expected = ["q" if i % 2 == 0 else "p" for i in range(len(merged))]
    owners = [t[0] for t in merged]
    if owners != expected:
        return InterlacingReport(False, n, f"ordering violated: {owners}")
    return InterlacingReport(True, n)


def check_interlacing(n: int, width: Fraction = DEFAULT_WIDTH) -> InterlacingReport:
    """Verify that the degree-(n-2) descent polynomials at sizes n and n+1
    have all-real, distinct, nonpositive roots that strictly interlace:
    ascending from the most negative root the owners alternate
    (n+1), n, (n+1), n, ..., (n+1), with the shared simple root 0 last.

    n = 2 is degenerate (the smaller polynomial is plain x, with no
    negative roots) and only the realness/distinctness side is checked.
    """
    if n < 2:
        raise ValueError("interlacing check requires n >= 2")
    p = _w_nm2_any(n)
    q = _w_nm2_any(n + 1)
    if n == 2:
        # p = x has no negative roots, so there is nothing to interlace;
        # require only that both root sets are real, simple and nonpositive.
        for poly in (p, q):
            rep = real_roots(poly, width)
            if not (rep.all_real and rep.nonpositive) or any(
                r.multiplicity != 1 for r in rep.roots
            ):
                return InterlacingReport(False, n, "degenerate case failed root checks")
        return InterlacingReport(True, n, "degenerate case: no negative roots at size 2")
    report = interlacing_pair_report(p, q, n, width)
    if not report.ok:
        return report
    # The generic checker accepted, so every root is real and simple and
    # the root counts are the degrees; pin them too.
    expected = (n - 1) + 1 + n + 1
    got = p.degree + q.degree
    if got != expected:
        return InterlacingReport(False, n, f"expected {expected} roots total, found {got}")
    return report
