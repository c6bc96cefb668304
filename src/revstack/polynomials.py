"""Exact integer polynomials and the closed-form descent polynomials.

Every descent polynomial here follows the convention that a permutation
with d descents contributes x^(1+d), so a polynomial over a subset of S_n
has zero constant term and degree at most n.

The named polynomials:

- eulerian_poly(n): the descent polynomial of all of S_n (A_n), computed
  by the Eulerian triangle recurrence, with A_0 = 1;
- narayana_poly(n): the descent polynomial of the 132-avoiders, i.e. the
  permutations sorted by one revstack pass;
- d_poly(n) / l_poly(n): descent polynomials of the permutations having n
  to the right (resp. left) of n-1, via the exact halved convolution
  identity D_n = (1/2) sum_i C(n-1,i) A_i A_{n-1-i};
- w_revstack_nm2(n), w_revstack_nm3(n): closed forms for the descent
  polynomials of the permutations sorted by n-2 (resp. n-3) revstack
  passes.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Iterator, Sequence


class IntPoly:
    """Dense exact-integer polynomial; coeffs[i] is the coefficient of x^i.

    An immutable value, equal only to an IntPoly with the same coeffs.  It
    is not a tuple subclass: that would take tuple's len, and pickling
    would rebuild it through the overridden __iter__."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle's default would restore the slot through __setattr__
        return self.__class__, (self.coeffs,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly(coeffs={self.coeffs!r})"

    @staticmethod
    def from_coeffs(coeffs: Sequence[int]) -> "IntPoly":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPoly(tuple(cs))

    @staticmethod
    def zero() -> "IntPoly":
        return IntPoly(())

    @staticmethod
    def x_power(k: int, coeff: int = 1) -> "IntPoly":
        return IntPoly.from_coeffs([0] * k + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __iter__(self) -> Iterator[int]:
        # __getitem__ gives 0 past the end, so iteration must not use it.
        return iter(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        m = max(len(self.coeffs), len(other.coeffs))
        return IntPoly.from_coeffs([self[i] + other[i] for i in range(m)])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        m = max(len(self.coeffs), len(other.coeffs))
        return IntPoly.from_coeffs([self[i] - other[i] for i in range(m)])

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly.from_coeffs([other * c for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly.from_coeffs(out)

    __rmul__ = __mul__

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def halve(self) -> "IntPoly":
        """Exact division by 2; raises if any coefficient is odd."""
        if any(c % 2 for c in self.coeffs):
            raise ArithmeticError(f"polynomial has an odd coefficient: {self.coeffs}")
        return IntPoly(tuple(c // 2 for c in self.coeffs))

    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}

    def __str__(self) -> str:
        return format_poly(self)


def format_poly(p: IntPoly) -> str:
    """Human form with descending powers: "x^5 + 25x^4 + ... + x"."""
    if p.is_zero():
        return "0"
    terms = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "x" if mag == 1 else f"{mag}x"
        else:
            body = f"x^{k}" if mag == 1 else f"{mag}x^{k}"
        terms.append(("- " if c < 0 else "+ ") + body)
    head = terms[0][2:] if terms[0].startswith("+ ") else "-" + terms[0][2:]
    return " ".join([head] + terms[1:])


@lru_cache(maxsize=None)
def eulerian_poly(n: int) -> IntPoly:
    """A_n(x) = sum over S_n of x^(1+des), with A_0 = 1.

    >>> str(eulerian_poly(3))
    'x^3 + 4x^2 + x'
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return IntPoly((1,))
    row = [1]  # Eulerian numbers E(m, k), starting from m = 1
    for m in range(2, n + 1):
        row = [
            (k + 1) * (row[k] if k < len(row) else 0)
            + (m - k) * (row[k - 1] if k >= 1 else 0)
            for k in range(m)
        ]
    return IntPoly.from_coeffs([0] + row)


def narayana_poly(n: int) -> IntPoly:
    """Descent polynomial of the permutations one revstack pass sorts:
    coefficient of x^(n-k) is the Narayana number C(n,k)C(n,k+1)/n.

    >>> str(narayana_poly(4))
    'x^4 + 6x^3 + 6x^2 + x'
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    coeffs = [0] * (n + 1)
    for k in range(n):
        num = comb(n, k) * comb(n, k + 1)
        assert num % n == 0
        coeffs[n - k] = num // n
    return IntPoly.from_coeffs(coeffs)


@lru_cache(maxsize=None)
def d_poly(n: int) -> IntPoly:
    """Descent polynomial of permutations with n positioned right of n-1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    acc = IntPoly.zero()
    for i in range(n):
        acc = acc + comb(n - 1, i) * (eulerian_poly(i) * eulerian_poly(n - 1 - i))
    return acc.halve()


def l_poly(n: int) -> IntPoly:
    """Descent polynomial of permutations with n positioned left of n-1."""
    return eulerian_poly(n) - d_poly(n)


def w_revstack_nm2(n: int) -> IntPoly:
    """Closed form of the descent polynomial of the (n-2)-revstack-sortable set.

    >>> str(w_revstack_nm2(5))
    'x^5 + 25x^4 + 64x^3 + 25x^2 + x'
    """
    if n < 4:
        raise ValueError("closed form requires n >= 4")
    a = eulerian_poly((n - 1 + 1) // 2)  # ceil((n-1)/2)
    b = eulerian_poly((n - 1) // 2)
    return eulerian_poly(n) - a * b


def w_revstack_nm3(n: int) -> IntPoly:
    """Closed form of the descent polynomial of the (n-3)-revstack-sortable set.

    >>> str(w_revstack_nm3(5))
    'x^5 + 20x^4 + 49x^3 + 20x^2 + x'
    """
    if n <= 3:
        raise ValueError("closed form requires n > 3")
    A = eulerian_poly
    return (
        A(n)
        - A((n - 1) // 2) * A((n - 1 + 1) // 2)
        - ((n + 2) // 2) * (A((n - 1) // 2) * A(n // 2))
        - ((n - 1) // 2) * (A((n - 2) // 2) * A((n + 1) // 2))
        + A((n - 1) // 2) * d_poly(n // 2)
        - A((n - 2) // 2) * d_poly((n + 1) // 2)
    )


def degree_nm2_contributions(n: int) -> dict[str, IntPoly]:
    """Descent polynomial contributed by each class of the permutations
    with revstack degree exactly n-2, keyed by case.

    Cases are named by which element of the full decreasing run n..1 the
    witnessing zigzag omits and by where the omitted element re-enters:
    "a-left"/"a-right" omit n (re-entering left resp. right of the pivot
    n-1), "b" omits n-1, "c" omits n-2, and "d-odd"/"d-even" omit some
    i <= n-3 of either parity (those two carry a multiplicity, the number
    of admissible i).
    """
    if n < 4:
        raise ValueError("classification requires n >= 4")
    A, D, L = eulerian_poly, d_poly, l_poly
    return {
        "a-left": L(n // 2) * A((n - 1) // 2),
        "a-right": A((n - 2) // 2) * D((n + 1) // 2),
        "b": A(n // 2) * A((n - 1) // 2),
        "c": A((n - 2) // 2) * A((n + 1) // 2),
        "d-odd": ((n - 2) // 2) * (A(n // 2) * A((n - 1) // 2)),
        "d-even": ((n - 3) // 2) * (A((n - 2) // 2) * A((n + 1) // 2)),
    }


def w_revstack_nm3_from_contributions(n: int) -> IntPoly:
    """w_revstack_nm2 minus the summed case contributions.  Must equal the
    six-term closed form; the two agree after substituting L = A - D."""
    total = IntPoly.zero()
    for p in degree_nm2_contributions(n).values():
        total = total + p
    return w_revstack_nm2(n) - total


def count_revstack_nm2(n: int) -> int:
    """|(n-2)-revstack-sortable| = n! - floor((n-1)/2)! ceil((n-1)/2)!."""
    if n < 4:
        raise ValueError("closed form requires n >= 4")
    return factorial(n) - factorial((n - 1) // 2) * factorial((n - 1 + 1) // 2)


def count_revstack_nm3(n: int) -> int:
    """Compact count of the (n-3)-revstack-sortable permutations.

    The n^2/2 factor is evaluated in exact rationals and the result
    asserted integral.
    """
    if n < 4:
        raise ValueError("closed form requires n >= 4")
    val = (
        factorial(n)
        - factorial((n - 1) // 2) * factorial((n - 1 + 1) // 2)
        - Fraction(n * n, 2) * factorial((n - 1) // 2) * factorial((n - 2) // 2)
    )
    if val.denominator != 1:
        raise ArithmeticError(f"count formula gave a non-integer for n={n}: {val}")
    return int(val)


def count_revstack_nm3_sixterm(n: int) -> int:
    """The unreduced six-term form of count_revstack_nm3."""
    if n < 4:
        raise ValueError("closed form requires n >= 4")
    f = factorial
    val = (
        f(n)
        - f((n - 1) // 2) * f((n - 1 + 1) // 2)
        - ((n + 2) // 2) * f((n - 1) // 2) * f(n // 2)
        - ((n - 1) // 2) * f((n - 2) // 2) * f((n + 1) // 2)
        + Fraction(1, 2) * f((n - 1) // 2) * f(n // 2)
        - Fraction(1, 2) * f((n - 2) // 2) * f((n + 1) // 2)
    )
    if val.denominator != 1:
        raise ArithmeticError(f"count formula gave a non-integer for n={n}: {val}")
    return int(val)


def count_stack_nm2(n: int) -> int:
    """West's count of (n-2)-stack-sortable permutations: n! - (n-2)!."""
    if n < 4:
        raise ValueError("closed form requires n >= 4")
    return factorial(n) - factorial(n - 2)


def count_stack_nm3(n: int) -> int:
    """West's count of (n-3)-stack-sortable permutations."""
    if n < 4:
        raise ValueError("closed form requires n >= 4")
    val = Fraction(factorial(n - 3), 2) * (2 * n**3 - 6 * n**2 - 5 * n + 16)
    if val.denominator != 1:
        raise ArithmeticError(f"count formula gave a non-integer for n={n}: {val}")
    return int(val)


def counting_inequalities_hold(n: int) -> bool:
    """The three exact-arithmetic inequalities behind the degree-(n-2) and
    degree-(n-3) sortable-count comparisons, evaluated in rationals.

    - floor((n-1)/2)! ceil((n-1)/2)! <= (n-2)!              (n >= 2)
    - C(2m-2, m-1) >= (4m^3+6m^2+m)/(18m-7)  for n = 2m+1   (m >= 1)
    - (2m-1)!/(m!(m+1)!) >= (2m+3)/(9m+1)    for n = 2m+2   (m >= 1)
    """
    ok = True
    if n >= 2:
        ok &= factorial((n - 1) // 2) * factorial((n - 1 + 1) // 2) <= factorial(n - 2)
    if n % 2 == 1 and n >= 3:
        m = (n - 1) // 2
        ok &= comb(2 * m - 2, m - 1) >= Fraction(4 * m**3 + 6 * m**2 + m, 18 * m - 7)
    if n % 2 == 0 and n >= 4:
        m = (n - 2) // 2
        ok &= Fraction(factorial(2 * m - 1), factorial(m) * factorial(m + 1)) >= Fraction(
            2 * m + 3, 9 * m + 1
        )
    return bool(ok)


def is_symmetric(p: IntPoly, n: int) -> bool:
    """Coefficient of x^k equals that of x^(n+1-k) for 1 <= k <= n."""
    if p.is_zero():
        raise ValueError("predicate undefined for the zero polynomial")
    return all(p[k] == p[n + 1 - k] for k in range(1, n + 1))


def is_unimodal(p: IntPoly) -> bool:
    """Coefficients rise (weakly) to a peak then fall."""
    if p.is_zero():
        raise ValueError("predicate undefined for the zero polynomial")
    cs = p.coeffs
    i = 0
    while i + 1 < len(cs) and cs[i] <= cs[i + 1]:
        i += 1
    while i + 1 < len(cs) and cs[i] >= cs[i + 1]:
        i += 1
    return i == len(cs) - 1


def is_log_concave(p: IntPoly) -> bool:
    """a_i^2 >= a_{i-1} a_{i+1} across the support of the coefficients."""
    if p.is_zero():
        raise ValueError("predicate undefined for the zero polynomial")
    cs = p.coeffs
    first = next(i for i, c in enumerate(cs) if c)
    last = len(cs) - 1
    return all(
        cs[i] ** 2 >= cs[i - 1] * cs[i + 1] for i in range(first + 1, last)
    )
