"""Exact polynomial arithmetic in q and the basic q-analogues.

A polynomial is a dense coefficient vector of arbitrary-precision
integers: ``coeffs[i]`` is the coefficient of q^i, and the highest-index
coefficient is nonzero unless the polynomial is zero (the zero polynomial
is the empty vector).  Everything here is exact; no floats anywhere.

Gaussian binomial coefficients are computed by two independent routes:
the Pascal-style recurrence and the q-factorial quotient.  Their
agreement is one of the identities this package exists to check, so the
two routes share no code beyond plain polynomial arithmetic.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator

from .errors import BudgetExceeded, InexactDivision

# Largest n for [n]!, [n choose k] and the (x+y)^n expansion.  Their
# polynomials grow like n^2 in degree and far faster in coefficient size,
# so n = 120 already takes seconds (the quotient route about 10 s), and
# the memoized recursions must stay well inside Python's recursion limit.
MAX_Q_SERIES_N = 120


class QPoly:
    """Univariate polynomial in q with integer coefficients, immutable."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> "QPoly":
        """c * q^k"""
        if k < 0:
            raise ValueError("negative exponent")
        return cls((0,) * k + (c,))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self._coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == QPoly((other,))._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: "QPoly | int") -> "QPoly":
        other = _as_poly(other)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self._coeffs))

    def __sub__(self, other: "QPoly | int") -> "QPoly":
        return self + (-_as_poly(other))

    def __rsub__(self, other: "QPoly | int") -> "QPoly":
        return _as_poly(other) + (-self)

    def __mul__(self, other: "QPoly | int") -> "QPoly":
        other = _as_poly(other)
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return QPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative power")
        result = QPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "QPoly":
        """Multiply by q^k."""
        if not self._coeffs:
            return self
        return QPoly((0,) * k + self._coeffs)

    def divide_exact(self, divisor: "QPoly") -> "QPoly":
        """Exact polynomial long division over the integers.

        Raises InexactDivision if the remainder is nonzero or any
        coefficient step fails to divide; either means an arithmetic bug
        upstream, since every division performed here is of a product by
        one of its factors.
        """
        if not divisor:
            raise InexactDivision("division by the zero polynomial")
        rem = list(self._coeffs)
        d = divisor._coeffs
        lead = d[-1]
        qdeg = len(rem) - len(d)
        if qdeg < 0:
            if any(rem):
                raise InexactDivision("divisor degree exceeds dividend degree")
            return QPoly()
        out = [0] * (qdeg + 1)
        for i in range(qdeg, -1, -1):
            c = rem[i + len(d) - 1]
            if c % lead != 0:
                raise InexactDivision("leading coefficient does not divide")
            f = c // lead
            out[i] = f
            if f:
                for j, dc in enumerate(d):
                    rem[i + j] -= f * dc
        if any(rem):
            raise InexactDivision("nonzero remainder in exact division")
        return QPoly(out)

    def evaluate(self, value: int) -> int:
        """Value at q = value, by Horner's rule in exact integers."""
        acc = 0
        for c in reversed(self._coeffs):
            acc = acc * value + c
        return acc

    def is_palindromic(self) -> bool:
        return self._coeffs == self._coeffs[::-1]

    def __iter__(self) -> Iterator[int]:
        return iter(self._coeffs)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                sign = "-" if c < 0 else ""
                term = f"{sign}{mag}q" if i == 1 else f"{sign}{mag}q^{i}"
                parts.append(term)
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"QPoly({list(self._coeffs)!r})"


def _as_poly(x: "QPoly | int") -> QPoly:
    if isinstance(x, QPoly):
        return x
    if isinstance(x, int):
        return QPoly((x,))
    raise TypeError(f"cannot mix QPoly with {type(x).__name__}")


def over_q_series_cap(n: int, size: str) -> BudgetExceeded:
    """The error for a q-series of size n over MAX_Q_SERIES_N; size says why it costs."""
    return BudgetExceeded(
        f"n = {n} ({size}) exceeds the q-series cap of n <= {MAX_Q_SERIES_N}")


def q_integer(n: int) -> QPoly:
    """[n] = 1 + q + ... + q^(n-1); the empty sum for n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return QPoly((1,) * n)


@functools.lru_cache(maxsize=None)
def q_factorial(n: int) -> QPoly:
    """[n]! = [1][2]...[n], with [0]! = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return QPoly.one()
    if n > MAX_Q_SERIES_N:
        raise over_q_series_cap(n, f"[{n}]! has degree {n * (n - 1) // 2}")
    return q_factorial(n - 1) * q_integer(n)


@functools.lru_cache(maxsize=None)
def q_binomial_recurrence(n: int, k: int) -> QPoly:
    """Gaussian binomial via the recurrence route.

    [n choose k] = [n-1 choose k] + q^(n-k) [n-1 choose k-1], with
    [n choose 0] = [n choose n] = 1.  Out-of-range k gives the zero
    polynomial, so the recurrence needs no edge guards.  Memoized; the
    lru_cache lock makes concurrent callers safe.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return QPoly.zero()
    if k == 0 or k == n:
        return QPoly.one()
    if n > MAX_Q_SERIES_N:
        raise over_q_series_cap(n, f"[{n} choose {k}] has degree {k * (n - k)}")
    return q_binomial_recurrence(n - 1, k) + q_binomial_recurrence(n - 1, k - 1).shift(n - k)


def q_binomial_quotient(n: int, k: int) -> QPoly:
    """Gaussian binomial via the quotient route: [n]! / ([k]! [n-k]!).

    Computed by exact polynomial division.  That the quotient is a
    polynomial at all is not obvious from this formula; a nonzero
    remainder would raise InexactDivision and flag a bug.  Over the
    q-series cap, q_factorial(n) raises BudgetExceeded before any work.
    """
    if n < 0 or k < 0 or k > n:
        raise ValueError("requires 0 <= k <= n")
    if k == 0 or k == n:
        return QPoly.one()
    return q_factorial(n).divide_exact(q_factorial(k) * q_factorial(n - k))


def evaluate(p: QPoly, value: int) -> int:
    """Evaluate p at q = value in exact integer arithmetic."""
    return p.evaluate(value)
