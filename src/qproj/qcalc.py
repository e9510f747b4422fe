"""Exact polynomial arithmetic in q and the basic q-analogues.

A polynomial is a dense coefficient vector of arbitrary-precision
integers: ``coeffs[i]`` is the coefficient of q^i, and the highest-index
coefficient is nonzero unless the polynomial is zero (the zero polynomial
is the empty vector).  Everything here is exact; no floats anywhere.

Gaussian binomial coefficients are computed by two independent routes:
the Pascal-style recurrence and the q-factorial quotient.  Their
agreement is one of the identities this package exists to check, so the
two routes share no code beyond plain polynomial arithmetic.  Both are
plain loops, with no recursion and no memo.  The recurrence keeps its
row packed, one integer per polynomial, in code of its own.  The
quotient runs on coefficient lists, over min(k, n-k) factors; it
multiplies by [j] and divides by [i] with running sums
(``itertools.accumulate``), so their inner loops run in C.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import accumulate
from operator import sub

from .errors import BudgetExceeded, InexactDivision

# Largest n for [n]!, [n choose k] and the (x+y)^n expansion.  Their
# polynomials grow like n^2 in degree and far faster in coefficient size.
# At n = 120, in process on a 2-core VM: [120 choose 60] takes about
# 0.025 s by either route, [120]! 0.035 s, and the (x+y)^n expansion
# 0.13 s plus 0.08 s to read its terms.  At n = 160 the quotient takes
# about 0.05 s and the packed recurrence 0.11 s, but the expansion still
# takes about a second, plus 0.23 s to read its terms.
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
        """Multiply by q^k, for k >= 0."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        if not self._coeffs:
            return self
        return QPoly((0,) * k + self._coeffs)

    def evaluate(self, value: int) -> int:
        """Value at q = value in exact integers.

        Neighbouring coefficients are paired, a + v b, and the pairs are
        read as a polynomial in v^2, until one value is left.  Horner's
        rule would multiply the growing value by q once per coefficient,
        O(degree * size of the value) in all; pairing multiplies numbers
        of similar size at each level, which Python's Karatsuba
        multiplication makes subquadratic.  That pays off on long
        polynomials and large q; on a few coefficients it costs a few
        microseconds more than Horner's rule.
        """
        cs = list(self._coeffs) or [0]
        while len(cs) > 1:
            if len(cs) % 2:
                cs.append(0)
            cs = [a + value * b for a, b in zip(cs[::2], cs[1::2])]
            if len(cs) > 1:
                value *= value
        return cs[0]

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


def _times_q_integer(p: QPoly, j: int) -> QPoly:
    """p * [j]: coefficient d sums those of p at d-j+1..d, a sliding window,
    read as the running sums of p - q^j p."""
    cs, pad = p.coeffs, (0,) * j
    return QPoly(accumulate(map(sub, cs + pad, pad + cs)))


def _divide_by_q_integer(p: QPoly, i: int) -> QPoly:
    """p / [i] = p (1 - q) / (1 - q^i), for i >= 1.

    Dividing by 1 - q^i is the recurrence r[d] += r[d - i], which runs
    along each residue class d = c mod i on its own: a running sum of the
    slice r[c::i].  The last i terms are the remainder, and must be zero.
    """
    if i < 1:
        raise ValueError("can only divide by [i] for i >= 1")
    cs = p.coeffs
    r = list(map(sub, cs + (0,), (0,) + cs))
    for c in range(min(i, len(r))):
        r[c::i] = accumulate(r[c::i])
    cut = max(len(r) - i, 0)
    if any(r[cut:]):
        raise InexactDivision(f"nonzero remainder dividing by [{i}]")
    return QPoly(r[:cut])


def q_factorial(n: int) -> QPoly:
    """[n]! = [1][2]...[n], with [0]! = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_Q_SERIES_N:
        raise over_q_series_cap(n, f"[{n}]! has degree {n * (n - 1) // 2}")
    p = QPoly.one()
    for j in range(2, n + 1):
        p = _times_q_integer(p, j)
    return p


def q_binomial_recurrence(n: int, k: int) -> QPoly:
    """Gaussian binomial via the recurrence route.

    [m choose i] = [m-1 choose i] + q^(m-i) [m-1 choose i-1], with
    [0 choose 0] = 1 and [0 choose i] = 0 for i > 0.  One row is updated
    in place for m = 1, ..., n; after step m, row[i] = [m choose i] for
    every i that [n choose k] still depends on, k - (n - m) <= i <= k.

    Each row entry is packed into one integer (Kronecker substitution):
    the polynomial c(q) is kept as c(2^B), with B = n rounded up to whole
    bytes, so an addition is one integer addition and multiplying by
    q^s is a shift by B*s.  No slot can overflow.  The coefficients of
    [m choose i] are nonnegative and sum to its value at q = 1, the
    binomial C(m, i), so each is at most C(m, i) < 2^m <= 2^n (and
    [0 choose 0] = 1 < 2^n).  The result is unpacked once, by slicing
    its bytes.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return QPoly.zero()
    if k == 0 or k == n:
        return QPoly.one()
    if n > MAX_Q_SERIES_N:
        raise over_q_series_cap(n, f"[{n} choose {k}] has degree {k * (n - k)}")
    nbytes = (n + 7) // 8
    slot = 8 * nbytes
    row = [1] + [0] * k
    for m in range(1, n + 1):
        for i in range(min(k, m), max(k - (n - m), 1) - 1, -1):
            row[i] += row[i - 1] << (slot * (m - i))
    raw = row[k].to_bytes(nbytes * (k * (n - k) + 1), "little")
    return QPoly([int.from_bytes(raw[j:j + nbytes], "little")
                  for j in range(0, len(raw), nbytes)])


def q_binomial_quotient(n: int, k: int) -> QPoly:
    """Gaussian binomial via the quotient route: [n]! / ([k]! [n-k]!).

    With k' = min(k, n-k), which the formula allows since it is symmetric
    in k and n-k, the quotient is formed one factor at a time:
    p <- p [n-k'+i] / [i] for i = 1, ..., k'.  After step i, p is
    [n-k'+1]...[n-k'+i] / [i]!, that is [n-k'+i choose i], a polynomial of
    degree i (n-k').  So no partial result has degree above k' (n-k'),
    and no product more than k' - 1 above that.  That each quotient is a
    polynomial at all is not obvious from this formula; a nonzero
    remainder would raise InexactDivision and flag a bug.
    """
    if n < 0 or k < 0 or k > n:
        raise ValueError("requires 0 <= k <= n")
    if k == 0 or k == n:
        return QPoly.one()
    if n > MAX_Q_SERIES_N:
        raise over_q_series_cap(n, f"[{n} choose {k}] has degree {k * (n - k)}")
    k = min(k, n - k)
    p = QPoly.one()
    for i in range(1, k + 1):
        p = _divide_by_q_integer(_times_q_integer(p, n - k + i), i)
    return p

