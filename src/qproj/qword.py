"""Noncommutative polynomials in x and y subject to yx = qxy.

Every word is kept in normal order x^a y^b; the exponent pair (a, b) is
the term key and the coefficient is a QPoly in q.  Multiplying two
normal-ordered words uses the closed form

    (x^a y^b)(x^c y^d) = q^(b*c) x^(a+c) y^(b+d),

since each of the b factors of y must move past each of the c factors of
x, picking up one power of q per swap.  No stepwise rewriting is ever
performed.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .qcalc import MAX_Q_SERIES_N, QPoly, over_q_series_cap


class NoncommPoly:
    """Finite sum of normal-ordered words with QPoly coefficients.

    Immutable; zero coefficients are never stored.  Term iteration is
    lexicographic in the exponent pair for reproducible output.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], QPoly] | None = None):
        clean: dict[tuple[int, int], QPoly] = {}
        if terms:
            for (a, b), c in terms.items():
                if a < 0 or b < 0:
                    raise ValueError("exponents must be nonnegative")
                if c:
                    clean[(a, b)] = c
        self._terms = clean

    @classmethod
    def zero(cls) -> "NoncommPoly":
        return cls()

    @classmethod
    def one(cls) -> "NoncommPoly":
        return cls({(0, 0): QPoly.one()})

    @classmethod
    def x(cls) -> "NoncommPoly":
        return cls({(1, 0): QPoly.one()})

    @classmethod
    def y(cls) -> "NoncommPoly":
        return cls({(0, 1): QPoly.one()})

    def terms(self) -> Iterator[tuple[tuple[int, int], QPoly]]:
        for key in sorted(self._terms):
            yield key, self._terms[key]

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NoncommPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def __add__(self, other: "NoncommPoly") -> "NoncommPoly":
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, QPoly.zero()) + c
        return NoncommPoly(out)

    def __mul__(self, other: "NoncommPoly") -> "NoncommPoly":
        return nc_multiply(self, other)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        lines = []
        for (a, b), c in self.terms():
            lines.append(f"x^{a} y^{b}: {c}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"NoncommPoly({dict(sorted(self._terms.items()))!r})"


def nc_multiply(p: NoncommPoly, r: NoncommPoly) -> NoncommPoly:
    """Product under the yx = qxy rule; q commutes with everything."""
    out: dict[tuple[int, int], QPoly] = {}
    for (a, b), ca in p._terms.items():
        for (c, d), cb in r._terms.items():
            key = (a + c, b + d)
            coeff = (ca * cb).shift(b * c)
            acc = out.get(key)
            out[key] = coeff if acc is None else acc + coeff
    return NoncommPoly(out)


def expand_binomial(n: int) -> NoncommPoly:
    """(x + y)^n expanded to normal order; n + 1 terms with keys (k, n-k)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_Q_SERIES_N:
        raise over_q_series_cap(n, f"(x + y)^{n} has {n + 1} terms")
    xy = NoncommPoly.x() + NoncommPoly.y()
    result = NoncommPoly.one()
    for _ in range(n):
        result = nc_multiply(result, xy)
    return result


def nc_coefficient(p: NoncommPoly, a: int, b: int) -> QPoly:
    """Coefficient of x^a y^b, the zero polynomial if absent."""
    return p._terms.get((a, b), QPoly.zero())
