"""Noncommutative polynomials in x and y subject to yx = qxy.

Every word is kept in normal order x^a y^b; the exponent pair (a, b) is
the term key and the coefficient is a polynomial in q.  Multiplying two
normal-ordered words uses the closed form

    (x^a y^b)(x^c y^d) = q^(b*c) x^(a+c) y^(b+d),

since each of the b factors of y must move past each of the c factors of
x, picking up one power of q per swap.  No stepwise rewriting is ever
performed.

Coefficients are stored packed (Kronecker substitution): the coefficient
c(q) = c_0 + c_1 q + ... of a term is kept as the one integer c(2^B), so
slot i holds c_i in bits [B*i, B*(i+1)).  Multiplying by q^s is then a
shift by B*s, adding two coefficients is one integer addition and
multiplying them is one integer multiplication.  Coefficients stay
packed across products and sums; a QPoly is formed only when a term is
read (``terms``, ``nc_coefficient``, equality, hashing, printing).

The slot width B is chosen so that no slot can overflow.  Each
NoncommPoly carries a bound L on the sum of |c_i| over all its terms
and slots: exact when built from QPolys, L(p) + L(r) for a sum and
L(p) * L(r) for a product, because every coefficient of p * r is a sum
of products of one coefficient from each side.  Hence every slot of
every coefficient is below L in absolute value, and B is the least of
64, 128, 256, ... bits with 2^(B-1) > L; operands narrower than the
result are repacked first.

Slots are signed.  A packed value sum c_i 2^(B*i) with |c_i| < 2^(B-1)
is read back as balanced digits: a negative slot borrows one from the
slot above.  Adding 2^(B-1) to every slot undoes all the borrows at
once, since each shifted slot lies in [1, 2^B - 1].  Packing is one
bytes join.  Unpacking reads the shifted slots as 64-bit words with one
``struct.unpack`` call, then, while the words are narrower than B,
pairs neighbours as lo + hi 2^w; every B is 64 * 2^j bits, so that
ends at B.  Both are linear in the size of the polynomial.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator, Mapping

from .qcalc import MAX_Q_SERIES_N, QPoly, over_q_series_cap


def _slot_bytes(bound: int) -> int:
    """Bytes per slot: the least of 8, 16, 32, ... with 2^(8*nbytes - 1) > bound."""
    nbytes = 8
    while bound >> (8 * nbytes - 1):
        nbytes *= 2
    return nbytes


def _offset(slots: int, nbytes: int) -> int:
    """2^(B-1) in each of ``slots`` slots of B = 8*nbytes bits."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * slots, "little")


def _pack(coeffs: tuple[int, ...], nbytes: int) -> int:
    half = 1 << (8 * nbytes - 1)
    raw = b"".join((c + half).to_bytes(nbytes, "little") for c in coeffs)
    return int.from_bytes(raw, "little") - _offset(len(coeffs), nbytes)


def _unpack(value: int, nbytes: int) -> QPoly:
    # the top nonzero slot d has |value| > 2^(B*d - 1), so d <= bits // B
    slots = abs(value).bit_length() // (8 * nbytes) + 1
    raw = (value + _offset(slots, nbytes)).to_bytes(slots * nbytes, "little")
    words = struct.unpack(f"<{slots * nbytes // 8}Q", raw)
    width = 64
    while width < 8 * nbytes:
        # slots are 8 * 2^j bytes: pair neighbouring words into the wider slot
        words = [lo + (hi << width) for lo, hi in zip(words[::2], words[1::2])]
        width *= 2
    half = 1 << (width - 1)
    return QPoly([w - half for w in words])


class NoncommPoly:
    """Finite sum of normal-ordered words with coefficients in Z[q].

    Immutable; zero coefficients are never stored.  Term iteration is
    lexicographic in the exponent pair for reproducible output.
    """

    __slots__ = ("_packed", "_nbytes", "_bound", "_qpolys")

    def __init__(self, terms: Mapping[tuple[int, int], QPoly] | None = None):
        clean: dict[tuple[int, int], QPoly] = {}
        if terms:
            for (a, b), c in terms.items():
                if a < 0 or b < 0:
                    raise ValueError("exponents must be nonnegative")
                if c:
                    clean[(a, b)] = c
        bound = sum(abs(x) for c in clean.values() for x in c)
        nbytes = _slot_bytes(bound)
        self._packed = {key: _pack(c.coeffs, nbytes) for key, c in clean.items()}
        self._nbytes = nbytes
        self._bound = bound
        self._qpolys = clean

    @classmethod
    def _from_packed(cls, packed: dict[tuple[int, int], int], nbytes: int,
                     bound: int) -> "NoncommPoly":
        p = cls.__new__(cls)
        p._packed = {key: v for key, v in packed.items() if v}
        p._nbytes = nbytes
        p._bound = bound
        p._qpolys = None
        return p

    def _widened(self, nbytes: int) -> dict[tuple[int, int], int]:
        """The packed terms with slots of ``nbytes`` bytes (at least as wide)."""
        if nbytes == self._nbytes:
            return self._packed
        return {key: _pack(c.coeffs, nbytes) for key, c in self._terms().items()}

    def _terms(self) -> dict[tuple[int, int], QPoly]:
        if self._qpolys is None:
            self._qpolys = {key: _unpack(v, self._nbytes)
                            for key, v in self._packed.items()}
        return self._qpolys

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
        terms = self._terms()
        for key in sorted(terms):
            yield key, terms[key]

    def __len__(self) -> int:
        return len(self._packed)

    def __bool__(self) -> bool:
        return bool(self._packed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NoncommPoly):
            return NotImplemented
        return self._terms() == other._terms()

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms().items())))

    def __add__(self, other: "NoncommPoly") -> "NoncommPoly":
        bound = self._bound + other._bound
        nbytes = _slot_bytes(bound)
        out = dict(self._widened(nbytes))
        for key, v in other._widened(nbytes).items():
            out[key] = out.get(key, 0) + v
        return NoncommPoly._from_packed(out, nbytes, bound)

    def __mul__(self, other: "NoncommPoly") -> "NoncommPoly":
        return nc_multiply(self, other)

    def __str__(self) -> str:
        if not self._packed:
            return "0"
        lines = []
        for (a, b), c in self.terms():
            lines.append(f"x^{a} y^{b}: {c}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"NoncommPoly({dict(self.terms())!r})"


def nc_multiply(p: NoncommPoly, r: NoncommPoly) -> NoncommPoly:
    """Product under the yx = qxy rule; q commutes with everything."""
    if not p or not r:
        # a zero factor's bound 0 would narrow the other factor's slots
        return NoncommPoly()
    bound = p._bound * r._bound
    nbytes = _slot_bytes(bound)
    bits = 8 * nbytes
    out: dict[tuple[int, int], int] = {}
    right = r._widened(nbytes).items()
    for (a, b), ca in p._widened(nbytes).items():
        for (c, d), cb in right:
            key = (a + c, b + d)
            # a bare word (packed 1, as in x + y) needs no multiplication
            coeff = (ca if cb == 1 else ca * cb) << (bits * b * c)
            acc = out.get(key)
            out[key] = coeff if acc is None else acc + coeff
    return NoncommPoly._from_packed(out, nbytes, bound)


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
    return _unpack(p._packed.get((a, b), 0), p._nbytes)
