"""Arithmetic in finite fields F_q for small prime powers q.

Elements of F_(p^d) are residues of F_p[x] modulo a fixed monic
irreducible polynomial of degree d.  An element is stored as an integer
code in [0, q): the code of the residue c_0 + c_1 x + ... is
sum(c_i * p^i), so codes 0 and 1 are the field's zero and one, and code
order (ascending) is the canonical element order used everywhere.

The modulus is the lexicographically smallest monic irreducible of its
degree, comparing coefficient vectors from the constant term upward, so
fields are reproducible without any table dependency.  Addition and
multiplication tables are precomputed at construction (q is capped, 16
by default); the inverse of a nonzero code is the column in which its
row of the multiplication table holds the code 1.
"""

from __future__ import annotations

import functools
import itertools

from .errors import BudgetExceeded, DivisionByZero, FieldMismatch, NotAPrimePower

DEFAULT_MAX_Q = 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, d) with q = p^d, or raise NotAPrimePower."""
    if q < 2:
        raise NotAPrimePower(f"{q} is not a prime power (must be >= 2)")
    p = 2
    while p * p <= q:
        if q % p == 0:
            d = 0
            m = q
            while m % p == 0:
                m //= p
                d += 1
            if m != 1:
                raise NotAPrimePower(f"{q} has more than one prime factor")
            return p, d
        p += 1
    return q, 1  # q itself is prime


# -- polynomial helpers over F_p, coefficient tuples (constant term first) --

def _ptrim(a: list[int]) -> tuple[int, ...]:
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _pmul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _ptrim(out)


def _pdivmod(a: tuple[int, ...], b: tuple[int, ...], p: int):
    rem = list(a)
    lead_inv = pow(b[-1], p - 2, p)
    quo = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + len(b) - 1]
        if c:
            f = (c * lead_inv) % p
            quo[i] = f
            for j, bc in enumerate(b):
                rem[i + j] = (rem[i + j] - f * bc) % p
    return _ptrim(quo), _ptrim(rem)


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Trial division by all monic polynomials of degree 1..deg(f)//2."""
    d = len(f) - 1
    if d < 1:
        return False
    for e in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=e):
            g = tail + (1,)
            _, rem = _pdivmod(f, g, p)
            if not rem:
                return False
    return True


def _smallest_irreducible(p: int, d: int) -> tuple[int, ...]:
    for tail in itertools.product(range(p), repeat=d):
        f = tail + (1,)
        if _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # cannot happen


class FieldElement:
    """An element of a FiniteField, identified by its integer code."""

    __slots__ = ("field", "code")

    def __init__(self, field: "FiniteField", code: int):
        self.field = field
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficient vector of the residue polynomial, constant first."""
        return self.field.code_to_coeffs(self.code)

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError("expected a FieldElement")
        if self.field.key != other.field.key:
            raise FieldMismatch(
                f"elements of F_{self.field.q} and F_{other.field.q} cannot mix")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, self.field.add_table[self.code][other.code])

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        neg = self.field.neg_table[other.code]
        return FieldElement(self.field, self.field.add_table[self.code][neg])

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, self.field.neg_table[self.code])

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, self.field.mul_table[self.code][other.code])

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "FieldElement":
        if self.code == 0:
            raise DivisionByZero(f"inverse of zero in F_{self.field.q}")
        return FieldElement(self.field, self.field.inv_table[self.code])

    def __bool__(self) -> bool:
        return self.code != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field.key == other.field.key and self.code == other.code

    def __hash__(self) -> int:
        return hash((self.field.key, self.code))

    def __repr__(self) -> str:
        return f"F{self.field.q}({self.code})"


class FiniteField:
    """F_(p^d) modulo the smallest monic irreducible of degree d, so one
    modulus per q; immutable once built."""

    def __init__(self, p: int, degree: int):
        if not _is_prime(p):
            raise NotAPrimePower(f"characteristic {p} is not prime")
        if degree < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.degree = degree
        self.q = p ** degree
        self.modulus = (0, 1) if degree == 1 else _smallest_irreducible(p, degree)
        self.key = (p, degree, self.modulus)
        self._build_tables()

    def _build_tables(self) -> None:
        q = self.q
        self.add_table = [[self._add_codes(i, j) for j in range(q)] for i in range(q)]
        self.neg_table = [self._neg_code(i) for i in range(q)]
        self.mul_table = [[self._mul_codes(i, j) for j in range(q)] for i in range(q)]
        # each nonzero row of the multiplication table holds the code 1 once
        self.inv_table = [0] + [self.mul_table[i].index(1) for i in range(1, q)]

    def code_to_coeffs(self, code: int) -> tuple[int, ...]:
        cs = []
        for _ in range(self.degree):
            code, r = divmod(code, self.p)
            cs.append(r)
        return tuple(cs)

    def coeffs_to_code(self, coeffs: tuple[int, ...]) -> int:
        code = 0
        for c in reversed(coeffs[: self.degree]):
            code = code * self.p + (c % self.p)
        return code

    def _add_codes(self, i: int, j: int) -> int:
        a, b = self.code_to_coeffs(i), self.code_to_coeffs(j)
        return self.coeffs_to_code(tuple((x + y) % self.p for x, y in zip(a, b)))

    def _neg_code(self, i: int) -> int:
        return self.coeffs_to_code(tuple((-x) % self.p for x in self.code_to_coeffs(i)))

    def _mul_codes(self, i: int, j: int) -> int:
        prod = _pmul(self.code_to_coeffs(i), self.code_to_coeffs(j), self.p)
        _, rem = _pdivmod(prod, self.modulus, self.p) if prod else ((), ())
        padded = rem + (0,) * (self.degree - len(rem))
        return self.coeffs_to_code(padded)

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def element(self, code: int) -> FieldElement:
        if not 0 <= code < self.q:
            raise ValueError(f"code {code} out of range for F_{self.q}")
        return FieldElement(self, code)

    def elements(self) -> list[FieldElement]:
        """All q elements in canonical (code) order, zero first."""
        return [FieldElement(self, c) for c in range(self.q)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteField):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"FiniteField(q={self.q})"


@functools.lru_cache(maxsize=None)
def _build_field(q: int) -> FiniteField:
    p, d = factor_prime_power(q)
    return FiniteField(p, d)


def make_field(q: int, max_q: int = DEFAULT_MAX_Q) -> FiniteField:
    """Construct (or fetch the cached) F_q.

    Raises NotAPrimePower for non-prime-power q and BudgetExceeded when q
    is beyond the configured cap; geometry construction cost grows like
    q^n, so the cap fails loudly instead of hanging.
    """
    factor_prime_power(q)  # raise before the cap check for bad q
    if q > max_q:
        raise BudgetExceeded(f"field order {q} exceeds the cap of {max_q}")
    return _build_field(q)
