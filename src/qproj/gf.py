"""Arithmetic in finite fields F_q for small prime powers q.

Elements of F_(p^d) are residues of F_p[x] modulo a fixed monic
irreducible polynomial of degree d.  An element is its integer code in
[0, q): the code of the residue c_0 + c_1 x + ... is sum(c_i * p^i), so
codes 0 and 1 are the field's zero and one, and code order (ascending)
is the canonical element order used everywhere.

The four code tables are the only arithmetic, built at construction (q
is capped, 16 by default).  Addition works digit by digit; the negative
of a code is the column in which its row of the addition table holds 0,
and the inverse of a nonzero code is the column in which its row of the
multiplication table holds 1.

For the modulus, monic x^d + tail are tried with tails in lexicographic
order from the constant term upward, and the first whose multiplication
table has no zero divisors (no 0 in a nonzero row past column 0) is
kept.  That is exactly the smallest irreducible: a reducible f = g*h
gives g*h = 0 in F_p[x]/(f), while for irreducible f the quotient is a
field (Lidl & Niederreiter, Finite Fields, ch. 1).  So fields are
reproducible without any table dependency.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import BudgetExceeded, NotAPrimePower

DEFAULT_MAX_Q = 16
# Miller-Rabin to the twelve prime bases 2, 3, ..., 37 is exact below psi_12
# (Sorenson & Webster, Math. Comp. 86, 2017), itself a strong pseudoprime
# to all twelve; factor_prime_power decides no q past it
MAX_FACTORED_Q = 318665857834031151167461


@functools.cache
def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n >= 2, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(itertools.compress(range(n), sieve))


def _integer_root(n: int, e: int) -> int:
    """floor(n^(1/e)) for n >= 1, by Newton's method on integers."""
    x = 1 << -(-n.bit_length() // e)  # at least the root
    while True:
        y = ((e - 1) * x + n // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def _miller_rabin(n: int) -> bool:
    """Whether odd n > 37 is a strong probable prime to the bases 2, ..., 37."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, d) with q = p^d, or raise NotAPrimePower.

    Trial division by the primes below 2^16 finds the smallest prime
    factor p of any q that has one there, and q is a power of p iff
    dividing out p leaves 1; a q with no prime factor up to its square
    root is prime.  Otherwise every prime factor of q is at least 2^16,
    so q = r^e needs e <= bit_length(q) / 16.  For the largest such e
    whose integer e-th root r is exact, r is no perfect power, so q is a
    prime power iff r is prime, which Miller-Rabin decides exactly below
    MAX_FACTORED_Q.  Past that bound it raises BudgetExceeded and never
    guesses.
    """
    if q < 2:
        raise NotAPrimePower(f"{q} is not a prime power (must be >= 2)")
    root = math.isqrt(q)
    for p in _primes_below(1 << min(root.bit_length(), 16)):
        if p > root:
            break
        if q % p == 0:
            d = 0
            m = q
            while m % p == 0:
                m //= p
                d += 1
            if m != 1:
                raise NotAPrimePower(f"{q} has more than one prime factor")
            return p, d
    if root < 1 << 16:
        return q, 1  # no prime factor up to its square root: q is prime
    if q >= MAX_FACTORED_Q:
        raise BudgetExceeded(
            f"{q} has no prime factor below 2^16, and prime powers are decided "
            f"only below {MAX_FACTORED_Q}")
    e = next(e for e in range(q.bit_length() // 16, 0, -1)
             if _integer_root(q, e) ** e == q)
    p = _integer_root(q, e)
    if not _miller_rabin(p):
        raise NotAPrimePower(f"{q} has more than one prime factor")
    return p, e


class FiniteField:
    """F_(p^d) modulo the smallest monic irreducible of degree d, so one
    modulus per q; immutable once built."""

    def __init__(self, p: int, degree: int):
        if factor_prime_power(p) != (p, 1):
            raise NotAPrimePower(f"characteristic {p} is not prime")
        if degree < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.degree = degree
        self.q = q = p ** degree
        digits = [self.code_to_coeffs(i) for i in range(q)]
        self.add_table = [[self._code_mod_p(tuple(x + y for x, y in zip(a, b)))
                           for b in digits] for a in digits]
        self.neg_table = [row.index(0) for row in self.add_table]
        # smallest irreducible first: a reducible f = g*h makes g*h = 0
        for tail in itertools.product(range(p), repeat=degree):
            self.mul_table = self._mul_table(tail)
            if all(0 not in row[1:] for row in self.mul_table[1:]):
                break
        else:
            raise AssertionError("no irreducible polynomial found")  # cannot happen
        self.modulus = tail + (1,)
        self.key = (p, degree, self.modulus)
        # each nonzero row of the multiplication table holds the code 1 once
        self.inv_table = [0] + [self.mul_table[i].index(1) for i in range(1, q)]

    def _mul_table(self, tail: tuple[int, ...]) -> list[list[int]]:
        """Multiplication table of F_p[x]/(x^d + tail) on codes."""
        p, q, add = self.p, self.q, self.add_table
        top = q // p
        # x times a code shifts its digits up one place; the digit h that
        # falls off the top comes back as -h * tail, since x^d = -tail
        drop = [self._code_mod_p(tuple(-h * t for t in tail)) for h in range(p)]
        times_x = [add[c % top * p][drop[c // top]] for c in range(q)]
        table = []
        for a in range(q):
            # Horner's rule on b = b_0 + x * (b // p): a*b is a*(b-1) + a
            # when b_0 > 0 and x * (a*(b // p)) when b_0 = 0
            row = [0]
            for b in range(1, q):
                row.append(add[row[-1]][a] if b % p else times_x[row[b // p]])
            table.append(row)
        return table

    def code_to_coeffs(self, code: int) -> tuple[int, ...]:
        cs = []
        for _ in range(self.degree):
            code, r = divmod(code, self.p)
            cs.append(r)
        return tuple(cs)

    def coeffs_to_code(self, coeffs: tuple[int, ...]) -> int:
        """The code of c_0 + c_1 x + ...; raises ValueError unless there
        are ``degree`` coefficients, each in [0, p)."""
        if len(coeffs) != self.degree or not all(0 <= c < self.p for c in coeffs):
            raise ValueError(f"expected {self.degree} coefficients in [0, {self.p}), "
                             f"got {coeffs!r}")
        return self._code_mod_p(coeffs)

    def _code_mod_p(self, coeffs: tuple[int, ...]) -> int:
        """The code of ``degree`` coefficients, each reduced mod p first;
        the table build passes digit sums and negated products."""
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + c % self.p
        return code

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteField):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"FiniteField(q={self.q})"


@functools.lru_cache(maxsize=None)
def _build_field(p: int, d: int) -> FiniteField:
    return FiniteField(p, d)


def make_field(q: int, max_q: int = DEFAULT_MAX_Q) -> FiniteField:
    """Construct (or fetch the cached) F_q.

    Raises NotAPrimePower for non-prime-power q and BudgetExceeded when q
    is beyond the configured cap; geometry construction cost grows like
    q^n, so the cap fails loudly instead of hanging.
    """
    p, d = factor_prime_power(q)  # raise before the cap check for bad q
    if q > max_q:
        raise BudgetExceeded(f"field order {q} exceeds the cap of {max_q}")
    return _build_field(p, d)
