"""Order formulas for the classical matrix groups over F_q.

The general linear order comes from counting bases: the i-th row of an
invertible matrix avoids the q^(i-1) combinations of its predecessors,
giving the product of (q^n - q^i).  SL and PGL both quotient or restrict
by the q - 1 scalars; PSL uses the closed form

    |PSL_n(F_q)| = q^C(n,2) * (q-1)^(n-1) * [n]_q! / gcd(n, q-1)

with the q-factorial evaluated at q.  A brute-force oracle recounts tiny
cases by enumerating matrices of element codes and taking determinants
through the field's add, multiply and negate tables.  The center it
divides by is found by direct enumeration of scalar matrices with
lambda^n = 1, not by the gcd, so oracle and formula stay independent.

At q = 1 the PSL formula degenerates: the power of q and the factorial
specialize fine, but (q-1)^(n-1)/gcd(n, q-1) becomes 0/n, which has no
agreed value.  The q = 1 analogue of the collineation group story is the
symmetric group, with the alternating group playing the PSL role;
alternating_group_comparison juxtaposes those orders without pretending
the formula extends.
"""

from __future__ import annotations

import itertools
import math

from .errors import BudgetExceeded, DegenerateQ
from .gf import FiniteField, factor_prime_power, make_field
from .qcalc import MAX_Q_SERIES_N, q_factorial
from .record import Record

DEFAULT_BRUTE_CAP = 3 ** 9
DEFAULT_FACTORIAL_CAP = 12
# n^2 * bit_length(q) bounds the bits of |GL_n(F_q)| < q^(n^2), and so of
# every order here; the CLI also caps the value of qbinom --at by it.  At
# the cap, on a 2-core VM, `group order GL 724 2` takes about 0.2 s and
# `GL 457 16` about 0.4 s as a process, printing included
MAX_GL_ORDER_BITS = 2 ** 20


class GroupOrderReport(Record):
    family: str
    n: int
    q: int
    order: int
    method: str  # "formula" or "brute_force"


def _check_order_bits(family: str, n: int, q: int) -> None:
    """Raise BudgetExceeded when n^2 * bit_length(q), a bound on the bits
    of the order, is over MAX_GL_ORDER_BITS."""
    bound = n * n * q.bit_length()
    if bound > MAX_GL_ORDER_BITS:
        raise BudgetExceeded(
            f"|{family}_{n}(F_{q})| has up to n^2 * bit_length(q) = {bound} bits, "
            f"over the cap of {MAX_GL_ORDER_BITS}")


def gl_order(n: int, q: int) -> int:
    """|GL_n(F_q)| = (q^n - 1)(q^n - q)...(q^n - q^(n-1)).

    The n factors are multiplied as a balanced product tree, neighbours
    paired level by level, so each large product has halves of about
    equal size, where Python's Karatsuba multiplication is subquadratic.
    A running product multiplies the growing order by one short factor n
    times, quadratic in its size.  Raises BudgetExceeded past the bits
    bound of _check_order_bits.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    factor_prime_power(q)
    _check_order_bits("GL", n, q)
    factors = [q ** n - q ** i for i in range(n)]
    while len(factors) > 1:
        factors = [math.prod(factors[j:j + 2]) for j in range(0, len(factors), 2)]
    return factors[0]


def sl_order(n: int, q: int) -> int:
    """|SL_n(F_q)|; the determinant maps GL onto the q - 1 nonzero scalars."""
    order = gl_order(n, q)
    assert order % (q - 1) == 0
    return order // (q - 1)


def pgl_order(n: int, q: int) -> int:
    """|PGL_n(F_q)|; the center of GL is the q - 1 scalar matrices, so |PGL| = |SL|."""
    return sl_order(n, q)


def psl_order(n: int, q: int) -> int:
    """|PSL_n(F_q)| by the closed formula (see module docstring).

    q = 1 is an explicit error, not a silent 0: the formula's remaining
    factors amount to 0/n there and no value is invented for them.  Past
    the q-series cap on n, or the bits bound of gl_order, it raises
    BudgetExceeded.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if q == 1:
        raise DegenerateQ(
            "q = 1: the factors (q-1)^(n-1)/gcd(n, q-1) amount to 0/n, "
            "which has no agreed value; see alternating_group_comparison "
            "for the q = 1 analogy")
    factor_prime_power(q)
    if n <= MAX_Q_SERIES_N:  # past it, q_factorial's cap message comes first
        _check_order_bits("PSL", n, q)
    factorial = q_factorial(n)
    numerator = (q ** math.comb(n, 2)
                 * (q - 1) ** (n - 1)
                 * factorial.evaluate(q))
    g = math.gcd(n, q - 1)
    assert numerator % g == 0
    return numerator // g


def group_order(family: str, n: int, q: int) -> GroupOrderReport:
    """Dispatch by family name: GL, SL, PGL, or PSL."""
    fam = family.upper()
    table = {"GL": gl_order, "SL": sl_order, "PGL": pgl_order, "PSL": psl_order}
    if fam not in table:
        raise ValueError(f"unknown family {family!r}; expected GL, SL, PGL or PSL")
    return GroupOrderReport(fam, n, q, table[fam](n, q), "formula")


def _det(rows: list[tuple[int, ...]], field: FiniteField) -> int:
    # cofactor expansion along the first row, on element codes; fine at
    # brute-force sizes
    n = len(rows)
    if n == 1:
        return rows[0][0]
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    total = 0
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = mul[rows[0][j]][_det(minor, field)]
        total = add[total][term if j % 2 == 0 else neg[term]]
    return total


def brute_force_psl_order(n: int, q: int, cap: int = DEFAULT_BRUTE_CAP) -> int:
    """Recount |PSL_n(F_q)| by enumerating all q^(n^2) matrices.

    Counts the matrices of determinant one, then divides by the number
    of scalar matrices lambda*I with lambda^n = 1 (the center of SL).
    Entries are element codes, so 0 and 1 are the field's zero and one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    field = make_field(q)
    if q ** (n * n) > cap:
        raise BudgetExceeded(
            f"q^(n^2) = {q ** (n * n)} matrices exceed the cap of {cap}")
    det_one = 0
    for entries in itertools.product(range(q), repeat=n * n):
        rows = [entries[i * n:(i + 1) * n] for i in range(n)]
        if _det(rows, field) == 1:
            det_one += 1
    center = 0
    for lam in range(1, q):
        power = 1
        for _ in range(n):
            power = field.mul_table[power][lam]
        center += power == 1
    assert det_one % center == 0
    return det_one // center


class AlternatingComparison(Record):
    n: int
    alternating_order: int   # n!/2, the PSL-like normal subgroup at q = 1
    symmetric_order: int     # n!, the full collineation group at q = 1
    alternating_is_simple: bool


def alternating_group_comparison(n: int,
                                 max_n: int = DEFAULT_FACTORIAL_CAP) -> AlternatingComparison:
    """Juxtapose |A_n| = n!/2 with the order-1 collineation count n!.

    The full collineation group of the order-1 geometry on n points is
    the symmetric group (every permutation preserves the power set); its
    commutator subgroup A_n is the q = 1 stand-in for PSL_n.  Purely
    informational: no q = 1 formula evaluation is attempted.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > max_n:
        raise BudgetExceeded(f"n = {n} exceeds the factorial cap of {max_n}")
    fact = math.factorial(n)
    return AlternatingComparison(n, fact // 2, fact, n >= 5)
