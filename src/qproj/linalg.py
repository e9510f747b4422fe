"""Exact linear algebra over F_q: RREF, canonical subspaces, enumeration.

A subspace of F_q^n is its RREF basis: a tuple of code rows, unique for
the subspace, so two subspaces are equal iff their bases are equal.
Enumeration of all k-dimensional subspaces generates RREF matrices
directly, choosing a pivot-column pattern and filling the free entries,
so each subspace is produced exactly once with no dedup bookkeeping.
The span-and-dedupe route is deliberately NOT used here; it lives in
the test suite as the independent oracle, over span_canonical.

_rref_bases streams the enumeration as (basis, pivots) pairs, and
enumerate_subspaces is the list of its bases.  The CLI's subspace
count and listing, the projective-space build and the affine
decomposition read the stream itself.

The rows of a basis pass two checks: _row_pivot on each row (against
the pivots of the rows below it) and _check_pivots on the pivots.
span_canonical runs them on every basis it returns; the stream runs
them once per pivot pattern and row filling instead of once per basis.

Vectors are sequences of element codes, indexed straight into the
field's tables; span_canonical (through rref) refuses an entry that is
not a code of the field and a vector whose length is not the ambient
dimension.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence

from .errors import BudgetExceeded, DimensionMismatch
from .gf import FiniteField, make_field
from .qcalc import MAX_Q_SERIES_N, over_q_series_cap, q_binomial_recurrence

DEFAULT_SUBSPACE_BUDGET = 10 ** 6


def rref(field: FiniteField, rows: Iterable[Sequence[int]]
         ) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Reduced row echelon form and rank of a matrix of element codes.

    Exact Gaussian elimination, indexing the field's tables directly.
    """
    add, mul, neg, inv = field.add_table, field.mul_table, field.neg_table, field.inv_table
    rows = [list(r) for r in rows]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged rows")
        if row and (min(row) < 0 or max(row) >= field.q):
            raise ValueError(f"matrix entry is not a code of F_{field.q}")
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = mul[inv[rows[r][col]]]
        rows[r] = [scale[c] for c in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col]:
                times = mul[neg[rows[i][col]]]
                rows[i] = [add[a][times[b]] for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), r


def _check_pivots(pivots: Sequence[int]) -> None:
    """Refuse pivot columns that do not strictly increase."""
    if any(a >= b for a, b in zip(pivots, pivots[1:])):
        raise ValueError("pivot columns must strictly increase")


def _row_pivot(q: int, ambient: int, row: tuple[int, ...],
               later: Sequence[int]) -> int:
    """Check one row of a canonical basis and return its pivot column.

    The row must have length ambient, be nonzero, hold only codes of F_q,
    have 1 as its first nonzero entry (the pivot), and be zero in the
    columns later, the pivots of the rows below it.  A row is zero before
    its own pivot, so no earlier pivot column needs a look.
    """
    if len(row) != ambient:
        raise ValueError("basis row of wrong length")
    if not any(row):
        raise ValueError("zero row in a canonical basis")
    if min(row) < 0 or max(row) >= q:
        raise ValueError(f"basis entry is not a code of F_{q}")
    piv = next(itertools.compress(itertools.count(), row))
    if row[piv] != 1:
        raise ValueError("pivot entry must be 1")
    if any(map(row.__getitem__, later)):
        raise ValueError("nonzero entry in a pivot column")
    return piv


def span_canonical(field: FiniteField, ambient: int,
                   vectors: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The RREF basis of the span of vectors of element codes.

    Each row of the basis is checked by _row_pivot against the pivots of
    the rows below it, and the pivots must strictly increase.
    """
    reduced, rank = rref(field, vectors)
    if reduced and len(reduced[0]) != ambient:
        raise DimensionMismatch("vector length differs from ambient dimension")
    basis = reduced[:rank]
    # bottom row first, so each row meets the pivots below it already found
    pivots: list[int] = []
    for row in reversed(basis):
        pivots.append(_row_pivot(field.q, ambient, row, pivots))
    _check_pivots(pivots[::-1])
    return basis


def count_independent_tuples(q: int, n: int, k: int) -> int:
    """Number of linearly independent k-tuples in F_q^n.

    The i-th vector avoids the q^(i-1) combinations of its predecessors,
    leaving q^n - q^(i-1) choices, so the count is the product of those
    factors.
    """
    if not 0 <= k <= n:
        raise ValueError("requires 0 <= k <= n")
    out = 1
    for i in range(1, k + 1):
        out *= q ** n - q ** (i - 1)
    return out


def _row_fillings(q: int, n: int, pivots: tuple[int, ...],
                  i: int) -> list[tuple[int, ...]]:
    """Every RREF row i of the pattern: 1 at its pivot, any codes in the
    columns after it that hold no pivot, zero elsewhere."""
    p = pivots[i]
    free = [j for j in range(p + 1, n) if j not in pivots]
    fillings = []
    for fill in itertools.product(range(q), repeat=len(free)):
        row = [0] * n
        row[p] = 1
        for j, c in zip(free, fill):
            row[j] = c
        fillings.append(tuple(row))
    return fillings


def _checked_fillings(q: int, n: int,
                      pivots: tuple[int, ...]) -> list[list[tuple[int, ...]]]:
    """The row fillings of one pivot pattern, each row checked.

    The pivots must strictly increase, and each filling of row i must
    pass _row_pivot against the pivots below it and start at pivots[i].
    """
    _check_pivots(pivots)
    choices = []
    for i, p in enumerate(pivots):
        fillings = _row_fillings(q, n, pivots, i)
        for row in fillings:
            if _row_pivot(q, n, row, pivots[i + 1:]) != p:
                raise ValueError(f"a filling of pivot column {p} starts elsewhere")
        choices.append(fillings)
    return choices


def _rref_bases(q: int, n: int, k: int, budget: int = DEFAULT_SUBSPACE_BUDGET
                ) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]]:
    """A stream of (basis, pivots), one per k-dimensional subspace of F_q^n.

    The k range, the field, the q-series cap and the budget are checked
    here, before the first basis; each pivot pattern's fillings are
    formed and checked only when the stream reaches it.  The free entries
    of different rows vary independently, so a pattern's bases are the
    product of each row's fillings, last row fastest, and they share the
    pattern's pivots tuple.
    """
    if not 0 <= k <= n:
        raise ValueError("requires 0 <= k <= n")
    make_field(q)
    if n > MAX_Q_SERIES_N:
        raise over_q_series_cap(n, f"[{n} choose {k}] has degree {k * (n - k)}")
    projected = q_binomial_recurrence(n, k).evaluate(q)
    if projected > budget:
        raise BudgetExceeded(
            f"{projected} subspaces exceed the budget of {budget}")
    return itertools.chain.from_iterable(
        zip(itertools.product(*_checked_fillings(q, n, pivots)),
            itertools.repeat(pivots))
        for pivots in itertools.combinations(range(n), k))


def enumerate_subspaces(q: int, n: int, k: int,
                        budget: int = DEFAULT_SUBSPACE_BUDGET
                        ) -> list[tuple[tuple[int, ...], ...]]:
    """The RREF basis of every k-dimensional subspace of F_q^n, each once.

    Deterministic order: pivot-column patterns in lexicographic order,
    then free entries filled in canonical element order.  Raises
    BudgetExceeded if the projected output size is over budget, or if n
    is over the q-series cap: past it [n choose k]_q is formed only for
    k = 0 and k = n, where the one basis still holds k rows of n codes.
    """
    return [basis for basis, _ in _rref_bases(q, n, k, budget)]
