"""Exact linear algebra over F_q: RREF, canonical subspaces, enumeration.

A subspace of F_q^n is represented by the reduced row echelon form of
any spanning set; RREF is unique, so two subspaces are equal iff their
canonical basis matrices are equal.  Enumeration of all k-dimensional
subspaces generates RREF matrices directly, choosing a pivot-column
pattern and filling the free entries, so each subspace is produced
exactly once with no dedup bookkeeping.  The span-and-dedupe route is
deliberately NOT used here; it lives in the test suite as the
independent oracle.

SubspaceCanonical's constructor checks every row of the basis it is
given; every subspace formed from a span (span_canonical, the join, the
meet, the complement) goes through it.  The enumerator runs the same row
checks once per pivot pattern and row filling instead of once per
basis, then builds its bases through a private classmethod that skips
them.

Vectors are sequences of element codes, indexed straight into the
field's tables; span_canonical (through rref) and contains refuse an
entry that is not a code of the field and a vector whose length is not
the ambient dimension.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from .errors import BudgetExceeded, DimensionMismatch, FieldMismatch
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


class SubspaceCanonical:
    """A subspace of F_q^n held as its unique full-rank RREF basis of code rows."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: FiniteField, ambient: int,
                 basis: tuple[tuple[int, ...], ...]):
        # bottom row first, so each row meets the pivots below it already found
        pivots: list[int] = []
        for row in reversed(basis):
            pivots.append(_row_pivot(field.q, ambient, row, pivots))
        pivots.reverse()
        _check_pivots(pivots)
        self.field = field
        self.ambient = ambient
        self.basis = basis
        self.pivots = tuple(pivots)

    @classmethod
    def _from_checked_rows(cls, field: FiniteField, ambient: int,
                           basis: tuple[tuple[int, ...], ...],
                           pivots: tuple[int, ...]) -> "SubspaceCanonical":
        """An instance whose rows already passed _row_pivot with these pivots.

        No check runs here: the caller must have checked the pivots with
        _check_pivots and each row against the pivots below it.
        """
        self = cls.__new__(cls)
        self.field = field
        self.ambient = ambient
        self.basis = basis
        self.pivots = pivots
        return self

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector: Sequence[int]) -> bool:
        """Membership test by reducing a vector of element codes against the basis."""
        field = self.field
        if len(vector) != self.ambient:
            raise DimensionMismatch("vector length differs from ambient dimension")
        # a negative code would index the tables from the end
        if vector and (min(vector) < 0 or max(vector) >= field.q):
            raise ValueError(f"matrix entry is not a code of F_{field.q}")
        v = vector
        add, mul, neg = field.add_table, field.mul_table, field.neg_table
        for row, piv in zip(self.basis, self.pivots):
            if v[piv]:
                times = mul[neg[v[piv]]]
                v = [add[a][times[b]] for a, b in zip(v, row)]
        return not any(v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubspaceCanonical):
            return NotImplemented
        return (self.basis == other.basis and self.ambient == other.ambient
                and self.field.key == other.field.key)

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

    def __repr__(self) -> str:
        return f"SubspaceCanonical(dim={self.dim}, ambient={self.ambient}, rows={self.basis})"


def span_canonical(field: FiniteField, ambient: int,
                   vectors: Iterable[Sequence[int]]) -> SubspaceCanonical:
    """Canonical representative of the span of vectors of element codes."""
    reduced, rank = rref(field, vectors)
    if reduced and len(reduced[0]) != ambient:
        raise DimensionMismatch("vector length differs from ambient dimension")
    return SubspaceCanonical(field, ambient, reduced[:rank])


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


def enumerate_subspaces(q: int, n: int, k: int,
                        budget: int = DEFAULT_SUBSPACE_BUDGET) -> list[SubspaceCanonical]:
    """All k-dimensional subspaces of F_q^n, each exactly once.

    Deterministic order: pivot-column patterns in lexicographic order,
    then free entries filled in canonical element order.  Raises
    BudgetExceeded if the projected output size is over budget, or if n
    is over the q-series cap: past it [n choose k]_q is formed only for
    k = 0 and k = n, where the one basis still holds k rows of n codes.

    The checks of SubspaceCanonical run once per pivot pattern (the
    pivots strictly increase) and once per row filling (_row_pivot,
    against the pivots of the rows below), not once per basis: every
    basis of a pattern is a choice of one checked filling per row, so it
    passes them all, and it is built by _from_checked_rows with the
    pattern's shared pivots tuple.
    """
    if not 0 <= k <= n:
        raise ValueError("requires 0 <= k <= n")
    field = make_field(q)
    if n > MAX_Q_SERIES_N:
        raise over_q_series_cap(n, f"[{n} choose {k}] has degree {k * (n - k)}")
    projected = q_binomial_recurrence(n, k).evaluate(q)
    if projected > budget:
        raise BudgetExceeded(
            f"{projected} subspaces exceed the budget of {budget}")
    make = SubspaceCanonical._from_checked_rows
    out: list[SubspaceCanonical] = []
    for pivots in itertools.combinations(range(n), k):
        _check_pivots(pivots)
        # the free entries of different rows vary independently, so the
        # matrices are the product of each row's fillings, last row fastest
        choices = []
        for i, p in enumerate(pivots):
            fillings = _row_fillings(q, n, pivots, i)
            for row in fillings:
                if _row_pivot(q, n, row, pivots[i + 1:]) != p:
                    raise ValueError(f"a filling of pivot column {p} starts elsewhere")
            choices.append(fillings)
        out.extend(make(field, n, rows, pivots)
                   for rows in itertools.product(*choices))
    return out



def _check_compatible(a: SubspaceCanonical, b: SubspaceCanonical) -> None:
    if a.field.key != b.field.key:
        raise FieldMismatch("subspaces over different fields")
    if a.ambient != b.ambient:
        raise DimensionMismatch("subspaces of different ambient dimension")


def subspace_join(a: SubspaceCanonical, b: SubspaceCanonical) -> SubspaceCanonical:
    """Span of the two subspaces (their least upper bound)."""
    _check_compatible(a, b)
    return span_canonical(a.field, a.ambient, a.basis + b.basis)


def orthogonal_complement(s: SubspaceCanonical) -> SubspaceCanonical:
    """Solutions x of B.x = 0 for the basis B, canonicalized.

    The standard bilinear form on F_q^n is nondegenerate, so the
    complement has dimension n - dim(s) and double complement returns s;
    that is all the meet computation below needs.
    """
    n = s.ambient
    neg = s.field.neg_table
    pivot_set = set(s.pivots)
    free_cols = [j for j in range(n) if j not in pivot_set]
    vectors = []
    for f in free_cols:
        v = [0] * n
        v[f] = 1
        for row, piv in zip(s.basis, s.pivots):
            v[piv] = neg[row[f]]
        vectors.append(v)
    return span_canonical(s.field, n, vectors)


def subspace_meet(a: SubspaceCanonical, b: SubspaceCanonical) -> SubspaceCanonical:
    """Intersection of the two subspaces, via complement duality."""
    _check_compatible(a, b)
    return orthogonal_complement(
        subspace_join(orthogonal_complement(a), orthogonal_complement(b)))
