"""Finite incidence geometries: constructors and axiom validators.

A geometry is a finite point set P, a family L of subsets of P called
subspaces, and a dimension value for each member of L.  The family is
stored as bitmasks over the point index space, and all meets and joins
are computed lattice-theoretically from L itself (greatest lower bound
and least upper bound under containment), never from coordinates, so
the validators apply to hand-entered geometries as well as constructed
ones.

The six axioms checked by validate_axioms:

  1. every pair of subspaces has a greatest lower bound (meet) and a
     least upper bound (join) within L under containment;
  2. dim is strictly increasing on proper containment;
  3. the empty set and every singleton belong to L;
  4. dim(S) = -1 exactly for S empty, dim(S) = 0 exactly for singletons;
  5. the modular law dim(S) + dim(T) = dim(meet) + dim(join);
  6. every dim-1 subspace (line) has exactly q + 1 points, for a single
     consistent order q, matching the claimed order when one is given.

Projective spaces over F_q deliver such geometries for prime powers q;
the power set of an n-element set (a Boolean algebra, with dim = size
minus one) delivers exactly the order-1 case, which is the reason this
validator treats q = 1 as a first-class citizen.  Order 0 is out of
scope and rejected at input validation.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from functools import cached_property

from .errors import BudgetExceeded, GeometryFormatError
from .gf import make_field
from .lattice import (LATTICE_CAP, _bits, _coatom_intersections, _cover_count,
                      _full_row, _Lattice, _screened_row)
from .linalg import _rref_bases
from .qcalc import q_binomial_quotient, q_binomial_recurrence, q_integer
from .record import Record

DEFAULT_BOOLEAN_CAP = 12
DEFAULT_COLLINEATION_CAP = 9
DEFAULT_COLLINEATION_NODES = 10 ** 7  # search nodes; about 2 us each on a 2-core VM
DEFAULT_GEOMETRY_BUDGET = 10 ** 6


class IncidenceGeometry(Record):
    """Plain container; constructors guarantee the axioms, validators check them.

    subspaces[i] is a bitmask over point indices; dims[i] is its declared
    dimension.  Nothing is enforced here beyond structural sanity (every
    mask a subset of the point set, and none listed twice, as L is a set
    of subsets), since the validators must be able to inspect corrupted
    geometries.
    """

    points: tuple[str, ...]
    subspaces: tuple[int, ...]
    dims: tuple[int, ...]
    claimed_order: int | None = None

    def __post_init__(self):
        if len(self.subspaces) != len(self.dims):
            raise ValueError("subspaces and dims must have equal length")
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate point identifiers")
        if any(m >> len(self.points) for m in self.subspaces):
            raise ValueError("a subspace mask has bits outside the point set")
        first: dict[int, int] = {}
        for j, m in enumerate(self.subspaces):
            i = first.setdefault(m, j)
            if i != j:
                raise ValueError(f"subspaces[{j}]: duplicate subspace (same point "
                                 f"set as subspaces[{i}])")

    @classmethod
    def from_point_sets(cls, points: Sequence[str],
                        subspace_specs: Iterable[tuple[int, Iterable[str]]],
                        claimed_order: int | None = None) -> "IncidenceGeometry":
        points = tuple(points)
        index = {name: i for i, name in enumerate(points)}
        masks, dims = [], []
        for dim, names in subspace_specs:
            mask = 0
            for name in names:
                mask |= 1 << index[name]
            masks.append(mask)
            dims.append(dim)
        return cls(points, tuple(masks), tuple(dims), claimed_order)

    def subspace_point_names(self, i: int) -> tuple[str, ...]:
        return tuple(self.points[b] for b in _bits(self.subspaces[i]))

    def describe_subspace(self, i: int) -> str:
        names = ",".join(self.subspace_point_names(i))
        return f"{{{names}}}(dim {self.dims[i]})"

    @cached_property
    def _lattice(self) -> "_Lattice":
        """The containment lattice, its meets and joins, built on first use."""
        return _Lattice(self)

    @cached_property
    def _axioms(self) -> tuple[dict[int, str | None], int | None]:
        """The six axioms' witnesses and the order, found on first use."""
        return _axiom_witnesses(self)


class Check(Record):
    """One numbered check of a report; a failed check carries a witness."""

    number: int
    description: str
    passed: bool
    witness: str | None = None


class Report(Record):
    """The record every verdict report shares: a frozen ``Record`` with a
    ``passed`` property, serialised by ``as_dict``.

    ``as_dict`` lists the fields in declaration order, each tuple of
    ``Check`` records as a list of dicts, and then ``"passed"``.  A field
    that a report gains is serialised with no further code.
    """

    def as_dict(self) -> dict:
        out = {k: list(v) if isinstance(v, tuple) else v
               for k, v in self._asdict().items()}
        out["passed"] = self.passed
        return out


def _checks(descriptions: dict[int, str],
            witnesses: dict[int, str | None]) -> tuple[Check, ...]:
    return tuple(Check(k, text, witnesses[k] is None, witnesses[k])
                 for k, text in descriptions.items())


class AxiomReport(Report):
    axioms: tuple[Check, ...]
    order: int | None       # inferred from line sizes, else the claimed order
    dimension: int | None   # dim of the full point set, if it is in L

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.axioms)


_AXIOM_DESCRIPTIONS = {
    1: "meets and joins exist within L (lattice closure)",
    2: "dim is strictly increasing on proper containment",
    3: "the empty set and all singletons belong to L",
    4: "dim = -1 exactly on the empty set, dim = 0 exactly on singletons",
    5: "modular law: dim(S) + dim(T) = dim(meet) + dim(join)",
    6: "every line has exactly q + 1 points for one consistent order q",
}


def _line_order(g: IncidenceGeometry) -> tuple[int | None, str | None]:
    """Order from the first line (else the claimed order) and axiom 6's witness."""
    masks, dims, claimed = g.subspaces, g.dims, g.claimed_order
    lines = [i for i, d in enumerate(dims) if d == 1]
    if not lines:
        return claimed, None
    first = lines[0]
    first_size = masks[first].bit_count()
    order = first_size - 1
    for i in lines:
        size = masks[i].bit_count()
        if size != first_size:
            return order, (f"line {g.describe_subspace(i)} has {size} points but "
                           f"line {g.describe_subspace(first)} has {first_size}")
    if order < 1:
        return order, (f"line {g.describe_subspace(first)} has {first_size} "
                       f"point(s); inferred order {order} is out of scope")
    if claimed is not None and claimed != order:
        return order, (f"lines have {first_size} points (order {order}) but "
                       f"the claimed order is {claimed}")
    return order, None


def _geometry_dimension(g: IncidenceGeometry) -> int | None:
    full = (1 << len(g.points)) - 1
    for i, m in enumerate(g.subspaces):
        if m == full:
            return g.dims[i]
    return None


def _axiom_witnesses(g: IncidenceGeometry
                     ) -> tuple[dict[int, str | None], int | None]:
    """Witness (or None) of each axiom on L, and the order from _line_order.

    Axioms 2, 3, 4 and 6 are a pass over the members each.  For axioms 1
    and 5:

      closed     the point set is a member and _coatom_intersections
                 holds.  Then every pairwise intersection is in L, and
                 with the point set as a top L is a lattice whose meet is
                 intersection (a finite meet-semilattice with a top is a
                 lattice), so axiom 1 has no witness.  This reads no dim.
      certified  closed, axioms 2 to 4 hold and _modular_certificate
                 passes: neither axiom has a witness, and no pair is
                 read.

    Otherwise axioms 1 and 5 share one pass over the pairs i <= j
    (_pair_witnesses), told whether L is closed and, where axiom 2
    holds, given the dim layers for its screened rows.  The witnesses
    are each axiom's first counterexample in that order.
    """
    lat = g._lattice
    masks, dims = g.subspaces, g.dims
    index_of, above = lat.index_of, lat.above

    # axiom 2: the members properly above i with no larger dim are
    # above[i] minus i itself within at_most[dims[i]]
    ax2_witness = None
    at_dim: dict[int, int] = {}  # dim d -> the members of dim d
    for j, d in enumerate(dims):
        at_dim[d] = at_dim.get(d, 0) | 1 << j
    at_most: dict[int, int] = {}  # dim d -> the members of dim at most d
    running = 0
    for d in sorted(at_dim):
        running = at_most[d] = running | at_dim[d]
    for i, d in enumerate(dims):
        proper = above[i] & ~(1 << i) & at_most[d]
        if proper:
            j = (proper & -proper).bit_length() - 1
            ax2_witness = (f"{g.describe_subspace(i)} is properly contained in "
                           f"{g.describe_subspace(j)} but dim does not increase")
            break

    ax3_witness = None
    if 0 not in index_of:
        ax3_witness = "the empty set is not in L"
    else:
        for b in range(len(g.points)):
            if (1 << b) not in index_of:
                ax3_witness = f"singleton {{{g.points[b]}}} is not in L"
                break

    ax4_witness = None
    for i, m in enumerate(masks):
        size = m.bit_count()
        if (dims[i] == -1) != (size == 0) or (dims[i] == 0) != (size == 1):
            ax4_witness = f"{g.describe_subspace(i)} has {size} point(s)"
            break

    top = (1 << len(g.points)) - 1
    closed = top in index_of and _coatom_intersections(lat, top)
    if (closed and not (ax2_witness or ax3_witness or ax4_witness)
            and _modular_certificate(lat, dims, at_dim)):
        ax1_witness = ax5_witness = None
    else:
        ax1_witness, ax5_witness = _pair_witnesses(
            g, closed, None if ax2_witness else at_dim)

    order, ax6_witness = _line_order(g)
    witnesses = {1: ax1_witness, 2: ax2_witness, 3: ax3_witness,
                 4: ax4_witness, 5: ax5_witness, 6: ax6_witness}
    return witnesses, order


def _modular_certificate(lat: _Lattice, dims: Sequence[int],
                         at_dim: dict[int, int]) -> bool:
    """True only if every pair of members has a meet and a join in L and
    satisfies the modular law: axioms 1 and 5 then have no witness.

    The caller has checked that the point set top is a member, that
    axioms 2, 3 and 4 hold and that check 3 passes
    (_coatom_intersections, run first since the pair pass reads it too);
    this runs checks 1 and 2 (lattice._cover_count).  at_dim maps each
    dim d to the bitset of the members of dim d.  Write d(w) for the dim
    of w.  The three checks:

      1. upper count: for each member w, with U_w the members above w of
         dim d(w) + 1, the sum of C(|U_w inside u|, 2) over the members
         u above w of dim d(w) + 2 is C(|U_w|, 2);
      2. lower count: dually, with D_w the members below w of dim
         d(w) - 1, the sum of C(|D_w above v|, 2) over the members v
         below w of dim d(w) - 2 is C(|D_w|, 2);
      3. intersections: with the coatoms the members other than top that
         lie in no member but themselves and top, each member other than
         top is the intersection of the coatoms containing it, and each
         coatom meets each member in L.

    Check 3 puts every pairwise intersection in L: S & T is S & H_1 &
    ... & H_k over the coatoms H_i containing T, and each step meets a
    member with a coatom.  With top, L is then a lattice whose meet is
    intersection (a finite meet-semilattice with a top is a lattice), so
    axiom 1 holds.  Given the lattice and axiom 2, a pair y != z in U_w
    is counted in check 1 at most once, at u = y join z: y join z
    properly contains y, so by axiom 2 its dim is at least d(w) + 2 =
    d(u), and each u counted contains it, so by axiom 2 again is it.  So
    check 1 holds iff every such pair has a join of dim d(w) + 2, and
    dually check 2 holds iff every pair in D_w has a meet of dim d(w) - 2.

    Gradedness follows: for every member x and point p outside x,
    d(x join p) = d(x) + 1, by induction on d(x), which is at least -1
    by axioms 2 to 4.  For x empty that is axioms 3 and 4.  Otherwise
    take a lower cover x'' of x and a point a in x outside x''.  Then
    x = x'' join a, so by induction d(x) = d(x'') + 1 = d(x'' join p).
    Both x and x'' join p lie in U_x'', and p tells them apart, so check
    1 gives d(x join p) = d(x'') + 2 = d(x) + 1.  A cover u of x is
    x join p for any point p of u outside x, so dim rises by exactly one
    on every cover: L is graded with rank dim + 1, and U_w and D_w are
    the upper and lower covers of w.
    Checks 1 and 2 then say that L is upper and lower semimodular, so L
    is modular (Stanley, Enumerative Combinatorics I, 2nd ed., Prop.
    3.3.2; Birkhoff, Lattice Theory, 3rd ed., ch. IV): rank(S) + rank(T)
    = rank(meet) + rank(join) on every pair, which is axiom 5.

    Conversely, where axioms 1 to 5 hold the checks pass, so on input
    that passes the axioms the certificate never fails.  Checks 1 and 2
    are then semimodularity.  For check 3, each meet is the intersection
    (every common point is a singleton of L below both), so every
    intersection is in L; and L is modular with each member the join of
    its points, so L is complemented (Birkhoff, ch. IV), its dual is
    complemented modular too, and each member is the meet of the
    coatoms above it.

    Cost: one AND and one bit count of |L|-bit ints per pair (w, u) of
    members two dims apart in each count (67,584 each way on Boolean(12)),
    then one AND per coatom containing each member and one set lookup per
    coatom and member (4,096 * 12 on Boolean(12), 2,664 * 121 on P4(F3)),
    where a lookup of every pairwise intersection would take |L|^2/2.
    """
    return (_cover_count(lat.above, lat.below, dims, at_dim, 1)
            and _cover_count(lat.below, lat.above, dims, at_dim, -1))


def _pair_witnesses(g: IncidenceGeometry, closed: bool,
                    at_dim: dict[int, int] | None
                    ) -> tuple[str | None, str | None]:
    """Witnesses of axioms 1 and 5 from one pass over the pairs i <= j of
    members, row by row, which stops once both are settled: axiom 1 by
    its witness or by closed (it has none, see _axiom_witnesses), axiom
    5 by its witness.

    A full row (lattice._full_row) reads the meets and joins of member i
    with each member j >= i in order, through _Lattice.meet and join,
    and yields the row's first pair missing one (axiom 1) and its first
    pair whose dims break the modular law (axiom 5), each while that
    axiom is unsettled, so the rows in order give each axiom's first
    witness in row-major order.  at_dim, the members of each dim, is
    given where axiom 2 holds.  Then each row after axiom 1 is settled
    is screened instead (lattice._screened_row): there the least dim of
    a common upper bound and the greatest dim of a common lower bound,
    read for the whole row from bitset layers, are the dims of the join
    and the meet where these exist, so only the pairs where the modular
    law can fail are read, and the row's first axiom-5 witness is the
    same.

    Cost: a full row reads its pairs up to the witnesses it still needs,
    and all of them when it lacks one; a screened row makes one OR of
    |L|-bit ints per member comparable with i.  Full rows are paid up to
    axiom 1's first witness, or throughout on input that fails axiom 2
    until both witnesses are found.
    """
    lat, dims = g._lattice, g.dims
    layers = sorted(at_dim.items()) if at_dim is not None else None
    ax1_witness = ax5_witness = None
    for i in range(len(dims)):
        need1 = not (closed or ax1_witness)
        if layers is not None and not need1:
            bad = _screened_row(lat, dims, layers, i)
        else:
            missing, bad = _full_row(lat, dims, i, need1, ax5_witness is None)
            if missing:
                j, which = missing
                ax1_witness = (f"no {which} in L for S={g.describe_subspace(i)}"
                               f" and T={g.describe_subspace(j)}")
        if bad:
            j, meet, join = bad
            ax5_witness = (
                f"S={g.describe_subspace(i)}, T={g.describe_subspace(j)}: "
                f"{dims[i]} + {dims[j]} != {dims[meet]} + {dims[join]} "
                f"(meet {g.describe_subspace(meet)}, join {g.describe_subspace(join)})")
        if (closed or ax1_witness) and ax5_witness:
            break
    return ax1_witness, ax5_witness


def validate_axioms(g: IncidenceGeometry) -> AxiomReport:
    """Check all six axioms; failures are reported with a witness, never thrown.

    Witnesses are the first counterexample in canonical order (subspace
    index order, pairs with i <= j), so reports are deterministic.  Where
    axioms 2, 3 and 4 hold and the point set is a member, axioms 1 and 5
    are first tried by a certificate from the covers and the coatoms
    (_modular_certificate); it holds exactly when both axioms do, and
    then no pair is read.  Otherwise a pass over the pairs finds the
    witnesses and stops once both axioms are settled.  When every
    intersection is in L, axiom 1 is settled before any pair is read;
    where axiom 2 holds, the rows after axiom 1 is settled read only the
    pairs that a screen by dim layers cannot clear (_axiom_witnesses,
    _pair_witnesses).  Raises BudgetExceeded when |L| is over
    LATTICE_CAP, which bounds the pairs read.
    """
    witnesses, order = g._axioms
    return AxiomReport(_checks(_AXIOM_DESCRIPTIONS, witnesses), order,
                       _geometry_dimension(g))


# ---------------------------------------------------------------------------
# consequences of the axioms (certified on a geometry that passes them)

class DerivedPropertiesReport(Report):
    properties: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)


_PROPERTY_DESCRIPTIONS = {
    1: "every subspace induces a projective geometry of the same order",
    2: "meet coincides with set intersection",
    3: "two distinct points lie on one line; two lines share at most one point",
    4: "joining one outside point raises dimension by exactly one",
    5: "a hyperplane contains T or meets it one dimension down",
}


def check_derived_properties(g: IncidenceGeometry) -> DerivedPropertiesReport:
    """Certify five structural consequences of the axioms.

      1. each subspace, with the members of L it contains, is itself a
         projective geometry of the same order;
      2. the meet of any two subspaces is exactly their set intersection;
      3. two distinct points lie on exactly one line, and two distinct
         lines share at most one point;
      4. for S in L and a point x outside S, dim(S join {x}) = dim(S)+1;
      5. for a hyperplane S (dim = dim(P)-1) and any T, either T is
         contained in S or dim(T meet S) = dim(T) - 1.

    All six axioms passing on L (IncidenceGeometry._axioms, the pass
    validate_axioms reports) makes every property pass, so the report is
    built with no further work (Birkhoff, Lattice Theory, 3rd ed., ch.
    IV):

      1. needs the axioms.  Property 1 on S is the six axioms on the
         interval [empty set, S]: the members inside S, with S as the top
         and L's order as the claimed order.  For axioms 1 and 5, axioms
         1 and 5 on L make L a modular lattice, and each interval [empty
         set, S] of it is a sublattice with the same meets and joins: S
         is an upper bound of any two members inside it, so their join
         lies inside S, and so does their meet.  So every pair of the
         interval has its meet and join there, with the dims of L, and
         obeys the modular law.  For axiom 2, a containment inside S is
         one of L.  Axiom 3 needs the singletons of the points of S,
         which are in L and inside S, and axiom 4 holds on each member on
         its own.  For axiom 6, every line of L has order + 1 points,
         order >= 1 and the claimed order agrees, and an interval with no
         line returns that order.
      2. needs axioms 1 and 3.  Each point of S and T is a singleton in
         L and so a common lower bound; it lies inside the meet, which
         is then their intersection.
      3. needs property 4 and axiom 2.  The join of two points is a line
         by property 4, and it lies inside every line through both, so
         axiom 2 makes it equal to each of them: it is the only one, as
         L lists each point set once.  Two lines sharing points a != b
         would put that pair on two lines.
      4. needs axioms 1, 3, 4 and 5.  Take axiom 5 on the pair (S, {x}):
         their meet is the empty member, of dim -1, and the singleton
         has dim 0, so the join has dim dim(S) + 1.
      5. needs axioms 1, 2 and 5.  The join of a hyperplane S with a T
         outside it properly contains S, so axiom 2 gives it dim n, and
         the modular law gives dim(T meet S) = dim(T) - 1.

    Where an axiom fails, raises ValueError naming the first one, as
    subspace_census refuses a geometry with no full-set member: the
    properties are consequences of the axioms, not checks of their own,
    and geometry check skips them there.  Cost: nothing beyond the one
    axiom pass shared with validate_axioms.
    """
    axioms, _ = g._axioms
    failed = next((k for k, w in axioms.items() if w is not None), None)
    if failed is not None:
        raise ValueError(f"geometry fails axiom {failed} ({axioms[failed]}); "
                         f"validate first")
    return DerivedPropertiesReport(
        _checks(_PROPERTY_DESCRIPTIONS, dict.fromkeys(_PROPERTY_DESCRIPTIONS)))


# ---------------------------------------------------------------------------
# counting checks

PointCountCheck = namedtuple("PointCountCheck", "expected actual passed")


def _resolved_order(g: IncidenceGeometry) -> int:
    order, _ = _line_order(g)
    return order if order is not None else 1


def point_count_check(g: IncidenceGeometry) -> PointCountCheck:
    """Compare |P| with 1 + q + ... + q^n for the inferred order and dimension."""
    q = _resolved_order(g)
    n = _geometry_dimension(g)
    if n is None:
        return PointCountCheck(expected=-1, actual=len(g.points), passed=False)
    expected = q_integer(n + 1).evaluate(q)
    actual = len(g.points)
    return PointCountCheck(expected, actual, expected == actual)


class CensusReport(Report):
    counts: dict[int, int]
    expected: dict[int, int]
    recurrence_passed: bool
    order: int
    dimension: int

    @property
    def passed(self) -> bool:
        return self.counts == self.expected and self.recurrence_passed


def subspace_census(g: IncidenceGeometry) -> CensusReport:
    """Count subspaces of each dimension against the Gaussian binomials.

    A geometry of order q and dimension n must contain exactly
    [n+1 choose k+1]_q subspaces of dimension k.  The report also
    verifies the counting recurrence behind that fact,
    [n choose k+1] + q^(n-k) [n choose k] = [n+1 choose k+1], evaluated
    at the geometry's order for every k.  The right-hand side is the
    expected count from the recurrence route, and the left-hand terms
    come from the quotient route: the recurrence route is a loop of this
    very identity, so it could not disagree with itself.
    """
    q = _resolved_order(g)
    n = _geometry_dimension(g)
    if n is None:
        raise ValueError("geometry has no full-set subspace; validate first")
    counts = dict(sorted(Counter(g.dims).items()))  # increasing dim, as expected
    expected = {
        k: q_binomial_recurrence(n + 1, k + 1).evaluate(q)
        for k in range(-1, n + 1)
    }

    def quotient(j: int) -> int:  # [n choose j] at q, 0 outside 0 <= j <= n
        return q_binomial_quotient(n, j).evaluate(q) if 0 <= j <= n else 0

    recurrence_ok = True
    for k in range(-1, n + 1) if n >= 0 else ():
        lhs = quotient(k + 1) + q ** (n - k) * quotient(k)
        if lhs != expected[k]:
            recurrence_ok = False
            break
    return CensusReport(counts, expected, recurrence_ok, q, n)


# ---------------------------------------------------------------------------
# constructors

def _point_name(codes: tuple[int, ...]) -> str:
    return "[" + ",".join(str(c) for c in codes) + "]"


def build_projective_space(q: int, n: int,
                           budget: int = DEFAULT_GEOMETRY_BUDGET) -> IncidenceGeometry:
    """The n-dimensional projective space over F_q as an incidence geometry.

    Points are the lines through the origin of F_q^(n+1), named by their
    canonical homogeneous coordinates (first nonzero coordinate scaled
    to 1); for every vector subspace W of F_q^(n+1) the geometry carries
    the set of points lying inside W, with dimension dim(W) - 1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    field = make_field(q)  # raise NotAPrimePower / BudgetExceeded before any work
    # a running subspace count; the points go one power of q at a time, so
    # a large n is refused before any q-binomial is formed
    for total in itertools.accumulate(itertools.chain(
            [1], (q ** e for e in range(n + 1)),
            (q_binomial_recurrence(n + 1, k).evaluate(q) for k in range(2, n + 2)))):
        if total > budget:
            raise BudgetExceeded(f"P^{n}(F_{q}) has at least {total} subspaces, "
                                 f"over the budget of {budget}")

    add, mul = field.add_table, field.mul_table
    ambient = n + 1
    point_index = {basis[0]: i for i, (basis, _)
                   in enumerate(_rref_bases(q, ambient, 1, budget))}
    points = tuple(map(_point_name, point_index))
    bit = [1 << i for i in range(len(points))]
    masks = [0, *bit]
    dims = [-1] + [0] * len(points)

    # A line with RREF rows (r1, r2) holds r2 and r1 + c*r2 for each c;
    # r2 is zero at r1's pivot, so each sum is already canonical.
    through = [[] for _ in points]  # (mask, points) of the lines through each point
    below: dict[tuple, int] = {}  # basis -> mask, one level down
    # P^0 has no line
    for basis, _ in _rref_bases(q, ambient, 2, budget) if n else ():
        r1, r2 = basis
        # column j of the sums, over c: r1[j] + c*r2[j]
        columns = [list(map(add[a].__getitem__, mul[b])) if b else (a,) * q
                   for a, b in zip(r1, r2)]
        on = (point_index[r2], *map(point_index.__getitem__, zip(*columns)))
        line = (sum(map(bit.__getitem__, on)), on)
        for i in on:
            through[i].append(line)
        below[basis] = line[0]
        masks.append(line[0])
        dims.append(1)

    # Dropping r1 from the RREF basis of W leaves the RREF basis of a
    # hyperplane W'' of W, built one level down; W is W'' joined with the
    # lines from r1 to the points of W''.  row[p] is the line through r1
    # and p; the enumeration varies r1 slowest within a pivot pattern, so
    # the row is rebuilt only when r1 changes.
    row = [0] * len(points)
    for k in range(3, ambient + 1):
        level: dict[tuple, int] = {}
        r1 = None
        for basis, _ in _rref_bases(q, ambient, k, budget):
            if basis[0] != r1:
                r1 = basis[0]
                for line_mask, on in through[point_index[r1]]:
                    for i in on:
                        row[i] = line_mask
            mask = hyperplane = below[basis[1:]]
            for i in _bits(hyperplane):
                mask |= row[i]
            if k < ambient:
                level[basis] = mask
            masks.append(mask)
            dims.append(k - 1)
        below = level
    del through, below  # read by no later step
    return IncidenceGeometry(points, tuple(masks), tuple(dims), claimed_order=q)


def build_boolean_geometry(n_points: int,
                           cap: int = DEFAULT_BOOLEAN_CAP) -> IncidenceGeometry:
    """The power set of an n-element set with dim(S) = |S| - 1 (order 1)."""
    if n_points < 1:
        raise ValueError("need at least one point")
    if n_points > cap:
        raise BudgetExceeded(
            f"{n_points} points means 2^{n_points} subsets; cap is {cap}")
    points = tuple(f"p{i}" for i in range(n_points))
    all_masks = sorted(range(1 << n_points), key=lambda m: (m.bit_count(), m))
    dims = tuple(m.bit_count() - 1 for m in all_masks)
    return IncidenceGeometry(points, tuple(all_masks), dims, claimed_order=1)


def affine_decomposition(q: int, n: int,
                         budget: int = DEFAULT_GEOMETRY_BUDGET) -> list[int]:
    """Sizes of the affine pieces of P^n(F_q).

    Partition the points by the index of their first nonzero homogeneous
    coordinate: index 0 is an embedded copy of affine n-space, and the
    points with a later first nonzero coordinate are the points at
    infinity, themselves a projective space one dimension down.  The
    sizes come out as [q^n, q^(n-1), ..., q, 1].

    The points are counted one power of q at a time before any work, so a
    large n meets the budget, named as P^n(F_q), before any q-binomial is
    formed.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    make_field(q)  # raise NotAPrimePower / BudgetExceeded before any work
    total = 0
    for e in range(n + 1):
        total += q ** e
        if total > budget:
            at_least = "" if e == n else "at least "
            raise BudgetExceeded(f"P^{n}(F_{q}) has {at_least}{total} points, "
                                 f"over the budget of {budget}")
    sizes = [0] * (n + 1)
    for _, pivots in _rref_bases(q, n + 1, 1, budget):
        sizes[pivots[0]] += 1
    return sizes


# ---------------------------------------------------------------------------
# collineations

def collineation_order(g: IncidenceGeometry,
                       max_points: int = DEFAULT_COLLINEATION_CAP,
                       max_nodes: int = DEFAULT_COLLINEATION_NODES) -> int:
    """Count the point permutations that map the subspace family onto itself.

    The group G is counted without listing it.  Take a base b_1, ...,
    b_|P| of all points, each next point sharing the most members with
    those already taken.  Then |G| is the product over i of the size of
    the orbit of b_i under the pointwise stabiliser G_i of b_1 ... b_(i-1)
    (Sims).  The levels run from the last base point to the first, so the
    maps found at deeper levels lie in G_i and their orbits are known.  A
    depth-first search, stopped at its first hit, decides whether b_i -> p
    extends to a collineation for one p in each orbit of the maps found so
    far; the orbit of a refused p is refused, and each map found is kept.

    The search maps the base points in order.  Each prune is a test that
    every collineation passes, so the count is exact on any family,
    corrupted ones included; it reads member sizes, never the declared
    dims.  A collineation maps the members through a point onto those
    through its image, so the image of b_d must lie in as many members of
    each size as b_d.  For a member m through b_d, let M be the points
    mapped so far and A the image of the trace t = m & M.  A collineation
    s extending the map sends m to a member that contains A, so the
    intersection C of all members containing A exists, lies inside s(m),
    has |C| <= |m|, and meets s(M) in s(t) = A.  Each trace is tested
    once, bounded by the least |m| over the members with that trace.  An
    A in L passes, being its own C.  A trace that is itself a member must
    map onto a member, so its bound is |t| - 1, which no C containing A
    meets.  Every map the search accepts is then checked member by member
    (_is_collineation), as a permutation is a collineation iff the image
    of every member is a member (dims follow, being fixed by containment).

    max_points caps |P| before any work.  The search raises
    BudgetExceeded when it visits more than max_nodes nodes (one per
    image tried for a base point).
    """
    npts = len(g.points)
    if npts > max_points:
        raise BudgetExceeded(
            f"{npts} points exceed the collineation cap of {max_points}")
    return _CollineationSearch(g, max_nodes).order()


def _orbit(points: Iterable[int], maps: list[list[int]]) -> set[int]:
    """The closure of a point set under a list of permutations."""
    orbit = set(points)
    frontier = list(orbit)
    while frontier:
        x = frontier.pop()
        for s in maps:
            if s[x] not in orbit:
                orbit.add(s[x])
                frontier.append(s[x])
    return orbit


class _CollineationSearch:
    """The base, one list of trace tests per depth, and the node count of
    one count."""

    def __init__(self, g: IncidenceGeometry, max_nodes: int):
        npts = len(g.points)
        self.max_nodes = max_nodes
        self.nodes = 0
        self.members = sorted(g.subspaces)
        self.member_set = set(self.members)
        self.closures: dict[int, int] = {}  # at most one per node and trace
        # through[x]: the members containing x, as a bitset over member indices
        self.through = [0] * npts
        for k, m in enumerate(self.members):
            for x in _bits(m):
                self.through[x] |= 1 << k
        sizes = [sorted(self.members[k].bit_count() for k in _bits(t))
                 for t in self.through]
        self.alike = [[y for y in range(npts) if sizes[y] == sizes[x]]
                      for x in range(npts)]

        self.base: list[int] = []
        met, rest = 0, list(range(npts))
        while rest:
            x = max(rest, key=lambda y: (self.through[y] & met).bit_count())
            rest.remove(x)
            self.base.append(x)
            met |= self.through[x]
        depth = {x: d for d, x in enumerate(self.base)}

        # At depth d the d-th base point x gets its image.  traces[d] lists
        # the traces t = m & M of the members m through x on the mapped
        # points M, each once, as a tuple of depths with a bound: the least
        # |m| with that trace, or |t| - 1 when t is itself a member.
        self.traces: list[list[tuple[tuple[int, ...], int]]] = []
        mapped = 0
        for x in self.base:
            mapped |= 1 << x
            bounds: dict[int, int] = {}
            for k in _bits(self.through[x]):
                m = self.members[k]
                trace = m & mapped
                bound = m.bit_count() - (trace == m)
                bounds[trace] = min(bounds.get(trace, bound), bound)
            self.traces.append([(tuple(depth[y] for y in _bits(t)), bound)
                                for t, bound in bounds.items()])

    def order(self) -> int:
        maps: list[list[int]] = []  # collineations found, as point -> image
        total = 1
        for i in reversed(range(len(self.base))):
            b = self.base[i]
            fixed = set(self.base[:i])
            orbit, refused = {b}, set()
            for p in self.alike[b]:
                if p in fixed or p in orbit or p in refused:
                    continue
                s = self._extend(i, p)
                if s is None:
                    refused |= _orbit([p], maps)
                else:
                    maps.append(s)
                    orbit = _orbit(orbit, maps)
                    refused = _orbit(refused, maps)
            total *= len(orbit)
        return total

    def _extend(self, start: int, p: int) -> list[int] | None:
        """A collineation fixing the first start base points and mapping the
        next one to p, as point -> image, or None."""
        base = self.base
        n = len(base)
        images = [1 << x for x in base[:start]] + [0] * (n - start)  # as bits
        used = sum(images)
        stack = [iter((p,))]  # stack[-1] holds the untried images at depth d
        while stack:
            d = start + len(stack) - 1
            for y in stack[-1]:
                self.nodes += 1
                if self.nodes > self.max_nodes:
                    raise BudgetExceeded(
                        f"collineation search visited {self.nodes} nodes, over "
                        f"the node budget of {self.max_nodes}")
                images[d] = 1 << y
                if self._fits(d, images, used | images[d]):
                    break
            else:
                stack.pop()
                if stack:
                    used ^= images[d - 1]
                continue
            used |= images[d]
            if d + 1 < n:
                stack.append(iter([y for y in self.alike[base[d + 1]]
                                   if not used >> y & 1]))
                continue
            s = [0] * n
            for x, bit in zip(base, images):
                s[x] = bit.bit_length() - 1
            if self._is_collineation(s):
                return s
            used ^= images[d]
        return None

    def _fits(self, d: int, images: list[int], used: int) -> bool:
        for depths, bound in self.traces[d]:
            a = 0
            for j in depths:
                a |= images[j]
            if a in self.member_set:
                continue
            c = self._closure(a)
            if c & used != a or c.bit_count() > bound:
                return False
        return True

    def _closure(self, a: int) -> int:
        """The intersection of all members containing a; 0 when there is none."""
        c = self.closures.get(a)
        if c is None:
            supersets = -1  # a is never empty, so this ends finite
            for x in _bits(a):
                supersets &= self.through[x]
            c = -1 if supersets else 0
            for k in _bits(supersets):
                c &= self.members[k]
            self.closures[a] = c
        return c

    def _is_collineation(self, s: list[int]) -> bool:
        for m in self.members:
            image = 0
            for x in _bits(m):
                image |= 1 << s[x]
            if image not in self.member_set:
                return False
        return True


# ---------------------------------------------------------------------------
# JSON interchange

def _name_ordered_points(g: IncidenceGeometry) -> Iterable[list[int]]:
    """Each subspace's point indices, ordered by name.

    The names are ranked once per geometry; they are distinct, so the
    rank order of a subspace's points lists its names as sorted() does,
    with no string sort per subspace.
    """
    rank = [0] * len(g.points)
    for r, i in enumerate(sorted(range(len(g.points)), key=g.points.__getitem__)):
        rank[i] = r
    return (sorted(_bits(m), key=rank.__getitem__) for m in g.subspaces)


def geometry_to_json(g: IncidenceGeometry) -> dict:
    """Plain-dict form: point list, subspaces with dims, optional order."""
    name = g.points.__getitem__
    out: dict = {
        "points": list(g.points),
        "subspaces": [{"dim": d, "points": list(map(name, on))}
                      for d, on in zip(g.dims, _name_ordered_points(g))],
    }
    if g.claimed_order is not None:
        out["claimed_order"] = g.claimed_order
    return out


def geometry_from_json(obj: object) -> IncidenceGeometry:
    """Parse and structurally validate the JSON interchange form.

    Structural problems raise GeometryFormatError naming the offending
    field.  Two subspaces with identical point sets are refused by
    IncidenceGeometry, and that refusal is raised here as a format
    error.  Axiom-level problems are left to validate_axioms.
    """
    if not isinstance(obj, dict):
        raise GeometryFormatError("top level: expected an object")
    if "points" not in obj:
        raise GeometryFormatError("points: missing")
    raw_points = obj["points"]
    if not isinstance(raw_points, list):
        raise GeometryFormatError("points: expected a list")
    for i, p in enumerate(raw_points):
        if not isinstance(p, str):
            raise GeometryFormatError(f"points[{i}]: expected a string")
    if len(set(raw_points)) != len(raw_points):
        raise GeometryFormatError("points: duplicate point identifier")
    if "subspaces" not in obj:
        raise GeometryFormatError("subspaces: missing")
    raw_subs = obj["subspaces"]
    if not isinstance(raw_subs, list):
        raise GeometryFormatError("subspaces: expected a list")
    index = {name: i for i, name in enumerate(raw_points)}
    masks, dims = [], []
    for i, entry in enumerate(raw_subs):
        if not isinstance(entry, dict):
            raise GeometryFormatError(f"subspaces[{i}]: expected an object")
        if "dim" not in entry or isinstance(entry["dim"], bool) \
                or not isinstance(entry["dim"], int):
            raise GeometryFormatError(f"subspaces[{i}].dim: expected an integer")
        if entry["dim"] < -1:
            raise GeometryFormatError(f"subspaces[{i}].dim: must be >= -1")
        if "points" not in entry or not isinstance(entry["points"], list):
            raise GeometryFormatError(f"subspaces[{i}].points: expected a list")
        mask = 0
        for name in entry["points"]:
            if not isinstance(name, str) or name not in index:
                raise GeometryFormatError(
                    f"subspaces[{i}].points: unknown point {name!r}")
            bit = 1 << index[name]
            if mask & bit:
                raise GeometryFormatError(
                    f"subspaces[{i}].points: duplicate point {name!r}")
            mask |= bit
        masks.append(mask)
        dims.append(entry["dim"])
    claimed = obj.get("claimed_order")
    if claimed is not None:
        if isinstance(claimed, bool) or not isinstance(claimed, int) or claimed < 1:
            raise GeometryFormatError(
                "claimed_order: expected a positive integer (order 0 is out of scope)")
    try:
        return IncidenceGeometry(tuple(raw_points), tuple(masks), tuple(dims), claimed)
    except ValueError as e:
        raise GeometryFormatError(str(e)) from None
