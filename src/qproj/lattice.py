"""The containment lattice of a subspace family, held as int bitsets.

_Lattice reads exact meets and joins from each member's up-set and
down-set.  The functions after it are the passes over those sets that
the axiom checks of qproj.geometry run for axioms 1 and 5: the cover
counts and the coatom check of the certificate, and, on input that
fails it, the rows of the pair pass, each either full or screened by
dim.  They return member indices; the witness texts are written in
qproj.geometry.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import BudgetExceeded

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .geometry import IncidenceGeometry

LATTICE_CAP = 4096


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Lattice:
    """Containment structure of a subspace family, with exact meets and joins.

    Built once per geometry (IncidenceGeometry._lattice).  From up[p],
    the members containing point p, it keeps two int bitsets over member
    indices for each member i:

      above[i]  the members containing i: the AND of up[p] over the
                points p of i, or all members when i is empty;
      below[i]  the members inside i: all members minus the OR of up[p]
                over the points outside i.

    Both are built eight points at a time (the Four Russians method of
    Arlazarov, Dinic, Kronrod and Faradzev, 1970): the AND and the OR of
    up[p] over each subset of a block's points fill two 256-entry tables,
    and member i reads the AND at its byte b in the block and the OR at
    the block's full byte ^ b.  join_of and meet_of map above[u] and
    below[u] back to u; distinct members have distinct up-sets and
    down-sets, since each member lies in its own.

    The join u of i and j, when it exists, lies in every common upper
    bound, so above[u] is exactly the set above[i] & above[j] of common
    upper bounds.  Conversely a member u with that up-set lies in it, so
    it is an upper bound, and every upper bound contains it: u is the
    join.  So join looks up above[i] & above[j] in join_of, and meet
    dually looks up below[i] & below[j] in meet_of (Davey & Priestley,
    Introduction to Lattices and Order, 2nd ed., ch. 2).  An empty set of
    common bounds matches no member.  Fast path: if the plain union
    (resp. intersection) of i and j is in L it is the join (resp. meet).

    Cost: the build is |L|*|P|/8 ANDs and ORs of |L|-bit ints and fills
    64*|P| table entries; the sets hold 2*|L|^2 bits, and a meet or join
    is then one AND and one dict lookup.  On a 2-core VM the build takes
    about 10 ms on Boolean(12) (|L| = 4096, tracemalloc peak 5.6 MB; a
    stored |L|^2 table took 3.5-4.7 s and 59 MB) and 19 ms on P4(F3)
    (2.5 MB), and the whole axiom pass about 0.11 s on either.  Failing
    input reads pairs only until both axioms are settled: P4(F3) takes
    about 0.07 s with a line's dim bumped and 0.1 s without a line (rows
    screened by _screened_row), Boolean(12) without a line 0.5-0.7 s.
    With every dim 0 full rows (_full_row) read every pair, which
    LATTICE_CAP bounds: about 2.5-2.9 s on P4(F3), 2.0-2.3 s on Boolean(12).
    """

    def __init__(self, g: IncidenceGeometry):
        masks = g.subspaces
        ns = len(masks)
        if ns > LATTICE_CAP:
            raise BudgetExceeded(
                f"|L| = {ns} subspaces ({ns * (ns + 1) // 2} pairs) exceeds "
                f"the lattice cap of |L| <= {LATTICE_CAP}")
        self.masks = masks
        self.index_of = {m: idx for idx, m in enumerate(masks)}
        up = [0] * len(g.points)
        for k, m in enumerate(masks):
            for p in _bits(m):
                up[p] |= 1 << k
        everything = (1 << ns) - 1
        self.above = above = [everything] * ns
        self.below = below = [0] * ns  # the OR over the points outside, until flipped
        for lo in range(0, len(up), 8):
            ands, ors = [everything], [0]  # entry b: over the points of byte b
            for u in up[lo:lo + 8]:
                ands += [a & u for a in ands]
                ors += [o | u for o in ors]
            rest = len(ands) - 1
            for k, m in enumerate(masks):
                b = m >> lo & rest
                above[k] &= ands[b]
                below[k] |= ors[rest ^ b]
        for k, outside in enumerate(below):
            below[k] = everything ^ outside
        self.join_of = {a: u for u, a in enumerate(self.above)}
        self.meet_of = {b: u for u, b in enumerate(self.below)}

    def meet(self, i: int, j: int) -> int | None:
        """The index of the meet of members i and j, or None if L has none."""
        u = self.index_of.get(self.masks[i] & self.masks[j])
        return u if u is not None else self.meet_of.get(self.below[i] & self.below[j])

    def join(self, i: int, j: int) -> int | None:
        """The index of the join of members i and j, or None if L has none."""
        u = self.index_of.get(self.masks[i] | self.masks[j])
        return u if u is not None else self.join_of.get(self.above[i] & self.above[j])


def _cover_count(over: list[int], under: list[int], dims: Sequence[int],
                 at_dim: dict[int, int], step: int) -> bool:
    """Check 1 of geometry._modular_certificate with over the up-sets,
    under the down-sets and step 1; check 2 with the two swapped and
    step -1.  at_dim maps each dim d to the members of dim d."""
    for w, d in enumerate(dims):
        near = over[w] & at_dim.get(d + step, 0)
        n = near.bit_count()
        if n > 1 and n * (n - 1) // 2 != sum(
                c * (c - 1) // 2 for c in (
                    (near & under[u]).bit_count()
                    for u in _bits(over[w] & at_dim.get(d + 2 * step, 0)))):
            return False
    return True


def _coatom_intersections(lat: _Lattice, top: int) -> bool:
    """Check 3 of geometry._modular_certificate: with the coatoms the
    members other than top that lie in no member but themselves and top,
    each member is the intersection of the coatoms containing it, and
    each coatom meets each member in L.  top is the point set, a member.

    True puts every pairwise intersection in L: S & T is S & H_1 & ... &
    H_k over the coatoms H_i containing T, and each step meets a member
    with a coatom.
    """
    above, masks = lat.above, lat.masks
    t = lat.index_of[top]
    coatoms = 0
    for h, a in enumerate(above):
        if h != t and a.bit_count() == 2:  # above h: h and top alone
            coatoms |= 1 << h
    for i, m in enumerate(masks):
        meet = top  # of the coatoms containing i
        for h in _bits(above[i] & coatoms):
            meet &= masks[h]
        if meet != m:
            return False
    in_l = frozenset(lat.index_of)
    return all(in_l.issuperset(map(masks[h].__and__, masks)) for h in _bits(coatoms))


def _full_row(lat: _Lattice, dims: Sequence[int], i: int,
              need1: bool, need5: bool
              ) -> tuple[tuple[int, str] | None, tuple[int, int, int] | None]:
    """Row i of a pass over the pairs i <= j of members: the meets and
    joins of i with each member j >= i, read in order.  Returns, if
    need1, the row's first pair with no meet or no join, as (j, "meet"
    or "join"), and, if need5, its first pair whose meet and join break
    the modular law, as (j, meet, join); None where there is none or
    where it is not needed.  The row stops once each needed pair is
    found, so it reads all its pairs only when it lacks one of them.
    """
    meet_with, join_with = lat.meet, lat.join
    di = dims[i]
    missing = bad = None
    for j in range(i, len(dims)):
        meet, join = meet_with(i, j), join_with(i, j)
        if meet is None or join is None:  # axiom 1's, never axiom 5's
            if need1:
                missing, need1 = (j, "meet" if meet is None else "join"), False
                if not need5:
                    break
        elif need5 and dims[meet] + dims[join] != di + dims[j]:
            bad, need5 = (j, meet, join), False
            if not need1:
                break
    return missing, bad


def _screened_row(lat: _Lattice, dims: Sequence[int],
                  layers: list[tuple[int, int]], i: int
                  ) -> tuple[int, int, int] | None:
    """The first pair (i, j), j >= i, with a meet and a join whose dims
    break the modular law, as (j, meet, join), or None.  For a family in
    which dim strictly increases on proper containment (axiom 2); layers
    lists (d, the members of dim d) by increasing d, over all members.

    Under that condition every common upper bound of i and j other
    than their join properly contains the join, so the join, where it
    exists, has the least dim e(j) among the common upper bounds; dually
    the meet has the greatest dim f(j) among the common lower bounds.
    The OR of below[u] over the members u above i of dim d is the set of
    j with a common upper bound of dim d, so one sweep up the layers
    gives e(j) for every j at once, and one sweep down, ORing above[v]
    over the members v below i, gives f(j).  A pair with both a meet and
    a join then breaks the modular law exactly when e(j) + f(j) !=
    dims[i] + dims[j].  Only the j >= i with common bounds both ways and
    that sum differing are read, in order, with meet and join; a pair
    missing either is passed over.

    Cost: one OR of |L|-bit ints per member comparable with i, then one
    AND per pair of an upward and a downward layer.
    """
    least, uppers = _first_layers(layers, lat.above[i], lat.below)
    greatest, lowers = _first_layers(layers[::-1], lat.below[i], lat.above)
    di = dims[i]
    at_dim = dict(layers)
    fits = 0  # the j whose e(j) + f(j) is dims[i] + dims[j]
    for e, with_e in least:
        for f, with_f in greatest:
            fits |= with_e & with_f & at_dim.get(e + f - di, 0)
    for j in _bits((uppers & lowers & ~fits) >> i << i):
        meet, join = lat.meet(i, j), lat.join(i, j)
        if (meet is not None and join is not None
                and dims[meet] + dims[join] != di + dims[j]):
            return j, meet, join
    return None


def _first_layers(layers: list[tuple[int, int]], bounds: int, reach: list[int]
                  ) -> tuple[list[tuple[int, int]], int]:
    """Sweep layers in the order given: for each dim d, the j first reached
    by reach[u] of a member u of bounds of dim d, and all j reached."""
    first, seen = [], 0
    for d, layer in layers:
        reached = 0
        for u in _bits(bounds & layer):
            reached |= reach[u]
        if reached & ~seen:
            first.append((d, reached & ~seen))
            seen |= reached
    return first, seen
