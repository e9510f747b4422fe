"""Helpers shared by the geometry tests: single-step corruptions and oracles.

Each corruption helper returns a new IncidenceGeometry one mutation away
from the input; the validators must flag every one of them.
"""

import functools
import itertools
import random
from typing import NamedTuple

from qproj import build_projective_space, geometry, geometry_to_json
from qproj.geometry import AxiomReport, DerivedPropertiesReport, IncidenceGeometry


def drop_subspace(g: IncidenceGeometry, idx: int) -> IncidenceGeometry:
    return IncidenceGeometry(
        g.points,
        tuple(m for i, m in enumerate(g.subspaces) if i != idx),
        tuple(d for i, d in enumerate(g.dims) if i != idx),
        g.claimed_order)


def delete_point(g: IncidenceGeometry, bit: int) -> IncidenceGeometry:
    """Excise one point from P and from every subspace, leaving L otherwise
    fixed.  The point's singleton must be gone first, or it would repeat
    the empty set (delete_point_and_singleton)."""
    keep = [i for i in range(len(g.points)) if i != bit]
    remap = {old: new for new, old in enumerate(keep)}
    masks = []
    for m in g.subspaces:
        nm = 0
        for i in keep:
            if m >> i & 1:
                nm |= 1 << remap[i]
        masks.append(nm)
    return IncidenceGeometry(
        tuple(g.points[i] for i in keep), tuple(masks), g.dims, g.claimed_order)


def delete_point_and_singleton(g: IncidenceGeometry, bit: int) -> IncidenceGeometry:
    """Drop the singleton of one point, then excise the point as
    ``delete_point`` does.

    Excised with its singleton still in L, the point would leave a second
    empty member, which IncidenceGeometry refuses; without it the mutant
    is well formed and reaches the axioms.
    """
    singleton = g.subspaces.index(1 << bit)
    return delete_point(drop_subspace(g, singleton), bit)


def perturb_dim(g: IncidenceGeometry, idx: int, delta: int = 1) -> IncidenceGeometry:
    dims = list(g.dims)
    dims[idx] += delta
    return IncidenceGeometry(g.points, g.subspaces, tuple(dims), g.claimed_order)


def shuffle_members(g: IncidenceGeometry, seed: int) -> IncidenceGeometry:
    """The same geometry with its members (and their dims) in a seeded random order."""
    order = list(range(len(g.subspaces)))
    random.Random(seed).shuffle(order)
    return IncidenceGeometry(g.points, tuple(g.subspaces[i] for i in order),
                             tuple(g.dims[i] for i in order), g.claimed_order)


def corrupt_family(g: IncidenceGeometry, seed: int) -> IncidenceGeometry:
    """g with one to six members dropped or random point sets added, drawn
    by random.Random(seed); each dim is the member's size less one."""
    rng = random.Random(seed)
    members = list(g.subspaces)
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            members.pop(rng.randrange(len(members)))
        else:
            m = rng.randrange(1 << len(g.points))
            if m not in members:
                members.append(m)
    return IncidenceGeometry(g.points, tuple(members),
                             tuple(m.bit_count() - 1 for m in members))


def standard_mutations(fano, p2f3, boolean4):
    """A labeled batch of distinct single-mutation corruptions."""
    cases = []
    fano_lines = [i for i, d in enumerate(fano.dims) if d == 1]
    for i in fano_lines:
        cases.append((f"fano minus line {i}", drop_subspace(fano, i)))
    for b in range(3):
        cases.append((f"fano minus point {b}, singleton dropped",
                       delete_point_and_singleton(fano, b)))
    cases.append(("fano line dim bumped", perturb_dim(fano, fano_lines[0])))
    p3_line = next(i for i, d in enumerate(p2f3.dims) if d == 1)
    cases.append(("P2(F3) minus line", drop_subspace(p2f3, p3_line)))
    b4_pair = next(i for i, m in enumerate(boolean4.subspaces)
                   if m.bit_count() == 2)
    cases.append(("Boolean(4) pair dim bumped", perturb_dim(boolean4, b4_pair)))
    return cases


@functools.cache
def repeated_mask_documents() -> dict[str, dict]:
    """name -> a Fano plane JSON document that lists one point set twice.

    "fano line twice" inserts a copy of the first line right after it;
    "fano minus point b" drops point b's name everywhere, so that its
    singleton repeats the empty set.  IncidenceGeometry refuses each one.
    """
    fano = geometry_to_json(build_projective_space(2, 2))
    subs = fano["subspaces"]
    line = next(i for i, s in enumerate(subs) if s["dim"] == 1)
    docs = {"fano line twice": {**fano, "subspaces": subs[:line + 1] + subs[line:]}}
    for b, name in enumerate(fano["points"][:3]):
        docs[f"fano minus point {b}"] = {
            **fano, "points": [p for p in fano["points"] if p != name],
            "subspaces": [{**s, "points": [p for p in s["points"] if p != name]}
                          for s in subs]}
    return docs


def sweep_collineation_order(g: IncidenceGeometry) -> int:
    """Oracle: count the collineations by trying all |P|! permutations.

    A permutation is a collineation iff the image of every member of L is
    again in L.  Test-only, and only for at most 8 points.
    """
    npts = len(g.points)
    assert npts <= 8, "the sweep oracle tries |P|! permutations"
    mask_set = set(g.subspaces)
    member_bits = [[b for b in range(npts) if m >> b & 1] for m in mask_set]
    count = 0
    for perm in itertools.permutations(range(npts)):
        if all(sum(1 << perm[b] for b in bits) in mask_set for bits in member_bits):
            count += 1
    return count


class LatticeReference(NamedTuple):
    contained: list[list[int]]  # contained[i]: the members inside i, increasing
    meets: list[list[int | None]]  # meets[i][j]: the meet's index, or None
    joins: list[list[int | None]]  # joins[i][j]: the join's index, or None


def lattice_reference(g: IncidenceGeometry) -> LatticeReference:
    """Oracle: every meet and join by gathering bounds, with no fast path.

    The greatest lower bound of S and T, when it exists, is the union of
    all their common lower bounds (it is a lower bound containing the
    rest), and dually the least upper bound is the intersection of all
    common upper bounds; each exists iff that union or intersection is
    itself in L, and is then the member with that point set.
    Test-only: _Lattice reads meets and joins from up-set bitsets.
    """
    masks = g.subspaces
    ns = len(masks)
    index_of = {m: idx for idx, m in enumerate(masks)}
    containers = [[j for j, mj in enumerate(masks) if mi & mj == mi] for mi in masks]
    contained = [[j for j, mj in enumerate(masks) if mj & mi == mj] for mi in masks]
    meets, joins = [], []
    for i in range(ns):
        union = [0] * ns  # stays empty where no lower bound exists
        for k in contained[i]:
            for j in containers[k]:
                union[j] |= masks[k]
        inter = [-1] * ns  # stays all bits, never a member, where no upper bound exists
        for k in containers[i]:
            for j in contained[k]:
                inter[j] &= masks[k]
        meets.append([index_of.get(m) for m in union])
        joins.append([index_of.get(m) for m in inter])
    return LatticeReference(contained, meets, joins)


def reference_axioms(g: IncidenceGeometry) -> dict:
    """Oracle: validate_axioms(g).as_dict() by plain loops, with axioms 1
    and 5 read from every pair i <= j of lattice_reference's meets and
    joins, and axioms 2, 3 and 4 from every member or pair of members.
    Test-only: it reads neither _Lattice nor the certificate, which
    validate_axioms uses for axioms 1 and 5 where it holds.  Axiom 6 and
    the order come from geometry._line_order, which neither path changes.
    """
    ref = lattice_reference(g)
    masks, dims = g.subspaces, g.dims
    ns = len(masks)
    describe = g.describe_subspace
    witnesses = dict.fromkeys(range(1, 7))
    for i in range(ns):
        for j in range(i, ns):
            meet, join = ref.meets[i][j], ref.joins[i][j]
            if meet is None or join is None:
                if witnesses[1] is None:
                    missing = "meet" if meet is None else "join"
                    witnesses[1] = (f"no {missing} in L for S={describe(i)}"
                                    f" and T={describe(j)}")
            elif witnesses[5] is None and dims[i] + dims[j] != dims[meet] + dims[join]:
                witnesses[5] = (
                    f"S={describe(i)}, T={describe(j)}: {dims[i]} + {dims[j]} != "
                    f"{dims[meet]} + {dims[join]} (meet {describe(meet)}, "
                    f"join {describe(join)})")
    for i in range(ns):
        j = next((j for j in range(ns) if masks[i] & masks[j] == masks[i]
                  and masks[i] != masks[j] and dims[j] <= dims[i]), None)
        if j is not None:
            witnesses[2] = (f"{describe(i)} is properly contained in "
                            f"{describe(j)} but dim does not increase")
            break
    if 0 not in masks:
        witnesses[3] = "the empty set is not in L"
    else:
        b = next((b for b in range(len(g.points)) if 1 << b not in masks), None)
        if b is not None:
            witnesses[3] = f"singleton {{{g.points[b]}}} is not in L"
    for i in range(ns):
        size = masks[i].bit_count()
        if (dims[i] == -1) != (size == 0) or (dims[i] == 0) != (size == 1):
            witnesses[4] = f"{describe(i)} has {size} point(s)"
            break
    order, witnesses[6] = geometry._line_order(g)
    full = (1 << len(g.points)) - 1
    dimension = next((d for m, d in zip(masks, dims) if m == full), None)
    return AxiomReport(geometry._checks(geometry._AXIOM_DESCRIPTIONS, witnesses),
                       order, dimension).as_dict()


def property_one_reference(g: IncidenceGeometry) -> tuple[int, int] | None:
    """Oracle: derived property 1 as (S, k), the first S in index order
    whose interval [empty set, S] fails an axiom, and the least axiom k it
    fails; None when every interval passes.

    The six axioms are checked by plain set operations on the members
    inside S from lattice_reference, with meets and joins taken in L and
    L's order (its first line's size less one, else the claimed order) as
    the claim.  Test-only: it reads neither _Lattice nor the axiom pass,
    from which check_derived_properties certifies property 1.
    """
    ref = lattice_reference(g)
    masks, dims = g.subspaces, g.dims
    in_l = set(masks)
    lines = [m for m, d in zip(masks, dims) if d == 1]
    order = lines[0].bit_count() - 1 if lines else g.claimed_order
    for s, inside in enumerate(ref.contained):
        pairs = [(i, j, ref.meets[i][j], ref.joins[i][j])
                 for i in inside for j in inside if i <= j]
        bounded = [(i, j, meet, join) for i, j, meet, join in pairs
                   if meet is not None and join is not None]
        sizes = {masks[i].bit_count() for i in inside if dims[i] == 1}
        holds = {
            1: len(bounded) == len(pairs),
            2: all(dims[i] < dims[j] for i in inside for j in inside
                   if masks[i] & masks[j] == masks[i] and masks[i] != masks[j]),
            3: 0 in in_l and all((1 << b) in in_l for b in range(len(g.points))
                                 if masks[s] >> b & 1),
            4: all((dims[i] == -1) == (masks[i] == 0)
                   and (dims[i] == 0) == (masks[i].bit_count() == 1) for i in inside),
            5: all(dims[i] + dims[j] == dims[meet] + dims[join]
                   for i, j, meet, join in bounded),
            6: not sizes or (len(sizes) == 1 and min(sizes) >= 2
                             and order in (None, min(sizes) - 1)),
        }
        failed = next((k for k, ok in holds.items() if not ok), None)
        if failed is not None:
            return s, failed
    return None


def property_two_reference(g: IncidenceGeometry) -> str | None:
    """Oracle: derived property 2 by comparing every pair's meet, gathered
    by lattice_reference, with its intersection."""
    meets = lattice_reference(g).meets
    masks = g.subspaces
    for i in range(len(masks)):
        for j in range(i, len(masks)):
            meet = meets[i][j]
            if meet is None or masks[meet] != masks[i] & masks[j]:
                return (f"meet of {g.describe_subspace(i)} and "
                        f"{g.describe_subspace(j)} is not their intersection")
    return None


def property_three_reference(g: IncidenceGeometry) -> str | None:
    """Oracle: derived property 3 in two parts, every pair of distinct
    points counted against every line, and then every pair of lines
    sharing more than one point."""
    lines = [i for i, d in enumerate(g.dims) if d == 1]
    for a, b in itertools.combinations(range(len(g.points)), 2):
        pair = 1 << a | 1 << b
        count = sum(1 for i in lines if g.subspaces[i] & pair == pair)
        if count != 1:
            return f"points {g.points[a]} and {g.points[b]} lie on {count} lines"
    for i, j in itertools.combinations(lines, 2):
        common = (g.subspaces[i] & g.subspaces[j]).bit_count()
        if common > 1:
            return (f"lines {g.describe_subspace(i)} and {g.describe_subspace(j)}"
                    f" share {common} points")
    return None


def property_four_reference(g: IncidenceGeometry) -> str | None:
    """Oracle: derived property 4 by reading, for each member S and each
    point x outside S whose singleton is in L, the join of S and {x}
    gathered by lattice_reference."""
    joins = lattice_reference(g).joins
    masks, dims = g.subspaces, g.dims
    singletons = {m.bit_length() - 1: idx for idx, m in enumerate(masks)
                  if m.bit_count() == 1}
    for i, mask in enumerate(masks):
        for b in range(len(g.points)):
            if mask >> b & 1 or b not in singletons:
                continue
            join = joins[i][singletons[b]]
            if join is None or dims[join] != dims[i] + 1:
                got = "missing" if join is None else f"dim {dims[join]}"
                return (f"join of {g.describe_subspace(i)} with point "
                        f"{g.points[b]} is {got}, expected dim {dims[i] + 1}")
    return None


def property_five_reference(g: IncidenceGeometry) -> str | None:
    """Oracle: derived property 5 by reading, for each hyperplane S (dim
    one less than the first full-set member's) and each T not inside S,
    the meet of S and T gathered by lattice_reference."""
    meets = lattice_reference(g).meets
    masks, dims = g.subspaces, g.dims
    full = (1 << len(g.points)) - 1
    n = next((d for m, d in zip(masks, dims) if m == full), None)
    if n is None:
        return None
    for i, hyperplane in enumerate(masks):
        if dims[i] != n - 1:
            continue
        for j, mask in enumerate(masks):
            if mask & ~hyperplane == 0:
                continue
            meet = meets[i][j]
            if meet is None or dims[meet] != dims[j] - 1:
                got = "missing" if meet is None else f"dim {dims[meet]}"
                return (f"hyperplane {g.describe_subspace(i)} meets "
                        f"{g.describe_subspace(j)} in {got}, expected dim "
                        f"{dims[j] - 1}")
    return None


def reference_derived_properties(g: IncidenceGeometry) -> list[dict]:
    """Derived properties 2 to 5 of check_derived_properties(g).as_dict()
    from the reference loops above, which always evaluate and read
    lattice_reference, never _Lattice."""
    witnesses = {2: property_two_reference(g), 3: property_three_reference(g),
                 4: property_four_reference(g), 5: property_five_reference(g)}
    descriptions = {k: geometry._PROPERTY_DESCRIPTIONS[k] for k in witnesses}
    return DerivedPropertiesReport(
        geometry._checks(descriptions, witnesses)).as_dict()["properties"]
