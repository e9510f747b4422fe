import functools
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproj import (BudgetExceeded, GeometryFormatError, NotAPrimePower,
                   affine_decomposition, build_boolean_geometry,
                   build_projective_space, check_derived_properties,
                   collineation_order, geometry_from_json,
                   geometry_to_json, make_field, point_count_check,
                   q_integer, subspace_census, validate_axioms)
from qproj import geometry
from qproj.geometry import IncidenceGeometry
from qproj.linalg import enumerate_subspaces

from util import (corrupt_family, delete_point_and_singleton, drop_subspace,
                  lattice_reference, perturb_dim, property_one_reference,
                  reference_axioms, reference_derived_properties,
                  repeated_mask_documents, shuffle_members, standard_mutations,
                  sweep_collineation_order)


@functools.cache
def _mutant_bases():
    return (build_projective_space(2, 2), build_projective_space(3, 1),
            build_projective_space(4, 1), build_boolean_geometry(4),
            build_boolean_geometry(5), build_boolean_geometry(6))


@st.composite
def mutant_families(draw):
    """A corpus family with some members dropped and some point sets added."""
    g = draw(st.sampled_from(_mutant_bases()))
    members = list(g.subspaces)
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            members.pop(draw(st.integers(0, len(members) - 1)))
        else:
            m = draw(st.integers(0, (1 << len(g.points)) - 1))
            if m not in members:
                members.append(m)
    return IncidenceGeometry(g.points, tuple(members),
                             tuple(m.bit_count() - 1 for m in members))


@functools.cache
def _standard_mutants():
    """name -> each of standard_mutations, all of which fail an axiom."""
    return dict(standard_mutations(build_projective_space(2, 2),
                                   build_projective_space(3, 2),
                                   build_boolean_geometry(4)))


@st.composite
def derived_mutants(draw):
    """A corpus geometry with up to four members dropped or added or dims bumped."""
    g = draw(st.sampled_from(_mutant_bases()))
    members, dims = list(g.subspaces), list(g.dims)
    for _ in range(draw(st.integers(0, 4))):
        step = draw(st.sampled_from(("drop", "add", "bump")))
        if step == "drop" and members:
            k = draw(st.integers(0, len(members) - 1))
            del members[k], dims[k]
        elif step == "add":
            m = draw(st.integers(0, (1 << len(g.points)) - 1))
            if m not in members:
                members.append(m)
                dims.append(m.bit_count() - 1)
        elif step == "bump" and members:
            k = draw(st.integers(0, len(members) - 1))
            dims[k] += draw(st.sampled_from((-1, 1)))
    return IncidenceGeometry(g.points, tuple(members), tuple(dims), g.claimed_order)


def _incidence_graph_automorphisms(g):
    """Oracle: count the automorphisms of the point-member incidence graph
    that map points to points and members to members.  The members are
    distinct sets, so each is fixed by what it does to the points, and
    these automorphisms are exactly the collineations."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher
    graph = nx.Graph()
    graph.add_nodes_from((("point", x) for x in range(len(g.points))), side=0)
    graph.add_nodes_from((("member", m) for m in g.subspaces), side=1)
    graph.add_edges_from((("point", x), ("member", m)) for m in g.subspaces
                         for x in range(len(g.points)) if m >> x & 1)
    matcher = GraphMatcher(graph, graph,
                           node_match=lambda a, b: a["side"] == b["side"])
    return sum(1 for _ in matcher.isomorphisms_iter())


def _built_with_subspaces(q, n):
    """P^n(F_q), its points' coordinates read from their names, and the
    subspaces of F_q^(n+1) in enumerate_subspaces order, level by level;
    the geometry's dims are checked against that order."""
    g = build_projective_space(q, n)
    coords = [tuple(map(int, name.strip("[]").split(","))) for name in g.points]
    subs = [s for k in range(n + 2) for s in enumerate_subspaces(q, n + 1, k)]
    assert g.dims == tuple(len(s) - 1 for s in subs)
    return g, coords, subs


def _contains(field, basis, vector):
    """Whether the span of an RREF basis holds vector: clear each row's
    pivot column from the vector by that row, and see that nothing is left."""
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    for row in basis:
        pivot = vector[row.index(1)]
        if pivot:
            times = mul[neg[pivot]]
            vector = [add[a][times[b]] for a, b in zip(vector, row)]
    return not any(vector)


class TestConstruction:
    def test_projective_line_f2(self):
        g = build_projective_space(2, 1)
        assert len(g.points) == 3
        assert sorted(g.dims) == [-1, 0, 0, 0, 1]

    def test_fano(self, fano):
        assert len(fano.points) == 7
        lines = [i for i, d in enumerate(fano.dims) if d == 1]
        assert len(lines) == 7
        assert all(fano.subspaces[i].bit_count() == 3 for i in lines)

    def test_p2_f3(self):
        g = build_projective_space(3, 2)
        assert len(g.points) == 13
        lines = [i for i, d in enumerate(g.dims) if d == 1]
        assert len(lines) == 13
        assert all(g.subspaces[i].bit_count() == 4 for i in lines)

    def test_point_names_are_homogeneous_coordinates(self, fano):
        assert "[1,0,0]" in fano.points
        assert "[0,0,1]" in fano.points
        # every name starts with a leading 1 after zeros
        for name in fano.points:
            coords = [int(c) for c in name.strip("[]").split(",")]
            first_nonzero = next(c for c in coords if c)
            assert first_nonzero == 1

    def test_boolean_small(self):
        g = build_boolean_geometry(1)
        assert g.dims == (-1, 0)
        g3 = build_boolean_geometry(3)
        assert len(g3.subspaces) == 8
        assert [d for d in g3.dims].count(1) == 3  # three "lines" of size 2

    def test_boolean_counts_are_binomial_rows(self):
        from math import comb
        for n in (2, 4, 6):
            g = build_boolean_geometry(n)
            census = subspace_census(g)
            assert census.counts == {k: comb(n, k + 1) for k in range(-1, n)}

    def test_boolean_cap(self):
        with pytest.raises(BudgetExceeded):
            build_boolean_geometry(13)
        with pytest.raises(ValueError):
            build_boolean_geometry(0)

    def test_projective_errors(self):
        with pytest.raises(NotAPrimePower):
            build_projective_space(6, 2)
        with pytest.raises(BudgetExceeded):
            build_projective_space(5, 4, budget=100)

    def test_single_point_space(self):
        g = build_projective_space(3, 0)
        assert len(g.points) == 1
        assert validate_axioms(g).passed

    # P^0-P^3 over each field, plus P4(F3) and P5(F2); P3 over F7 and up
    # takes 1.5M to 345M _contains calls this way and is tested by count below
    @pytest.mark.parametrize("q, n", [
        *((q, n) for q in (2, 3, 4, 5, 7, 8, 9, 16) for n in range(4)
          if n < 3 or q < 7),
        (3, 4), (2, 5)])
    def test_masks_are_the_points_each_subspace_contains(self, q, n):
        g, coords, subs = _built_with_subspaces(q, n)
        field = make_field(q)
        for mask, sub in zip(g.subspaces, subs):
            assert mask == sum(1 << p for p, c in enumerate(coords)
                               if _contains(field, sub, c))

    # a mask of contained points that holds as many points as a subspace of
    # its dimension has holds all of them; P3(F16) would take 2.4M calls
    @pytest.mark.parametrize("q", [7, 8, 9])
    def test_masks_of_p3_hold_their_subspaces_points(self, q):
        g, coords, subs = _built_with_subspaces(q, 3)
        field = make_field(q)
        for mask, sub in zip(g.subspaces, subs):
            assert all(_contains(field, sub, coords[p]) for p in geometry._bits(mask))
            assert mask.bit_count() == (q ** len(sub) - 1) // (q - 1)


class TestAxioms:
    def test_corpus_passes(self, geometry_corpus):
        for name, g in geometry_corpus.items():
            report = validate_axioms(g)
            assert report.passed, (name, [a for a in report.axioms if not a.passed])

    def test_inferred_order_and_dimension(self, geometry_corpus):
        for (q, n) in [(2, 2), (3, 2), (4, 3)]:
            report = validate_axioms(geometry_corpus[f"P{n}(F{q})"])
            assert report.order == q
            assert report.dimension == n
        report = validate_axioms(geometry_corpus["Boolean(4)"])
        assert report.order == 1
        assert report.dimension == 3

    def test_every_mutation_detected(self, geometry_corpus):
        cases = standard_mutations(geometry_corpus["P2(F2)"],
                                   geometry_corpus["P2(F3)"],
                                   geometry_corpus["Boolean(4)"])
        assert len(cases) >= 10
        for name, mutant in cases:
            report = validate_axioms(mutant)
            assert not report.passed, name
            failed = [a for a in report.axioms if not a.passed]
            assert all(a.witness for a in failed), name

    def test_line_removal_breaks_modular_law(self, fano):
        line = next(i for i, d in enumerate(fano.dims) if d == 1)
        report = validate_axioms(drop_subspace(fano, line))
        ax = {a.number: a for a in report.axioms}
        # the two orphaned points still join (to the whole plane), so the
        # failure surfaces in the modular law, not in lattice closure
        assert ax[1].passed
        assert not ax[5].passed
        assert "join" in ax[5].witness

    def test_point_deletion_breaks_calibration(self, fano):
        report = validate_axioms(delete_point_and_singleton(fano, 0))
        ax = {a.number: a for a in report.axioms}
        assert not ax[4].passed or not ax[6].passed

    def test_dim_perturbation_detected(self, fano):
        line = next(i for i, d in enumerate(fano.dims) if d == 1)
        report = validate_axioms(perturb_dim(fano, line))
        assert not report.passed

    def test_claimed_order_mismatch_detected(self, fano):
        wrong = IncidenceGeometry(fano.points, fano.subspaces, fano.dims,
                                  claimed_order=3)
        report = validate_axioms(wrong)
        ax6 = report.axioms[5]
        assert not ax6.passed
        assert "claimed" in ax6.witness

    def test_missing_empty_set(self, fano):
        empty_idx = fano.subspaces.index(0)
        report = validate_axioms(drop_subspace(fano, empty_idx))
        ax = {a.number: a for a in report.axioms}
        assert not ax[3].passed

    def test_missing_singleton(self, fano):
        idx = next(i for i, m in enumerate(fano.subspaces) if m.bit_count() == 1)
        report = validate_axioms(drop_subspace(fano, idx))
        ax = {a.number: a for a in report.axioms}
        assert not ax[3].passed
        # meets of subspaces through the lost point can also break
        assert "singleton" in ax[3].witness

    def test_strict_increase_implied_empirically(self, geometry_corpus):
        # wherever axioms 1 and 3-6 hold, axiom 2 holds as well; checked on
        # the whole corpus and on every standard mutant
        cases = list(geometry_corpus.items())
        cases += standard_mutations(geometry_corpus["P2(F2)"],
                                    geometry_corpus["P2(F3)"],
                                    geometry_corpus["Boolean(4)"])
        for name, g in cases:
            report = validate_axioms(g)
            ax = {a.number: a.passed for a in report.axioms}
            if ax[1] and ax[3] and ax[4] and ax[5] and ax[6]:
                assert ax[2], name


class TestLatticeEdges:
    def _geometry(self, points, specs):
        return IncidenceGeometry.from_point_sets(points, specs)

    def test_missing_meet_detected(self):
        # {a,b,c} and {b,c,d} share two singleton lower bounds whose union
        # {b,c} is absent, so no greatest lower bound exists; listing the
        # pair first makes it the canonical witness
        g = self._geometry("abcd", [
            (1, "abc"), (1, "bcd"),
            (-1, ""), (0, "a"), (0, "b"), (0, "c"), (0, "d"), (2, "abcd"),
        ])
        report = validate_axioms(g)
        ax1 = report.axioms[0]
        assert not ax1.passed
        assert "no meet" in ax1.witness
        assert "{a,b,c}" in ax1.witness

    def test_meet_found_when_union_present(self):
        # same shape, but {b,c} is in L: the meet exists (and is it)
        g = self._geometry("abcd", [
            (-1, ""), (0, "a"), (0, "b"), (0, "c"), (0, "d"),
            (1, "bc"), (1, "abc"), (1, "bcd"), (2, "abcd"),
        ])
        ax1 = validate_axioms(g).axioms[0]
        assert ax1.passed

    def test_missing_join_detected(self):
        # two incomparable upper bounds of {a},{b} whose intersection
        # {a,b} is absent: no least upper bound
        g = self._geometry("abcd", [
            (-1, ""), (0, "a"), (0, "b"), (0, "c"), (0, "d"),
            (1, "abc"), (1, "abd"), (2, "abcd"),
        ])
        ax1 = validate_axioms(g).axioms[0]
        assert not ax1.passed
        assert "join" in ax1.witness

    def test_no_upper_bound_at_all(self):
        g = self._geometry("ab", [(-1, ""), (0, "a"), (0, "b")])
        ax1 = validate_axioms(g).axioms[0]
        assert not ax1.passed

    def test_lattice_cap(self):
        g = build_boolean_geometry(16, cap=16)  # |L| = 2^16
        with pytest.raises(BudgetExceeded) as err:
            validate_axioms(g)
        assert "65536" in str(err.value) and "4096" in str(err.value)
        # one subspace over the cap: 4097 masks over 13 points
        over = IncidenceGeometry(tuple(f"p{i}" for i in range(13)),
                                 tuple(range(4097)), (0,) * 4097)
        with pytest.raises(BudgetExceeded) as err:
            validate_axioms(over)
        assert all(s in str(err.value) for s in ("4097", "8394753", "4096"))

    def test_one_lattice_per_geometry(self, monkeypatch):
        built = []

        class CountingLattice(geometry._Lattice):
            def __init__(self, g):
                built.append(g)
                super().__init__(g)

        monkeypatch.setattr(geometry, "_Lattice", CountingLattice)
        g = build_projective_space(2, 3)
        assert validate_axioms(g).passed
        assert check_derived_properties(g).passed
        assert built == [g]

    def test_one_axiom_pass_per_geometry(self, monkeypatch):
        calls = []
        _spy(monkeypatch, "_axiom_witnesses", calls.append)
        g = build_projective_space(2, 3)
        assert validate_axioms(g).passed
        assert calls == [g]
        assert check_derived_properties(g).passed
        assert calls == [g]  # property 1 follows from that pass

        fano = build_projective_space(2, 2)
        broken = drop_subspace(fano, fano.dims.index(1))
        calls.clear()
        assert not validate_axioms(broken).passed
        assert calls == [broken]
        with pytest.raises(ValueError, match=r"^geometry fails axiom 5 "):
            check_derived_properties(broken)
        assert calls == [broken]  # the refusal reads the same pass

    def test_pair_pass_only_where_the_certificate_fails(self, monkeypatch):
        calls = []
        _spy(monkeypatch, "_pair_witnesses", lambda g, closed, at_dim: calls.append(g))
        g = build_projective_space(2, 3)
        assert validate_axioms(g).passed
        assert calls == []
        broken = drop_subspace(g, g.dims.index(1))
        assert not validate_axioms(broken).passed
        assert calls == [broken]

    def test_meets_and_joins_equal_the_gathered_reference(self):
        # on each mutant and a shuffle of its members, every pair's meet
        # and join is the member the gather finds, or None where it finds
        # none
        @settings(max_examples=300, deadline=None)
        @given(derived_mutants(), st.integers(0, 2 ** 32))
        def check(g, seed):
            for h in (g, shuffle_members(g, seed)):
                ref, lat = lattice_reference(h), h._lattice
                ns = range(len(h.subspaces))
                assert [[lat.meet(i, j) for j in ns] for i in ns] == ref.meets
                assert [[lat.join(i, j) for j in ns] for i in ns] == ref.joins

        check()

    def test_up_and_down_sets_equal_plain_containment(self):
        # the sets are built from tables over blocks of eight points: the
        # point counts 1-10, 7, 15, 21, 85 and 91 end on and off a block's
        # edge, and each member order is checked again shuffled
        def check(g):
            masks, lat = g.subspaces, g._lattice
            for i, s in enumerate(masks):
                above = below = 0
                for j, t in enumerate(masks):
                    if s & t == s:
                        above |= 1 << j
                    if s & t == t:
                        below |= 1 << j
                assert (lat.above[i], lat.below[i]) == (above, below), g.describe_subspace(i)

        corpus = [build_boolean_geometry(n) for n in range(1, 11)]
        corpus += [build_projective_space(q, n) for q, n in ((2, 2), (2, 3), (4, 2), (4, 3), (9, 2))]
        for seed, g in enumerate(corpus):
            check(g)
            check(shuffle_members(g, seed))

        @settings(max_examples=200, deadline=None)
        @given(derived_mutants(), st.integers(0, 2 ** 32))
        def check_mutant(g, seed):
            check(g)
            check(shuffle_members(g, seed))

        check_mutant()

    def test_a_mask_listed_twice_is_refused(self):
        # L is a set of subsets: the copy is named with the member it
        # repeats, in the words of the JSON reader
        with pytest.raises(ValueError, match=r"^subspaces\[3\]: duplicate subspace "
                           r"\(same point set as subspaces\[1\]\)$"):
            IncidenceGeometry(("a", "b"), (0, 1, 2, 1), (-1, 0, 0, 0))
        with pytest.raises(ValueError, match=r"^subspaces\[2\]: .* subspaces\[0\]\)$"):
            IncidenceGeometry.from_point_sets("ab", [(1, "ab"), (0, "a"), (1, "ba")])

    @pytest.mark.parametrize("name", [*repeated_mask_documents(),
                                      "Boolean(4), {a,b} at dims 2 and 1"])
    def test_the_library_and_the_reader_refuse_a_repeated_point_set(self, name):
        # each family lists one point set twice, and the library and the
        # reader refuse it with one message, which names the first repeat
        # and the member it repeats
        if name.startswith("Boolean(4)"):
            specs = [(-1, "")] + [(0, x) for x in "abcd"] + [(1, p) for p in _pairs("abcd")]
            specs[5] = (2, "ab")
            specs.insert(6, (1, "ab"))
            specs += [(3, "".join(t)) for t in itertools.combinations("abcd", 3)]
            specs.append((4, "abcd"))
            doc = {"points": list("abcd"),
                   "subspaces": [{"dim": d, "points": list(s)} for d, s in specs]}
        else:
            doc = repeated_mask_documents()[name]
        sets = [frozenset(s["points"]) for s in doc["subspaces"]]
        j = next(j for j, s in enumerate(sets) if s in sets[:j])
        message = (f"subspaces[{j}]: duplicate subspace "
                   f"(same point set as subspaces[{sets.index(sets[j])}])")
        with pytest.raises(ValueError) as err:
            IncidenceGeometry.from_point_sets(
                doc["points"], [(s["dim"], s["points"]) for s in doc["subspaces"]])
        assert str(err.value) == message
        with pytest.raises(GeometryFormatError) as err:
            geometry_from_json(doc)
        assert str(err.value) == message

    def test_masks_must_lie_in_the_point_set(self):
        with pytest.raises(ValueError, match="outside the point set"):
            IncidenceGeometry(("a", "b"), (0, 1, 4), (-1, 0, 0))
        with pytest.raises(ValueError, match="outside the point set"):
            IncidenceGeometry(("a", "b"), (0, -1), (-1, 0))


def _spy(monkeypatch, name, record):
    """Replace geometry.<name> by a wrapper that calls record with the
    arguments of each call before passing it on."""
    fn = getattr(geometry, name)

    def wrapper(*args):
        record(*args)
        return fn(*args)
    monkeypatch.setattr(geometry, name, wrapper)


def _pairs(letters):
    return ["".join(p) for p in itertools.combinations(letters, 2)]


# name -> (family, the axioms it fails, the verdicts of certificate checks
# 1, 2 and 3); each family passes axioms 2, 3 and 4 but one, which fails
# axiom 4 and passes all three checks, so only the axiom-4 gate stops it
_CERTIFICATE_FAMILIES = {
    # the uniform matroid U(3,4): Boolean(4) without its 3-point members
    "U(3,4)": (IncidenceGeometry.from_point_sets(
        "abcd", [(-1, ""), *((0, x) for x in "abcd"),
                 *((1, p) for p in _pairs("abcd")), (2, "abcd")]),
        {5}, (True, False, True)),
    # its dual: the pairs of {a,b,c,d} as points, a line per letter
    "dual of U(3,4)": (IncidenceGeometry.from_point_sets(
        _pairs("abcd"), [(-1, ()), *((0, (p,)) for p in _pairs("abcd")),
                         *((1, [p for p in _pairs("abcd") if x in p]) for x in "abcd"),
                         (2, _pairs("abcd"))]),
        {5}, (False, True, True)),
    # a (7_3) configuration whose lines {0,1,2}, {0,1,3}, {0,1,4} share two points
    "(7_3)": (IncidenceGeometry.from_point_sets(
        "0123456", [(-1, ""), *((0, x) for x in "0123456"),
                    *((1, line) for line in ("012", "013", "014", "234", "256",
                                             "356", "456")),
                    (2, "0123456")]),
        {1, 5}, (True, True, False)),
    # another (7_3), where each point is the intersection of the lines
    # through it, but {0,2,3} and {1,2,3} share two points
    "(7_3), points cut out by lines": (IncidenceGeometry.from_point_sets(
        "0123456", [(-1, ""), *((0, x) for x in "0123456"),
                    *((1, line) for line in ("023", "045", "046", "123", "125",
                                             "136", "456")),
                    (2, "0123456")]),
        {1, 5}, (True, True, False)),
    "empty set at dim -2": (IncidenceGeometry.from_point_sets(
        "abcd", [(-2, ""), *((0, x) for x in "abcd"), (3, "abcd")]),
        {4, 5}, (True, True, True)),
}


class TestAxiomCertificate:
    @pytest.mark.parametrize("name", list(_CERTIFICATE_FAMILIES))
    def test_family_report_equals_the_reference(self, name):
        # each family fails the certificate at one check alone, or passes
        # all three and is stopped by the axiom-4 gate
        g, failing, checks = _CERTIFICATE_FAMILIES[name]
        report = validate_axioms(g).as_dict()
        assert report == reference_axioms(g)
        assert {a["number"] for a in report["axioms"] if not a["passed"]} == failing
        lat = g._lattice
        at_dim = {d: sum(1 << i for i, e in enumerate(g.dims) if e == d)
                  for d in set(g.dims)}
        top = (1 << len(g.points)) - 1
        assert (geometry._cover_count(lat.above, lat.below, g.dims, at_dim, 1),
                geometry._cover_count(lat.below, lat.above, g.dims, at_dim, -1),
                geometry._coatom_intersections(lat, top)) == checks

    def test_coatoms_must_cut_out_every_member(self):
        # the coatoms {a,b,c,d} and {e} meet every member in L, yet {a,b,c}
        # and {a,b,d} meet in {a,b}, which is not in L; only the coatoms
        # above {a} failing to cut it out stops check 3
        g = IncidenceGeometry.from_point_sets(
            "abcde", [(-1, ""), *((0, x) for x in "abcde"), (1, "abc"), (1, "abd"),
                      (2, "abcd"), (3, "abcde")])
        assert not geometry._coatom_intersections(g._lattice, 0b11111)
        assert not validate_axioms(g).axioms[0].passed

    def test_corpus_is_certified(self, geometry_corpus, monkeypatch):
        # input that passes the axioms never falls back to the pair pass
        monkeypatch.setattr(geometry, "_pair_witnesses", None)  # never called
        for name, g in geometry_corpus.items():
            fresh = IncidenceGeometry(g.points, g.subspaces, g.dims, g.claimed_order)
            assert validate_axioms(fresh).as_dict() == reference_axioms(fresh), name

    def test_report_equals_the_reference_on_mutants(self, monkeypatch):
        # each report equals the reference, and each way of answering
        # axioms 1 and 5 is drawn: the certificate alone, axiom 1 certified
        # by coatom closure, rows screened by dim and rows computed in full
        branches, ran = set(), set()
        _spy(monkeypatch, "_pair_witnesses", lambda g, closed, at_dim:
             ran.add("axiom 1 certified" if closed else "pair pass"))
        _spy(monkeypatch, "_screened_row", lambda *args: ran.add("screened rows"))
        _spy(monkeypatch, "_full_row", lambda *args: ran.add("full rows"))

        @settings(max_examples=300, deadline=None)
        @given(derived_mutants(), st.integers(0, 2 ** 32))
        def check(g, seed):
            for h in (g, shuffle_members(g, seed)):
                ran.clear()
                assert validate_axioms(h).as_dict() == reference_axioms(h)
                branches.update(ran or {"certificate"})

        check()
        assert branches == {"certificate", "pair pass", "axiom 1 certified",
                            "screened rows", "full rows"}

    def test_full_rows_stop_at_the_first_axiom_1_witness(self, monkeypatch):
        # P3(F3) without a line fails axiom 1 and never axiom 5, so the pass
        # reads every row: in full up to the row of axiom 1's first witness,
        # screened after it
        p3f3 = build_projective_space(3, 3)
        g = shuffle_members(drop_subspace(p3f3, p3f3.dims.index(1)), 12)
        ref = lattice_reference(g)
        ns = len(g.subspaces)
        first = next(i for i in range(ns)
                     if None in ref.meets[i][i:] + ref.joins[i][i:])
        rows = {"full": [], "screened": []}
        _spy(monkeypatch, "_full_row", lambda lat, dims, i, need1, need5:
             rows["full"].append(i))
        _spy(monkeypatch, "_screened_row", lambda lat, dims, layers, i:
             rows["screened"].append(i))
        report = validate_axioms(g).as_dict()
        assert report == reference_axioms(g)
        assert [a["number"] for a in report["axioms"] if not a["passed"]] == [1]
        assert 0 < first < ns - 1
        assert rows == {"full": list(range(first + 1)),
                        "screened": list(range(first + 1, ns))}

    def test_closed_family_stops_at_the_first_axiom_5_witness(self, monkeypatch):
        # P3(F3) with a line's dim bumped keeps every intersection in L, so
        # axiom 1 is certified and the rows stop at axiom 5's first witness,
        # each pair up to it read by one _Lattice.join call
        p3f3 = build_projective_space(3, 3)
        g = shuffle_members(perturb_dim(p3f3, p3f3.dims.index(1)), 12)
        ns = len(g.subspaces)
        rows, joins = [], []
        _spy(monkeypatch, "_full_row", lambda lat, dims, i, need1, need5:
             rows.append(i))
        join = geometry._Lattice.join

        def counting(lat, i, j):
            joins.append((i, j))
            return join(lat, i, j)
        monkeypatch.setattr(geometry._Lattice, "join", counting)
        report = validate_axioms(g).as_dict()
        assert report == reference_axioms(g)
        assert [a["number"] for a in report["axioms"] if not a["passed"]] == [2, 5]
        witness = report["axioms"][4]["witness"]
        last = next(i for i in range(ns)
                    if witness.startswith(f"S={g.describe_subspace(i)}, "))
        t = next(j for j in range(ns) if f", T={g.describe_subspace(j)}: " in witness)
        assert rows == list(range(last + 1)) and last < ns - 1
        assert last < t < ns - 1
        assert joins == [(i, j) for i in range(last + 1) for j in range(i, ns)
                         if i < last or j <= t]


def _screen_families():
    """name -> (family, the axioms it fails, whether rows are screened).

    Every intersection of members is a member in each, so axiom 1 is
    certified and no full row is needed where the rows can be screened.
    The first two families get axiom 5's witness wrong if the screen by
    dim layers loses one of its conditions: the axiom-2 gate, or least
    dims up and greatest dims down.  In the third, which fails axiom 2
    and has no axiom-5 witness, the full rows read every pair.
    """
    fano, b4 = build_projective_space(2, 2), build_boolean_geometry(4)
    # {p0,p1,p2} at dim 4 lies in the top at dim 3: the least dim among
    # the upper bounds of {p0} and {p1,p2} is the top's, not their join's
    bumped = perturb_dim(perturb_dim(b4, b4.subspaces.index(0b0110)),
                         b4.subspaces.index(0b0111), 2)
    # two points meet in the empty set at dim -2 and join in a line at
    # dim 1; the top's dim 2 and the empty set's add up to theirs
    low_empty = perturb_dim(fano, fano.subspaces.index(0), -1)
    flat = IncidenceGeometry(b4.points, b4.subspaces, (0,) * len(b4.dims))
    return {
        "Boolean(4), {p1,p2} at dim 2 and {p0,p1,p2} at dim 4": (bumped, {2, 5}, False),
        "Fano plane, empty set at dim -2": (low_empty, {4, 5}, True),
        "Boolean(4), every dim 0": (flat, {2, 4}, False),
    }


class TestScreenedRows:
    @pytest.mark.parametrize("name", list(_screen_families()))
    def test_family_report_equals_the_reference(self, name, monkeypatch):
        g, failing, screened = _screen_families()[name]
        rows = []
        _spy(monkeypatch, "_screened_row", lambda lat, dims, layers, i: rows.append(i))
        report = validate_axioms(g).as_dict()
        assert report == reference_axioms(g)
        assert {a["number"] for a in report["axioms"] if not a["passed"]} == failing
        assert bool(rows) == screened


class TestDerivedProperties:
    @pytest.mark.parametrize("key", ["P2(F2)", "P2(F3)", "P1(F3)", "Boolean(4)"])
    def test_pass_on_valid_geometries(self, geometry_corpus, key):
        report = check_derived_properties(geometry_corpus[key])
        assert report.passed, [p for p in report.properties if not p.passed]

    def test_interval_reference_passes_on_valid_geometries(self, geometry_corpus):
        corpus = dict(geometry_corpus)
        corpus["P3(F3)"] = build_projective_space(3, 3)
        corpus["Boolean(8)"] = build_boolean_geometry(8)
        for name, g in corpus.items():
            assert property_one_reference(g) is None, name

    def test_report_equals_the_always_evaluating_reference(self):
        branches = set()

        @settings(max_examples=300, deadline=None)
        @given(derived_mutants())
        def check(g):
            # certified when the axioms pass on L, refused with the first
            # failed axiom otherwise
            axioms = reference_axioms(g)
            failed = next((a for a in axioms["axioms"] if not a["passed"]), None)
            if failed is not None:
                branches.add("axioms fail")
                with pytest.raises(ValueError) as err:
                    check_derived_properties(g)
                assert str(err.value).startswith(
                    f"geometry fails axiom {failed['number']} ({failed['witness']})")
                return
            branches.add("axioms pass")
            got = check_derived_properties(g).as_dict()["properties"]
            assert property_one_reference(g) is None and got[0]["passed"]
            assert got[1:] == reference_derived_properties(g)

        check()
        assert branches == {"axioms fail", "axioms pass"}

    def test_certificate_reads_no_meet_join_or_line(self, monkeypatch):
        # once the axiom pass has run, neither a valid geometry's report
        # nor the refusal of a geometry that fails an axiom costs a meet,
        # join, line count or interval check
        calls = []

        def counting(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        g = build_projective_space(2, 3)
        broken = drop_subspace(g, g.dims.index(1))
        assert validate_axioms(g).passed and not validate_axioms(broken).passed
        counting(geometry._Lattice, "meet")
        counting(geometry._Lattice, "join")
        counting(geometry, "_line_order")
        counting(geometry, "_axiom_witnesses")
        assert check_derived_properties(g).passed
        with pytest.raises(ValueError, match=r"^geometry fails axiom 1 "):
            check_derived_properties(broken)
        assert calls == []

    def test_boolean_lines_are_pairs(self, geometry_corpus):
        g = geometry_corpus["Boolean(4)"]
        lines = [g.subspaces[i] for i, d in enumerate(g.dims) if d == 1]
        assert all(m.bit_count() == 2 for m in lines)
        assert len(lines) == 6

    @pytest.mark.parametrize("name", list(_standard_mutants()))
    def test_refusal_names_the_first_failed_axiom(self, name, monkeypatch):
        # each mutant fails an axiom: the report is refused with the first
        # one and its witness, read from the one axiom pass
        g = _standard_mutants()[name]
        fresh = IncidenceGeometry(g.points, g.subspaces, g.dims, g.claimed_order)
        calls = []
        _spy(monkeypatch, "_axiom_witnesses", calls.append)
        failed = next(a for a in reference_axioms(fresh)["axioms"] if not a["passed"])
        with pytest.raises(ValueError) as err:
            check_derived_properties(fresh)
        assert str(err.value) == (f"geometry fails axiom {failed['number']} "
                                  f"({failed['witness']}); validate first")
        assert calls == [fresh]


class TestCounting:
    def test_point_counts(self, geometry_corpus):
        for name, g in geometry_corpus.items():
            check = point_count_check(g)
            assert check.passed, (name, check)

    def test_point_count_values(self):
        g = build_projective_space(2, 3)
        assert point_count_check(g) == (15, 15, True)
        b5 = build_boolean_geometry(5)
        assert point_count_check(b5) == (5, 5, True)

    def test_p2_f4_points(self, geometry_corpus):
        assert point_count_check(geometry_corpus["P2(F4)"]).expected == 21

    def test_census_whole_corpus(self, geometry_corpus):
        for name, g in geometry_corpus.items():
            census = subspace_census(g)
            assert census.passed, (name, census.counts, census.expected)
            assert census.recurrence_passed, name

    def test_census_recurrence_is_checked_against_the_quotient_route(self, monkeypatch):
        # a recurrence route off by a factor of 2 must fail the identity,
        # which it would pass if it supplied every term itself
        true = geometry.q_binomial_recurrence
        monkeypatch.setattr(geometry, "q_binomial_recurrence",
                            lambda n, k: true(n, k) + true(n, k))
        assert not subspace_census(build_projective_space(2, 3)).recurrence_passed

    def test_census_values_p3_f2(self):
        census = subspace_census(build_projective_space(2, 3))
        assert census.counts[0] == 15
        assert census.counts[1] == 35
        assert census.counts[2] == 15

    def test_census_detects_corruption(self, fano):
        line = next(i for i, d in enumerate(fano.dims) if d == 1)
        census = subspace_census(drop_subspace(fano, line))
        assert not census.passed


class TestAffineDecomposition:
    def test_known_values(self):
        assert affine_decomposition(2, 2) == [4, 2, 1]
        assert affine_decomposition(3, 2) == [9, 3, 1]
        assert affine_decomposition(2, 0) == [1]

    def test_budget_counts_points(self):
        with pytest.raises(BudgetExceeded, match=r"P\^3\(F_2\) has 15 points"):
            affine_decomposition(2, 3, budget=14)
        with pytest.raises(BudgetExceeded, match=r"has at least 15 points"):
            affine_decomposition(2, 4, budget=14)
        assert affine_decomposition(2, 3, budget=15) == [8, 4, 2, 1]

    def test_powers_and_total(self):
        for q in (2, 3, 4):
            for n in range(4):
                sizes = affine_decomposition(q, n)
                assert sizes == [q ** (n - i) for i in range(n + 1)]
                assert sum(sizes) == q_integer(n + 1).evaluate(q)


class TestCollineations:
    def test_boolean_is_symmetric_group(self):
        import math
        for n in range(1, 8):
            g = build_boolean_geometry(n)
            assert collineation_order(g) == math.factorial(n), n

    def test_fano(self, fano):
        assert collineation_order(fano) == 168

    def test_projective_line_f2(self):
        assert collineation_order(build_projective_space(2, 1)) == 6

    def test_broken_fano_has_fewer(self, fano):
        line = next(i for i, d in enumerate(fano.dims) if d == 1)
        assert collineation_order(drop_subspace(fano, line)) < 168

    def test_cap(self, geometry_corpus):
        with pytest.raises(BudgetExceeded):
            collineation_order(geometry_corpus["P2(F3)"])  # 13 points
        with pytest.raises(BudgetExceeded):
            collineation_order(build_boolean_geometry(10))

    def test_node_budget(self, fano):
        with pytest.raises(BudgetExceeded, match="visited 6 nodes, over the "
                                                 "node budget of 5"):
            collineation_order(fano, max_nodes=5)
        assert collineation_order(fano, max_nodes=100) == 168

    # (geometry, order, nodes N): the search returns the order within N
    # nodes and exceeds a budget of N - 1.  These pin the work as well as
    # the answer; a frame-first base (ROADMAP item 3) will lower them on
    # purpose.  Boolean(5), seed 11 lacks {0,4}, {0,1,3} and {0,2,4}; its
    # N grows to 17 when a member trace t is bounded by |t| instead of
    # |t| - 1, which lets a non-member image through.
    NODE_PINS = {
        "P2(F3)": (lambda: build_projective_space(3, 2), 5616, 198),
        "P3(F2)": (lambda: build_projective_space(2, 3), 20160, 187),
        "P2(F4)": (lambda: build_projective_space(4, 2), 120960, 719),
        "P2(F5)": (lambda: build_projective_space(5, 2), 372000, 2458),
        "P3(F3)": (lambda: build_projective_space(3, 3), 12130560, 3207),
        "P1(F9)": (lambda: build_projective_space(9, 1), 3628800, 54),
        "Boolean(12)": (lambda: build_boolean_geometry(12), 479001600, 77),
        "Boolean(5), seed 11": (
            lambda: corrupt_family(build_boolean_geometry(5), 11), 2, 11),
    }

    @pytest.mark.parametrize("name", sorted(NODE_PINS))
    def test_node_count_is_pinned(self, name):
        build, order, nodes = self.NODE_PINS[name]
        g = build()
        npts = len(g.points)
        assert collineation_order(g, max_points=npts, max_nodes=nodes) == order
        with pytest.raises(BudgetExceeded, match=f"visited {nodes} nodes"):
            collineation_order(g, max_points=npts, max_nodes=nodes - 1)

    def test_matches_sweep_on_corpus(self, geometry_corpus, fano):
        corpus = dict(geometry_corpus)
        corpus.update(standard_mutations(fano, geometry_corpus["P2(F3)"],
                                         geometry_corpus["Boolean(4)"]))
        corpus["Boolean(5), seed 11"] = self.NODE_PINS["Boolean(5), seed 11"][0]()
        small = {name: g for name, g in corpus.items() if len(g.points) <= 8}
        assert len(small) == 23
        for name, g in small.items():
            assert collineation_order(g) == sweep_collineation_order(g), name

    @settings(max_examples=300, deadline=None)
    @given(mutant_families())
    def test_matches_sweep_on_mutants(self, g):
        assert collineation_order(g) == sweep_collineation_order(g)

    def test_matches_incidence_graph_automorphisms(self, geometry_corpus, fano):
        corpus = {name: geometry_corpus[name]
                  for name in ("P2(F2)", "P1(F3)", "P1(F4)", "Boolean(4)")}
        corpus.update(standard_mutations(fano, geometry_corpus["P2(F3)"],
                                         geometry_corpus["Boolean(4)"]))
        corpus.pop("P2(F3) minus line")
        for name, g in corpus.items():
            assert collineation_order(g) == _incidence_graph_automorphisms(g), name


class TestJson:
    def test_round_trip(self, geometry_corpus):
        for name, g in geometry_corpus.items():
            doc = geometry_to_json(g)
            back = geometry_from_json(doc)
            assert back == g, name

    def test_serialization_stable(self, fano):
        doc = geometry_to_json(fano)
        text = json.dumps(doc, indent=2)
        again = json.dumps(geometry_to_json(geometry_from_json(json.loads(text))),
                           indent=2)
        assert text == again

    def test_subspace_point_lists_sorted(self, fano):
        doc = geometry_to_json(fano)
        for entry in doc["subspaces"]:
            assert entry["points"] == sorted(entry["points"])

    def test_format_errors(self):
        good = {"points": ["a", "b"],
                "subspaces": [{"dim": -1, "points": []},
                              {"dim": 0, "points": ["a"]},
                              {"dim": 0, "points": ["b"]},
                              {"dim": 1, "points": ["a", "b"]}],
                "claimed_order": 1}
        assert validate_axioms(geometry_from_json(good)).passed

        bad_cases = [
            ([], "top level"),
            ({"subspaces": []}, "points: missing"),
            ({"points": ["a", "a"], "subspaces": []}, "duplicate point"),
            ({"points": [1], "subspaces": []}, "points[0]"),
            ({"points": ["a"]}, "subspaces: missing"),
            ({"points": ["a"], "subspaces": [{"dim": 0}]}, ".points"),
            ({"points": ["a"], "subspaces": [{"points": ["a"]}]}, ".dim"),
            ({"points": ["a"], "subspaces": [{"dim": -2, "points": []}]}, ">= -1"),
            ({"points": ["a"], "subspaces": [{"dim": 0, "points": ["z"]}]},
             "unknown point"),
            ({"points": ["a"], "subspaces": [{"dim": 0, "points": ["a", "a"]}]},
             "duplicate point"),
            ({"points": ["a"], "subspaces": [{"dim": 0, "points": ["a"]},
                                             {"dim": 1, "points": ["a"]}]},
             "duplicate subspace"),
            ({"points": ["a"], "subspaces": [], "claimed_order": 0}, "claimed_order"),
            ({"points": ["a"], "subspaces": [], "claimed_order": "x"},
             "claimed_order"),
        ]
        for doc, fragment in bad_cases:
            with pytest.raises(GeometryFormatError) as err:
                geometry_from_json(doc)
            assert fragment in str(err.value), doc

    def test_hand_entered_geometry_validates(self):
        # the 7-point plane typed in by hand, cyclic {i, i+1, i+3} lines
        points = [f"n{i}" for i in range(7)]
        lines = [[f"n{i}", f"n{(i + 1) % 7}", f"n{(i + 3) % 7}"] for i in range(7)]
        doc = {
            "points": points,
            "subspaces": ([{"dim": -1, "points": []}]
                          + [{"dim": 0, "points": [p]} for p in points]
                          + [{"dim": 1, "points": sorted(line)} for line in lines]
                          + [{"dim": 2, "points": points}]),
        }
        g = geometry_from_json(doc)
        report = validate_axioms(g)
        assert report.passed
        assert report.order == 2
        assert collineation_order(g) == 168
