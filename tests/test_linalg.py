import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproj import linalg
from qproj import (BudgetExceeded, DimensionMismatch, count_independent_tuples,
                   enumerate_subspaces, make_field, q_binomial_recurrence, rref,
                   span_canonical)
from qproj.cli import EXIT_USAGE, EXIT_VERIFY, run


# --- independent oracle: span every k-subset of nonzero vectors, dedupe ----

def all_vectors(field, n):
    return list(itertools.product(range(field.q), repeat=n))


def spanning_oracle(q, n, k):
    """Every k-subspace as the set of spans of k-subsets of nonzero vectors."""
    field = make_field(q)
    nonzero = [v for v in all_vectors(field, n) if any(v)]
    found = set()
    for subset in itertools.combinations(nonzero, k):
        s = span_canonical(field, n, subset)
        if len(s) == k:
            found.add(s)
    if k == 0:
        found = {span_canonical(field, n, [])}
    return found


BAD_FILLINGS = pytest.mark.parametrize("bad, match", [
    ((0, 1, 0, 0), "starts elsewhere"),  # pivot column left empty
    ((1, 0, 2, 0), "nonzero entry in a pivot column"),
    ((0, 0, 0, 0), "zero row"),
    ((1, 3, 0, 0), "not a code of F_3"),
    ((1, 0, 0), "wrong length"),
    ((2, 0, 0, 0), "pivot entry must be 1"),
])


def edit_fillings(monkeypatch, edit):
    """Pass the fillings of row 0 of pivot pattern (0, 2) through edit."""
    real = linalg._row_fillings

    def fillings(q, n, pivots, i):
        rows = real(q, n, pivots, i)
        return edit(rows) if pivots == (0, 2) and i == 0 else rows

    monkeypatch.setattr(linalg, "_row_fillings", fillings)


class TestRref:
    def test_identity_fixed(self):
        m = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        r, rank = rref(make_field(2), m)
        assert r == m
        assert rank == 3

    def test_zero_matrix(self):
        m = ((0, 0), (0, 0))
        r, rank = rref(make_field(3), m)
        assert r == m
        assert rank == 0

    def test_dependent_rows_over_f3(self):
        # (2,1) = 2 * (1,2) over F_3, so rank 1
        r, rank = rref(make_field(3), [[1, 2], [2, 1]])
        assert rank == 1
        assert r == ((1, 2), (0, 0))

    def test_full_rank_over_f5(self):
        r, rank = rref(make_field(5), [[2, 1], [1, 1]])
        assert rank == 2
        assert r == ((1, 0), (0, 1))

    def test_malformed_rows_rejected(self):
        with pytest.raises(ValueError):
            rref(make_field(2), [[1, 0], [1]])  # ragged
        with pytest.raises(ValueError):
            rref(make_field(3), [[1, 3]])  # 3 is not a code of F_3
        with pytest.raises(ValueError):
            rref(make_field(3), [[-1, 0]])

    @given(st.integers(0, 3 ** 6 - 1))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, seed):
        codes = [(seed // 3 ** i) % 3 for i in range(6)]
        f = make_field(3)
        r1, rank1 = rref(f, [codes[:3], codes[3:]])
        r2, rank2 = rref(f, r1)
        assert r1 == r2
        assert rank1 == rank2


class TestSpanCanonical:
    def test_empty_span(self):
        assert span_canonical(make_field(2), 3, []) == ()

    def test_full_plane_over_f2(self):
        f = make_field(2)
        assert span_canonical(f, 2, [(1, 1), (0, 1)]) == ((1, 0), (0, 1))

    def test_collinear_vectors_over_f5(self):
        f = make_field(5)
        s = span_canonical(f, 3, [(1, 2, 0), (2, 4, 0)])
        assert s == ((1, 2, 0),)

    def test_pivots_must_increase(self, monkeypatch):
        # each row is a valid RREF row, but the pivots run 1, 0
        monkeypatch.setattr(linalg, "rref", lambda field, rows: (((0, 1), (1, 0)), 2))
        with pytest.raises(ValueError, match="pivot columns must strictly increase"):
            span_canonical(make_field(2), 2, [(0, 1), (1, 0)])

    @pytest.mark.parametrize("vector, error, match", [
        ((0, -1, 0), ValueError, "not a code of F_2"),
        ((0, 2, 0), ValueError, "not a code of F_2"),
        ((1, 0), DimensionMismatch, "ambient"),
        ((0, 0), DimensionMismatch, "ambient"),  # spans nothing, still refused
    ], ids=["negative", "past-q", "short", "short-zero"])
    def test_bad_vector_rejected(self, vector, error, match):
        f = make_field(2)
        with pytest.raises(error, match=match):
            span_canonical(f, 3, [vector])


class TestEnumeration:
    def test_counts_small(self):
        assert len(enumerate_subspaces(2, 3, 1)) == 7
        assert len(enumerate_subspaces(3, 3, 1)) == 13
        assert len(enumerate_subspaces(2, 3, 3)) == 1
        assert len(enumerate_subspaces(5, 4, 4)) == 1

    def test_counts_match_gaussian_binomial(self):
        for q in (2, 3, 4, 5):
            for n in range(5):
                for k in range(n + 1):
                    subs = enumerate_subspaces(q, n, k)
                    expected = q_binomial_recurrence(n, k).evaluate(q)
                    assert len(subs) == expected
                    assert len(set(subs)) == len(subs)

    def test_matches_spanning_oracle(self):
        for q in (2, 3):
            for n in range(4):
                for k in range(n + 1):
                    enumerated = set(enumerate_subspaces(q, n, k))
                    assert enumerated == spanning_oracle(q, n, k)

    def test_deterministic_order(self):
        a = enumerate_subspaces(3, 4, 2)
        b = enumerate_subspaces(3, 4, 2)
        assert a == b

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
    def test_every_enumerated_basis_is_its_own_rref(self, q):
        # the enumerator checks rows per filling, not per basis; Gaussian
        # elimination of each basis must give it back unchanged, at full rank
        field = make_field(q)
        for n in range(4 if q == 16 else 5):
            for k in range(n + 1):
                for basis in enumerate_subspaces(q, n, k):
                    assert rref(field, basis) == (basis, k)

    def test_bases_of_a_pattern_share_its_pivots(self):
        by_pattern = {}
        for basis, pivots in linalg._rref_bases(3, 4, 2):
            assert by_pattern.setdefault(pivots, pivots) is pivots
            assert pivots == tuple(row.index(1) for row in basis)
        assert len(by_pattern) == 6

    @BAD_FILLINGS
    def test_enumerator_refuses_a_bad_filling(self, monkeypatch, bad, match):
        edit_fillings(monkeypatch, lambda rows: rows + [bad])
        with pytest.raises(ValueError, match=match):
            enumerate_subspaces(3, 4, 2)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_subspaces(5, 4, 2, budget=100)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            enumerate_subspaces(2, 3, 4)
        with pytest.raises(ValueError):
            enumerate_subspaces(2, 3, -1)


class TestCountIndependentTuples:
    def test_known(self):
        assert count_independent_tuples(2, 2, 2) == 6
        assert count_independent_tuples(7, 5, 0) == 1
        assert count_independent_tuples(2, 3, 1) == 7

    def test_quotient_counts_subspaces(self):
        for q in (2, 3, 4):
            for n in range(5):
                for k in range(n + 1):
                    top = count_independent_tuples(q, n, k)
                    bottom = count_independent_tuples(q, k, k)
                    assert top % bottom == 0
                    assert top // bottom == len(enumerate_subspaces(q, n, k))


class TestStream:
    """The CLI's `subspaces` walks the stream of (basis, pivots) pairs; it
    must see the same bases, and the same refusals, as the list."""

    @BAD_FILLINGS
    @pytest.mark.parametrize("listing", [[], ["--list"]])
    def test_cli_refuses_a_bad_filling(self, monkeypatch, bad, match, listing):
        edit_fillings(monkeypatch, lambda rows: rows + [bad])
        with pytest.raises(ValueError, match=match) as refused:
            enumerate_subspaces(3, 4, 2)
        res = run(["subspaces", "3", "4", "2", *listing])
        assert res.exit_code == EXIT_USAGE
        assert res.error == f"error: {refused.value}"

    @pytest.mark.parametrize("listing", [[], ["--list"]])
    def test_cli_count_walks_the_enumeration(self, monkeypatch, listing):
        # one filling of row 0 dropped loses the 3 bases it starts
        edit_fillings(monkeypatch, lambda rows: rows[1:])
        res = run(["subspaces", "3", "4", "2", *listing])
        assert res.exit_code == EXIT_VERIFY
        lines = res.text.splitlines()
        assert lines[0] == "count: 127 (expected 130)"
        assert lines[-1] == ("MISMATCH: enumeration disagrees with the "
                             "Gaussian binomial")
        assert len(lines) == (129 if listing else 2)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
    def test_cli_sees_the_bases_of_the_list(self, q):
        for n in range(5 if q <= 5 else 4):
            for k in range(n + 1):
                subs = enumerate_subspaces(q, n, k)
                argv = ["subspaces", str(q), str(n), str(k)]
                assert run(argv).text == f"count: {len(subs)} (expected {len(subs)})"
                data = json.loads(run(argv + ["--list", "--json"]).text)["data"]
                assert data["count"] == len(subs)
                assert data["subspaces"] == [[list(row) for row in basis]
                                             for basis in subs]


def test_contains():
    # a vector lies in a subspace exactly when adding it leaves the RREF
    # basis of the span unchanged
    f = make_field(2)
    s = span_canonical(f, 3, [(1, 0, 1)])
    assert span_canonical(f, 3, [*s, (1, 0, 1)]) == s
    assert span_canonical(f, 3, [*s, (0, 0, 0)]) == s
    assert span_canonical(f, 3, [*s, (1, 1, 0)]) != s
    # over F_3 the members are the q^2 combinations of the two basis rows
    f = make_field(3)
    s = span_canonical(f, 3, [(1, 2, 0), (0, 1, 1)])
    members = {tuple((a * x + b * y) % 3 for x, y in zip(*s))
               for a in range(3) for b in range(3)}
    for v in itertools.product(range(3), repeat=3):
        assert (span_canonical(f, 3, [*s, v]) == s) == (v in members)
