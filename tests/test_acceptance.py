"""Acceptance suite: one test per criterion, one printed verdict line each.

Every comparison is exact (integer or coefficientwise polynomial
equality); there are no tolerances to tune.  Run with `pytest -s
tests/test_acceptance.py` to see the verdict lines as they pass.
"""

import itertools
import math
import time

from qproj import (BruckRyserVerdict, brute_force_psl_order,
                   bruck_ryser, build_boolean_geometry, build_projective_space,
                   collineation_order, count_independent_tuples,
                   enumerate_subspaces, expand_binomial,
                   factor_prime_power, gl_order, make_field, nc_coefficient,
                   pgl_order, point_count_check, psl_order,
                   q_binomial_quotient, q_binomial_recurrence,
                   span_canonical, subspace_census, validate_axioms,
                   area_generating_function)

from util import standard_mutations


def _verdict(num, description, t0):
    print(f"criterion {num:2d}: PASS - {description} ({time.time() - t0:.2f}s)")


def test_criterion_1_two_route_gaussian_binomials():
    t0 = time.time()
    for n in range(21):
        for k in range(n + 1):
            assert q_binomial_recurrence(n, k) == q_binomial_quotient(n, k), (n, k)
    _verdict(1, "recurrence and quotient routes agree for all n <= 20", t0)


def test_criterion_2_noncommutative_binomial_theorem():
    t0 = time.time()
    for n in range(31):
        expansion = expand_binomial(n)
        assert len(expansion) == n + 1
        for k in range(n + 1):
            assert nc_coefficient(expansion, k, n - k) == q_binomial_recurrence(n, k)
    expansion = expand_binomial(120)
    assert len(expansion) == 121
    assert nc_coefficient(expansion, 60, 60) == q_binomial_recurrence(120, 60)
    _verdict(2, "normal-ordered expansion coefficients for all n <= 30 "
                "and [120 choose 60]", t0)


def test_criterion_3_subspace_counting():
    t0 = time.time()
    for q in (2, 3, 4, 5):
        for n in range(5):
            for k in range(n + 1):
                subs = enumerate_subspaces(q, n, k)
                assert len(subs) == q_binomial_recurrence(n, k).evaluate(q)
                assert len(set(subs)) == len(subs)
    # independent oracle: spans of k-subsets of nonzero vectors, deduplicated
    for q in (2, 3):
        field = make_field(q)
        for n in range(4):
            vectors = [v for v in itertools.product(range(q), repeat=n)
                       if any(v)]
            for k in range(n + 1):
                if k == 0:
                    oracle = {span_canonical(field, n, [])}
                else:
                    oracle = {s for s in
                              (span_canonical(field, n, sub)
                               for sub in itertools.combinations(vectors, k))
                              if len(s) == k}
                assert set(enumerate_subspaces(q, n, k)) == oracle, (q, n, k)
    _verdict(3, "subspace counts (q <= 5, n <= 4) and span-dedupe oracle", t0)


def test_criterion_4_axiom_validation(geometry_corpus):
    t0 = time.time()
    for name, g in geometry_corpus.items():
        report = validate_axioms(g)
        assert report.passed, (name, [a for a in report.axioms if not a.passed])

    mutants = standard_mutations(geometry_corpus["P2(F2)"],
                                 geometry_corpus["P2(F3)"],
                                 geometry_corpus["Boolean(4)"])
    assert len(mutants) >= 10
    for name, mutant in mutants:
        report = validate_axioms(mutant)
        assert not report.passed, name
        assert all(a.witness for a in report.axioms if not a.passed), name
    _verdict(4, f"axioms pass on {len(geometry_corpus)} geometries; "
                f"{len(mutants)} mutations each flagged with a witness", t0)


def test_criterion_5_point_counts(geometry_corpus):
    t0 = time.time()
    for name, g in geometry_corpus.items():
        check = point_count_check(g)
        assert check.passed, (name, check)
    _verdict(5, "point counts equal 1 + q + ... + q^n on the full corpus", t0)


def test_criterion_6_subspace_census(geometry_corpus):
    t0 = time.time()
    for name, g in geometry_corpus.items():
        census = subspace_census(g)
        assert census.passed, (name, census.counts, census.expected)
        assert census.recurrence_passed, name
        if name.startswith("Boolean("):
            n = census.dimension
            assert census.counts == {k: math.comb(n + 1, k + 1)
                                     for k in range(-1, n + 1)}
    _verdict(6, "dimension census matches Gaussian binomials (Pascal at q=1)", t0)


def test_criterion_7_area_generating_function():
    t0 = time.time()
    for m in range(1, 7):
        for n in range(1, 7):
            gf = area_generating_function(m, n)
            assert gf == q_binomial_recurrence(m + n, m), (m, n)
            assert gf.is_palindromic(), (m, n)
    _verdict(7, "path-area generating functions for m, n <= 6, palindromic", t0)


def test_criterion_8_collineation_counts(geometry_corpus):
    t0 = time.time()
    assert collineation_order(geometry_corpus["P2(F2)"]) == 168
    assert collineation_order(geometry_corpus["P1(F2)"]) == 6
    for n in range(1, 9):
        g = build_boolean_geometry(n)
        assert collineation_order(g) == math.factorial(n), n
    _verdict(8, "collineations: Fano 168, P1(F2) 6, Boolean(n) = n! for n <= 8", t0)


def test_criterion_9_group_orders(fano):
    t0 = time.time()
    for (n, q), expected in {(2, 2): 6, (2, 3): 12, (3, 2): 168}.items():
        assert psl_order(n, q) == expected
        assert brute_force_psl_order(n, q) == expected
    assert psl_order(3, 2) == collineation_order(fano)
    for n in (1, 2, 3):
        for q in (2, 3, 4):
            assert gl_order(n, q) == count_independent_tuples(q, n, n)
    _verdict(9, "group-order formulas match brute force and tuple counts", t0)


def test_criterion_10_bruck_ryser():
    t0 = time.time()
    assert bruck_ryser(6)[0] is BruckRyserVerdict.FAILS
    assert bruck_ryser(10)[0] is BruckRyserVerdict.PASSES
    assert bruck_ryser(12)[0] is BruckRyserVerdict.NOT_APPLICABLE
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        if q % 4 in (1, 2):
            assert bruck_ryser(q)[0] is BruckRyserVerdict.PASSES, q
    from qproj.cli import run
    annotated = run(["plane", "bruck-ryser", "10"])
    assert annotated.exit_code == 0
    assert "no projective plane of order 10" in annotated.text
    _verdict(10, "order 6 fails, 10 passes with annotation, 12 not applicable", t0)


def test_criterion_11_collineation_groups_are_pgammal():
    # the formula side reads only pgl_order and factor_prime_power: by the
    # fundamental theorem of projective geometry the collineations of
    # P^n(F_q), n >= 2, form PGammaL_(n+1)(F_q), of order |PGL| * e for
    # q = p^e; every permutation of a projective line is a collineation;
    # and at q = 1 the group is S_n, the paper's GL_n(F_1)
    t0 = time.time()
    for q, n in ((3, 2), (2, 3), (4, 2), (5, 2), (3, 3)):
        g = build_projective_space(q, n)
        _, e = factor_prime_power(q)
        assert collineation_order(g, max_points=len(g.points)) \
            == pgl_order(n + 1, q) * e, (q, n)
    for q in (2, 3, 4, 5, 7, 8, 9):
        g = build_projective_space(q, 1)
        assert collineation_order(g, max_points=q + 1) == math.factorial(q + 1), q
    for n in range(1, 13):
        g = build_boolean_geometry(n)
        assert collineation_order(g, max_points=n) == math.factorial(n), n
    _verdict(11, "collineations: PGammaL on P2(F3), P3(F2), P2(F4), P2(F5), "
                 "P3(F3); (q+1)! on P1(F_q); n! on Boolean(n) for n <= 12", t0)
