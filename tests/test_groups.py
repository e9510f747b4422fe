import itertools
import math
import os
import random
import subprocess
import sys

import pytest

from qproj import groups
from qproj import (BudgetExceeded, DegenerateQ, NotAPrimePower,
                   alternating_group_comparison, brute_force_psl_order,
                   build_boolean_geometry, collineation_order,
                   count_independent_tuples, gl_order, group_order, make_field,
                   pgl_order, psl_order, q_factorial, sl_order)
from qproj.cli import run


class TestGlOrder:
    def test_known(self):
        assert gl_order(1, 7) == 6
        assert gl_order(2, 2) == 6
        assert gl_order(2, 3) == 48

    def test_equals_independent_tuple_count(self):
        for n in (1, 2, 3):
            for q in (2, 3, 4):
                assert gl_order(n, q) == count_independent_tuples(q, n, n)

    def test_equals_sequential_product(self):
        # the product tree regroups the factors; a running product is the
        # formula as written
        for q in (2, 3, 4, 5, 7, 9, 16, 27):
            for n in range(1, 31):
                out = 1
                for i in range(n):
                    out *= q ** n - q ** i
                assert gl_order(n, q) == out, (n, q)

    def test_errors(self):
        with pytest.raises(ValueError):
            gl_order(0, 2)
        with pytest.raises(NotAPrimePower):
            gl_order(2, 6)


class TestDerivedFamilies:
    def test_sl_divisibility_is_checked(self, monkeypatch):
        monkeypatch.setattr(groups, "gl_order", lambda n, q: 7)
        with pytest.raises(AssertionError, match="does not divide"):
            sl_order(2, 3)

    def test_sl_pgl_relations(self):
        for n in (2, 3):
            for q in (2, 3, 4, 5):
                assert sl_order(n, q) == gl_order(n, q) // (q - 1)
                assert pgl_order(n, q) == gl_order(n, q) // (q - 1)
                assert psl_order(n, q) == sl_order(n, q) // math.gcd(n, q - 1)

    def test_dispatch(self):
        assert group_order("psl", 3, 2).order == 168
        assert group_order("GL", 2, 2).order == 6
        assert group_order("GL", 2, 2).method == "formula"
        with pytest.raises(ValueError):
            group_order("SO", 3, 2)


class TestPslOrder:
    def test_known(self):
        assert psl_order(2, 2) == 6
        assert psl_order(2, 3) == 12
        assert psl_order(3, 2) == 168
        assert psl_order(2, 5) == 60
        assert psl_order(2, 7) == 168

    def test_degenerate_q(self):
        with pytest.raises(DegenerateQ) as err:
            psl_order(3, 1)
        assert "0/n" in str(err.value)

    def test_errors(self):
        with pytest.raises(ValueError):
            psl_order(1, 2)
        with pytest.raises(NotAPrimePower):
            psl_order(2, 6)

    def test_bits_bound_comes_before_the_factorial(self, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return q_factorial(n)

        monkeypatch.setattr(groups, "q_factorial", counted)
        with pytest.raises(BudgetExceeded, match="bit_length"):
            psl_order(120, 2 ** 400)
        assert calls == []
        assert psl_order(3, 2) == 168 and calls == [3]


# every (n, q) with n >= 2 whose q^(n^2) matrices the default cap admits
UNDER_CAP = [(2, 2, 6), (2, 3, 12), (3, 2, 168), (2, 4, 60), (2, 8, 504), (2, 9, 360),
             (2, 5, 60), (2, 7, 168), (2, 11, 660), (3, 3, 5616)]


def _leibniz_det(rows, field):
    # sum over permutations p of sign(p) * prod_i rows[i][p(i)], on element codes
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        term = 1
        for i, j in enumerate(perm):
            term = mul[term][rows[i][j]]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total = add[total][neg[term] if inversions % 2 else term]
    return total


def _check_completions(n, q, prefixes):
    field = make_field(q)
    last_rows = list(itertools.product(range(q), repeat=n))
    for prefix in prefixes:
        dets = groups._completion_dets(prefix, field)
        assert len(dets) == q ** n
        for x, det in zip(last_rows, dets):
            assert det == _leibniz_det(prefix + (x,), field), (prefix, x)


class TestBruteForce:
    @pytest.mark.parametrize("n,q,expected", UNDER_CAP)
    def test_matches_formula(self, n, q, expected):
        assert brute_force_psl_order(n, q) == expected
        assert brute_force_psl_order(n, q) == psl_order(n, q)

    def test_formula_cases_are_all_the_cap_admits(self):
        prime_powers = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
        admitted = {(n, q) for n in (2, 3, 4) for q in prime_powers
                    if q ** (n * n) <= groups.DEFAULT_BRUTE_CAP}
        assert admitted == {(n, q) for n, q, _ in UNDER_CAP}

    @pytest.mark.parametrize("n,q", [(2, 3), (2, 4), (2, 11), (3, 2)])
    def test_every_determinant_matches_leibniz(self, n, q):
        # the counts cannot see a sign error: over the nonzero values the
        # determinant's fibres have equal size, so each det is checked
        rows = itertools.product(range(q), repeat=n)
        _check_completions(n, q, itertools.product(rows, repeat=n - 1))

    def test_sampled_3x3_determinants_over_f3_match_leibniz(self):
        rng = random.Random(33)
        rows = list(itertools.product(range(3), repeat=3))
        _check_completions(3, 3, [(rng.choice(rows), rng.choice(rows)) for _ in range(80)])

    def test_missing_completion_is_an_internal_error(self, monkeypatch):
        # the walk must form q^(n^2) determinants; run reports the miss as exit 4
        complete = groups._completion_dets
        monkeypatch.setattr(groups, "_completion_dets", lambda p, f: complete(p, f)[1:])
        with pytest.raises(AssertionError, match="determinants"):
            brute_force_psl_order(2, 3)
        res = run(["group", "order", "PSL", "2", "3", "--brute-force"])
        assert res.exit_code == 4 and "AssertionError" in res.error

    def test_checks_survive_optimize_flag(self):
        # python -O strips assert statements; the oracle's checks are raises
        script = ("from qproj import groups\n"
                  "complete = groups._completion_dets\n"
                  "groups._completion_dets = lambda p, f: complete(p, f)[1:]\n"
                  "try:\n"
                  "    groups.brute_force_psl_order(2, 3)\n"
                  "except AssertionError as e:\n"
                  "    print('raised', e)\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(groups.__file__)))
        res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("raised ")

    def test_gl1_center(self):
        # n = 1: every nonzero scalar has det = itself; only det 1 counts,
        # and the center is the single scalar with lambda^1 = 1
        assert brute_force_psl_order(1, 5) == 1

    def test_cap(self):
        with pytest.raises(BudgetExceeded):
            brute_force_psl_order(3, 4)
        with pytest.raises(BudgetExceeded):
            brute_force_psl_order(2, 3, cap=10)


class TestCrossModule:
    def test_fano_collineations_equal_psl32(self, fano):
        assert collineation_order(fano) == psl_order(3, 2) == 168

    def test_boolean_collineations_are_symmetric_orders(self):
        for n in (2, 3, 4):
            rep = alternating_group_comparison(n)
            assert rep.symmetric_order == collineation_order(build_boolean_geometry(n))


class TestAlternatingComparison:
    def test_values(self):
        assert alternating_group_comparison(3).alternating_order == 3
        assert alternating_group_comparison(3).symmetric_order == 6
        assert alternating_group_comparison(4).alternating_order == 12
        rep5 = alternating_group_comparison(5)
        assert rep5.alternating_order == 60
        assert rep5.alternating_is_simple

    def test_not_simple_below_five(self):
        assert not alternating_group_comparison(4).alternating_is_simple

    def test_bounds(self):
        with pytest.raises(ValueError):
            alternating_group_comparison(1)
        with pytest.raises(BudgetExceeded):
            alternating_group_comparison(13)
