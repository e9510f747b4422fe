import math

import pytest

from qproj import groups
from qproj import (BudgetExceeded, DegenerateQ, NotAPrimePower,
                   alternating_group_comparison, brute_force_psl_order,
                   build_boolean_geometry, collineation_order,
                   count_independent_tuples, gl_order, group_order, pgl_order,
                   psl_order, q_factorial, sl_order)


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


class TestBruteForce:
    @pytest.mark.parametrize("n,q,expected", [(2, 2, 6), (2, 3, 12), (3, 2, 168),
                                              (2, 4, 60), (2, 8, 504), (2, 9, 360)])
    def test_matches_formula(self, n, q, expected):
        assert brute_force_psl_order(n, q) == expected
        assert brute_force_psl_order(n, q) == psl_order(n, q)

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
