import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qproj
from qproj import qcalc
from qproj import (BudgetExceeded, InexactDivision, QPoly,
                   expand_binomial, q_binomial_quotient, q_binomial_recurrence,
                   q_factorial, q_integer)
from qproj.qcalc import MAX_Q_SERIES_N, _divide_by_q_integer, _times_q_integer


class TestQPoly:
    def test_trimming(self):
        assert QPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert QPoly([0, 0]).coeffs == ()
        assert not QPoly([0])
        assert QPoly([1]) == QPoly.one()

    def test_degree(self):
        assert QPoly.zero().degree == -1
        assert QPoly([5]).degree == 0
        assert QPoly([0, 0, 3]).degree == 2

    def test_arithmetic(self):
        a = QPoly([1, 1])
        b = QPoly([1, 0, 1])
        assert (a + b).coeffs == (2, 1, 1)
        assert (a - a).coeffs == ()
        assert (a * b).coeffs == (1, 1, 1, 1)
        assert (a * 0) == QPoly.zero()
        assert (a ** 2).coeffs == (1, 2, 1)
        assert a.shift(2).coeffs == (0, 0, 1, 1)

    def test_negative_shift_refused(self):
        for p in (QPoly([1, 2, 3]), QPoly.zero()):
            with pytest.raises(ValueError):
                p.shift(-1)

    def test_evaluate(self):
        p = QPoly([1, 2, 3])
        assert p.evaluate(0) == 1
        assert p.evaluate(1) == 6
        assert p.evaluate(-2) == 1 - 4 + 12
        assert QPoly.zero().evaluate(7) == 0

    def test_str(self):
        assert str(QPoly.zero()) == "0"
        assert str(QPoly([1, 1, 2])) == "1 + q + 2q^2"
        assert str(QPoly([0, -1])) == "-q"

    @given(st.lists(st.integers(-50, 50), max_size=8),
           st.lists(st.integers(-50, 50), max_size=8),
           st.lists(st.integers(-50, 50), max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_ring_axioms(self, xs, ys, zs):
        a, b, c = QPoly(xs), QPoly(ys), QPoly(zs)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(st.lists(st.integers(-50, 50), max_size=8), st.integers(-5, 5))
    @settings(max_examples=80, deadline=None)
    def test_evaluate_is_homomorphism(self, xs, v):
        a = QPoly(xs)
        b = QPoly([3, -1])
        assert (a * b).evaluate(v) == a.evaluate(v) * b.evaluate(v)
        assert (a + b).evaluate(v) == a.evaluate(v) + b.evaluate(v)

    @given(st.integers(0, 300).flatmap(lambda n: st.lists(
               st.integers(-10 ** 6, 10 ** 6), min_size=n, max_size=n)),
           st.sampled_from([0, 1, -1, 2, -2, 2 ** 290]))
    @settings(max_examples=120, deadline=None)
    def test_evaluate_matches_plain_horner(self, xs, v):
        # lengths drawn evenly up to 300 take up to nine levels of
        # pairing, odd lengths included
        acc = 0
        for c in reversed(xs):
            acc = acc * v + c
        assert QPoly(xs).evaluate(v) == acc


class TestQInteger:
    def test_known_values(self):
        assert q_integer(0) == QPoly.zero()
        assert q_integer(1) == QPoly.one()
        assert q_integer(4).coeffs == (1, 1, 1, 1)

    def test_degree_and_q1(self):
        for n in range(1, 15):
            assert q_integer(n).degree == n - 1
            assert q_integer(n).evaluate(1) == n

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q_integer(-1)

    @given(st.lists(st.integers(-50, 50), max_size=10), st.integers(1, 30))
    @example([3, -1, 2], 1)
    @example([1, 2], 25)
    @settings(max_examples=120, deadline=None)
    def test_window_product_and_division_round_trip(self, xs, i):
        # i = 1 is the identity; an i longer than the polynomial leaves
        # residue classes that hold one coefficient or none
        c = QPoly(xs)
        product = _times_q_integer(c, i)
        assert product == c * q_integer(i)
        assert _divide_by_q_integer(product, i) == c

    def test_division_by_non_factor_is_inexact(self):
        with pytest.raises(InexactDivision):
            _divide_by_q_integer(QPoly([1, 0, 1]), 2)
        with pytest.raises(InexactDivision):
            _divide_by_q_integer(QPoly.one(), 3)
        assert _divide_by_q_integer(QPoly.zero(), 3) == QPoly.zero()

    def test_division_by_q_integer_below_one_refused(self):
        for i in (0, -1):
            with pytest.raises(ValueError):
                _divide_by_q_integer(QPoly([1, 2]), i)


class TestQFactorial:
    def test_known_values(self):
        assert q_factorial(0) == QPoly.one()
        assert q_factorial(2).coeffs == (1, 1)
        assert q_factorial(3).coeffs == (1, 2, 2, 1)

    def test_q1_is_factorial(self):
        for n in range(8):
            assert q_factorial(n).evaluate(1) == math.factorial(n)


class TestQBinomial:
    def test_boundaries(self):
        for n in range(6):
            assert q_binomial_recurrence(n, 0) == QPoly.one()
            assert q_binomial_recurrence(n, n) == QPoly.one()
        assert q_binomial_recurrence(5, -1) == QPoly.zero()
        assert q_binomial_recurrence(5, 6) == QPoly.zero()

    def test_known_values(self):
        assert q_binomial_recurrence(2, 1).coeffs == (1, 1)
        assert q_binomial_recurrence(4, 2).coeffs == (1, 1, 2, 1, 1)
        assert q_binomial_quotient(3, 1).coeffs == (1, 1, 1)
        assert q_binomial_quotient(4, 2).coeffs == (1, 1, 2, 1, 1)
        for n in range(6):
            assert q_binomial_quotient(n, n) == QPoly.one()

    def test_quotient_runs_over_the_smaller_of_k_and_n_minus_k(self, monkeypatch):
        degrees = []
        times = qcalc._times_q_integer

        def spy(p, j):
            degrees.append(p.degree)
            return times(p, j)

        monkeypatch.setattr(qcalc, "_times_q_integer", spy)
        assert q_binomial_quotient(120, 119) == q_integer(120)
        assert len(degrees) == 1
        degrees.clear()
        assert q_binomial_quotient(120, 60) == q_binomial_recurrence(120, 60)
        # each input is [60 + i choose i] for some i < 60
        assert len(degrees) == 60
        assert max(degrees) <= 60 * 60

    def test_quotient_pre(self):
        with pytest.raises(ValueError):
            q_binomial_quotient(3, 4)
        with pytest.raises(ValueError):
            q_binomial_quotient(3, -1)

    def test_two_routes_agree(self):
        for n in range(21):
            for k in range(n + 1):
                assert q_binomial_recurrence(n, k) == q_binomial_quotient(n, k)

    def test_specializations(self):
        for n in range(21):
            for k in range(n + 1):
                p = q_binomial_recurrence(n, k)
                assert p.evaluate(1) == math.comb(n, k)
                assert p.evaluate(0) == 1

    def test_symmetry_degree_nonnegativity(self):
        for n in range(16):
            for k in range(n + 1):
                p = q_binomial_recurrence(n, k)
                assert p == q_binomial_recurrence(n, n - k)
                assert p.degree == k * (n - k)
                assert all(c >= 0 for c in p.coeffs)

    def test_evaluate_function(self):
        assert q_binomial_recurrence(3, 1).evaluate(2) == 7
        assert q_binomial_recurrence(4, 2).evaluate(1) == 6

    def test_big_evaluations_stay_exact(self):
        # far beyond 64-bit territory
        v = q_binomial_recurrence(20, 10).evaluate(5)
        assert v > 2 ** 64
        assert v == count_subspaces_product_formula(5, 20, 10)


def count_subspaces_product_formula(q, n, k):
    # independent route: product of (q^(n-i) - 1)/(q^(k-i) - 1)
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


class TestQSeriesCap:
    @pytest.mark.parametrize("call", [
        lambda n: q_factorial(n),
        lambda n: q_binomial_recurrence(n, 3),
        lambda n: q_binomial_quotient(n, 3),
        lambda n: expand_binomial(n),
    ])
    def test_over_cap_raises_naming_n_and_cap(self, call):
        n = MAX_Q_SERIES_N + 1
        with pytest.raises(BudgetExceeded) as err:
            call(n)
        assert f"n = {n}" in str(err.value)
        assert f"cap of n <= {MAX_Q_SERIES_N}" in str(err.value)

    def test_routes_agree_at_cap(self):
        # k = 59, 60, 61 hold [120 choose k]'s largest coefficients, 108
        # bits, which the packed recurrence keeps in 120-bit slots
        n = MAX_Q_SERIES_N
        for k in (1, 2, 7, n // 2 - 1, n // 2, n // 2 + 1, n - 2, n - 1):
            assert q_binomial_recurrence(n, k) == q_binomial_quotient(n, k), k
        assert q_factorial(n).evaluate(1) == math.factorial(n)

    def test_at_cap_under_a_low_recursion_limit(self):
        # every q-series function, the (x + y)^n expansion included, is a
        # loop, so the cap does not depend on how deep Python lets a call
        # stack grow
        n = MAX_Q_SERIES_N
        script = (
            "import sys\n"
            "from qproj.qcalc import q_binomial_quotient, q_binomial_recurrence, q_factorial\n"
            "from qproj.qword import expand_binomial, nc_coefficient\n"
            "sys.setrecursionlimit(80)\n"
            f"q_factorial({n})\n"
            f"gauss = q_binomial_recurrence({n}, {n // 2})\n"
            f"assert gauss == q_binomial_quotient({n}, {n // 2})\n"
            f"assert nc_coefficient(expand_binomial({n}), {n // 2}, {n - n // 2}) == gauss\n"
            "print('ok')\n")
        src = os.path.dirname(os.path.dirname(qproj.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "ok\n"

    def test_trivial_cases_answered_over_cap(self):
        assert q_factorial(0) == QPoly.one()
        for k in (0, 1000):
            assert q_binomial_recurrence(1000, k) == QPoly.one()
            assert q_binomial_quotient(1000, k) == QPoly.one()
        assert q_binomial_recurrence(1000, 1001) == QPoly.zero()
        with pytest.raises(ValueError):
            q_binomial_quotient(1000, 1001)
