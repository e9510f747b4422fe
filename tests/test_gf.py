import itertools
import math

import pytest

from qproj import (BudgetExceeded, FiniteField, NotAPrimePower,
                   factor_prime_power, make_field)
from qproj.gf import MAX_FACTORED_Q

SMALL_Q = [2, 3, 4, 5, 7, 8, 9]


def test_factor_prime_power():
    assert factor_prime_power(5) == (5, 1)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    for bad in (0, 1, 6, 10, 12, 15):
        with pytest.raises(NotAPrimePower):
            factor_prime_power(bad)


def _factor_or_message(n):
    try:
        return factor_prime_power(n)
    except NotAPrimePower as err:
        return str(err)


def test_factor_prime_power_agrees_with_a_sieve_below_a_million():
    n_max = 10 ** 6
    smallest = list(range(n_max))  # smallest prime factor, by a sieve
    for p in range(2, 1000):
        if smallest[p] == p:
            for m in range(p * p, n_max, p):
                if smallest[m] == m:
                    smallest[m] = p
    expected = [None, None]
    for n in range(2, n_max):
        p = smallest[n]
        below = expected[n // p] if n > p else (p, 0)
        if isinstance(below, tuple) and below[0] == p:
            expected.append((p, below[1] + 1))
        else:
            expected.append(f"{n} has more than one prime factor")
    mismatch = next((n for n in range(2, n_max)
                     if _factor_or_message(n) != expected[n]), None)
    assert mismatch is None, (mismatch, expected[mismatch])


@pytest.mark.parametrize("n, factors", [
    # strong pseudoprimes to the first 1, 2, ..., 11 prime bases (psi_1 to
    # psi_11); the last two have no prime factor below 2^16
    (2047, (23, 89)), (1373653, (829, 1657)), (25326001, (2251, 11251)),
    (3215031751, (151, 751, 28351)), (2152302898747, (6763, 10627, 29947)),
    (3474749660383, (1303, 16927, 157543)),
    (341550071728321, (10670053, 32010157)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (561, (3, 11, 17)),  # a Carmichael number
    ((65537 * 65539) ** 2, (65537, 65537, 65539, 65539)),
    (999999937 * 1000000007, (999999937, 1000000007)),
])
def test_strong_pseudoprimes_have_more_than_one_prime_factor(n, factors):
    assert math.prod(factors) == n
    with pytest.raises(NotAPrimePower, match="more than one prime factor"):
        factor_prime_power(n)


@pytest.mark.parametrize("q, p, d", [
    (1000000000000000003, 1000000000000000003, 1), (2 ** 61 - 1, 2 ** 61 - 1, 1),
    (65537 ** 4, 65537, 4), (1000000007 ** 2, 1000000007, 2), (2 ** 400, 2, 400),
    (3 ** 100, 3, 100), (65521 ** 2, 65521, 2), (4294967311, 4294967311, 1),
])
def test_prime_powers_with_large_factors(q, p, d):
    assert factor_prime_power(q) == (p, d)


def test_no_guess_past_the_exact_bound():
    # psi_12 is a strong pseudoprime to all twelve bases, 2^89 - 1 and
    # 2^127 - 1 are primes; none has a prime factor below 2^16
    for q in (MAX_FACTORED_Q, 2 ** 89 - 1, 2 ** 127 - 1):
        with pytest.raises(BudgetExceeded, match=str(MAX_FACTORED_Q)):
            factor_prime_power(q)
    # a small factor still decides at any size
    with pytest.raises(NotAPrimePower, match="more than one prime factor"):
        factor_prime_power(3 * (2 ** 89 - 1))


def test_make_field_prime():
    f = make_field(5)
    assert (f.p, f.degree, f.q) == (5, 1, 5)
    assert f.modulus == (0, 1)


def test_make_field_f4_modulus():
    # exhaustive search over monic quadratics over F_2 admits only x^2+x+1
    f = make_field(4)
    assert f.modulus == (1, 1, 1)


@pytest.mark.parametrize("q, modulus", [
    (9, (1, 0, 1)),         # x^2 + 1
    (8, (1, 0, 1, 1)),      # x^3 + x^2 + 1 beats x^3 + x + 1
    (16, (1, 0, 0, 1, 1)),  # likewise x^4 + x^3 + 1
    (25, (1, 1, 1)),
    (27, (1, 0, 2, 1)),
    (32, (1, 0, 0, 1, 0, 1)),
])
def test_known_moduli_smallest_first(q, modulus):
    assert make_field(q, max_q=32).modulus == modulus


def test_field_cap():
    with pytest.raises(BudgetExceeded):
        make_field(17)
    make_field(17, max_q=32)  # raised cap admits it


def test_not_prime_power_beats_cap():
    with pytest.raises(NotAPrimePower):
        make_field(100)


@pytest.mark.parametrize("p, message", [
    (0, "must be >= 2"), (1, "must be >= 2"),
    (4, "characteristic 4 is not prime"), (9, "characteristic 9 is not prime"),
    (6, "more than one prime factor"), (15, "more than one prime factor"),
])
def test_characteristic_must_be_prime(p, message):
    with pytest.raises(NotAPrimePower, match=message):
        FiniteField(p, 1)


def test_characteristic_two():
    assert make_field(2).add_table[1][1] == 0


def test_inverse_in_f5():
    assert make_field(5).inv_table[2] == 3


def test_generator_of_f4():
    f = make_field(4)
    # x^2 = x + 1 mod x^2+x+1, and x has code 2
    assert f.mul_table[2][2] == f.add_table[2][1]


def test_elements_order():
    assert [make_field(2).code_to_coeffs(c) for c in range(2)] == [(0,), (1,)]
    assert [make_field(3).code_to_coeffs(c) for c in range(3)] == [(0,), (1,), (2,)]
    f4 = make_field(4)
    assert [f4.code_to_coeffs(c) for c in range(4)] == [(0, 0), (1, 0), (0, 1), (1, 1)]


@pytest.mark.parametrize("q", SMALL_Q)
def test_elements_distinct_and_complete(q):
    f = make_field(q)
    coeffs = [f.code_to_coeffs(c) for c in range(q)]
    assert sorted(coeffs) == sorted(itertools.product(range(f.p), repeat=f.degree))
    assert [f.coeffs_to_code(cs) for cs in coeffs] == list(range(q))


@pytest.mark.parametrize("coeffs", [(1, 1, 1), (3, -1), (), (1,), (2, 0), (0, -1)])
def test_coeffs_to_code_rejects_malformed(coeffs):
    # each was read silently before: (1, 1, 1) and (3, -1) as 3, () as 0
    with pytest.raises(ValueError, match=r"expected 2 coefficients in \[0, 2\)"):
        make_field(4).coeffs_to_code(coeffs)


@pytest.mark.parametrize("q", SMALL_Q)
def test_little_fermat(q):
    mul = make_field(q).mul_table
    for a in range(1, q):
        power = 1
        for _ in range(q - 1):
            power = mul[power][a]
        assert power == 1


@pytest.mark.parametrize("q", SMALL_Q + [16, 25, 27])
def test_field_axioms_exhaustive(q):
    f = make_field(q, max_q=32)
    add, mul, neg, inv = f.add_table, f.mul_table, f.neg_table, f.inv_table
    es = range(q)
    # closed: a code outside [0, q) would index the tables from the end
    assert len(add) == len(mul) == q
    assert all(len(row) == q and set(row) <= set(es) for row in add + mul + [neg, inv])
    for a, b in itertools.product(es, repeat=2):
        assert add[a][b] == add[b][a]
        assert mul[a][b] == mul[b][a]
    for a, b, c in itertools.product(es, repeat=3):
        assert add[add[a][b]][c] == add[a][add[b][c]]
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
    for a in es:
        assert add[a][0] == a
        assert mul[a][1] == a
        assert add[a][neg[a]] == 0
        if a:
            assert mul[inv[a]][a] == 1


def test_field_identity_cached():
    assert make_field(4) is make_field(4)
