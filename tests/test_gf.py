import itertools

import pytest

from qproj import (BudgetExceeded, DivisionByZero, FieldMismatch, FiniteField,
                   NotAPrimePower, factor_prime_power, make_field)

SMALL_Q = [2, 3, 4, 5, 7, 8, 9]


def test_factor_prime_power():
    assert factor_prime_power(5) == (5, 1)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    for bad in (0, 1, 6, 10, 12, 15):
        with pytest.raises(NotAPrimePower):
            factor_prime_power(bad)


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
    f = make_field(2)
    assert (f.one + f.one) == f.zero


def test_inverse_in_f5():
    f = make_field(5)
    assert f.element(2).inverse() == f.element(3)


def test_generator_of_f4():
    f = make_field(4)
    g = f.element(2)
    assert g * g == g + f.one  # x^2 = x + 1 mod x^2+x+1


def test_elements_order():
    assert [e.code for e in make_field(2).elements()] == [0, 1]
    assert [e.code for e in make_field(3).elements()] == [0, 1, 2]
    f4 = make_field(4)
    assert [e.coeffs for e in f4.elements()] == [(0, 0), (1, 0), (0, 1), (1, 1)]


@pytest.mark.parametrize("q", SMALL_Q)
def test_elements_distinct_and_complete(q):
    f = make_field(q)
    es = f.elements()
    assert len(es) == q
    assert len(set(es)) == q


@pytest.mark.parametrize("q", SMALL_Q)
def test_little_fermat(q):
    f = make_field(q)
    for a in f.elements()[1:]:
        assert a ** (q - 1) == f.one


@pytest.mark.parametrize("q", SMALL_Q + [16, 25, 27])
def test_field_axioms_exhaustive(q):
    f = make_field(q, max_q=32)
    es = f.elements()
    for a, b in itertools.product(es, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in itertools.product(es, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a in es:
        assert a + f.zero == a
        assert a * f.one == a
        assert a + (-a) == f.zero
        if a:
            assert a.inverse() * a == f.one
            assert a / a == f.one


def test_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        make_field(7).zero.inverse()


def test_cross_field_operations_rejected():
    a = make_field(2).one
    b = make_field(3).one
    with pytest.raises(FieldMismatch):
        a + b
    with pytest.raises(FieldMismatch):
        a * b


def test_field_identity_cached():
    assert make_field(4) is make_field(4)


def test_subtraction_and_pow():
    f = make_field(9)
    g = f.element(3)
    assert g - g == f.zero
    assert g ** 0 == f.one
    assert g ** -1 == g.inverse()
