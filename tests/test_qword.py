import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qproj import (NoncommPoly, QPoly, expand_binomial, nc_coefficient,
                   nc_multiply, q_binomial_recurrence)
from qproj.qword import _pack, _unpack


def test_yx_rewrites_to_q_xy():
    p = nc_multiply(NoncommPoly.y(), NoncommPoly.x())
    assert nc_coefficient(p, 1, 1).coeffs == (0, 1)  # q * xy
    assert len(p) == 1


def test_xy_stays_put():
    p = nc_multiply(NoncommPoly.x(), NoncommPoly.y())
    assert nc_coefficient(p, 1, 1) == QPoly.one()


def test_xy_squared():
    xy = nc_multiply(NoncommPoly.x(), NoncommPoly.y())
    p = nc_multiply(xy, xy)
    # one swap of the inner y past the inner x
    assert nc_coefficient(p, 2, 2).coeffs == (0, 1)
    assert len(p) == 1


def test_expand_empty_product():
    p = expand_binomial(0)
    assert len(p) == 1
    assert nc_coefficient(p, 0, 0) == QPoly.one()


def test_expand_two():
    p = expand_binomial(2)
    assert nc_coefficient(p, 2, 0) == QPoly.one()
    assert nc_coefficient(p, 1, 1).coeffs == (1, 1)
    assert nc_coefficient(p, 0, 2) == QPoly.one()
    assert len(p) == 3


def test_absent_term_is_zero():
    p = expand_binomial(5)
    assert nc_coefficient(p, 6, 0) == QPoly.zero()


def test_expansion_coefficients_are_gaussian_binomials():
    for n in range(11):
        p = expand_binomial(n)
        assert len(p) == n + 1
        for k in range(n + 1):
            assert nc_coefficient(p, k, n - k) == q_binomial_recurrence(n, k)


def test_term_keys_and_order():
    p = expand_binomial(4)
    keys = [key for key, _ in p.terms()]
    assert keys == [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]


def test_stepwise_recurrence_structure():
    xy = NoncommPoly.x() + NoncommPoly.y()
    for n in range(1, 9):
        assert expand_binomial(n) == nc_multiply(expand_binomial(n - 1), xy)


def test_q1_specialization_is_commutative_binomial():
    for n in range(9):
        p = expand_binomial(n)
        for (a, b), c in p.terms():
            assert a + b == n
            assert c.evaluate(1) == math.comb(n, a)


def test_left_fold_matches_repeated_squaring():
    # the fold multiplies by x + y on the right; squaring multiplies
    # (x + y)^(2^i) by itself, so the two bracket the product differently
    squares = [NoncommPoly.x() + NoncommPoly.y()]
    while len(squares) < 6:
        squares.append(nc_multiply(squares[-1], squares[-1]))
    for n in range(41):
        result = NoncommPoly.one()
        for i, square in enumerate(squares):
            if n >> i & 1:
                result = nc_multiply(result, square)
        assert result == expand_binomial(n), n


def test_q1_specialization_at_cap():
    n = 120
    p = expand_binomial(n)
    assert len(p) == n + 1
    for (a, b), c in p.terms():
        assert a + b == n
        assert c.evaluate(1) == math.comb(n, a)


def _reference_product(p, r):
    """(x^a y^b)(x^c y^d) = q^(b*c) x^(a+c) y^(b+d), summed over QPolys."""
    out = {}
    for (a, b), ca in p.terms():
        for (c, d), cb in r.terms():
            key = (a + c, b + d)
            out[key] = out.get(key, QPoly.zero()) + (ca * cb).shift(b * c)
    return {key: c for key, c in out.items() if c}


def _small_polys():
    coeff = st.lists(st.integers(-3, 3), max_size=3).map(QPoly)
    key = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.dictionaries(key, coeff, max_size=3).map(NoncommPoly)


def _wide_polys():
    # signed coefficients across the 64- and 128-bit slot widths
    coeff = st.lists(st.integers(-2**100, 2**100), max_size=4).map(QPoly)
    key = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.dictionaries(key, coeff, max_size=3).map(NoncommPoly)


@given(_small_polys(), _small_polys(), _small_polys())
@settings(max_examples=60, deadline=None)
def test_multiplication_associative(a, b, c):
    assert nc_multiply(nc_multiply(a, b), c) == nc_multiply(a, nc_multiply(b, c))


@given(_small_polys(), _small_polys(), _small_polys())
@settings(max_examples=60, deadline=None)
def test_multiplication_distributes(a, b, c):
    assert nc_multiply(a, b + c) == nc_multiply(a, b) + nc_multiply(a, c)


@given(_wide_polys(), _wide_polys(), _wide_polys())
@settings(max_examples=60, deadline=None)
def test_multiplication_associative_wide(a, b, c):
    assert nc_multiply(nc_multiply(a, b), c) == nc_multiply(a, nc_multiply(b, c))


@given(_wide_polys(), _wide_polys(), _wide_polys())
@settings(max_examples=60, deadline=None)
def test_multiplication_distributes_wide(a, b, c):
    assert nc_multiply(a, b + c) == nc_multiply(a, b) + nc_multiply(a, c)


@given(_wide_polys(), _wide_polys())
@settings(max_examples=100, deadline=None)
def test_product_matches_qpoly_reference(a, b):
    assert dict(nc_multiply(a, b).terms()) == _reference_product(a, b)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("edge", (2**63 - 1, 2**63, 2**64))
def test_product_at_slot_edges(edge, sign):
    # the largest coefficient a 64-bit slot holds is 2^63 - 1; 2^63 and
    # 2^64 need the next width
    p = NoncommPoly({(0, 1): QPoly([sign * edge])})
    r = NoncommPoly({(1, 0): QPoly.one()})
    product = nc_multiply(p, r)
    assert product._nbytes == (8 if edge < 2**63 else 16)
    assert nc_coefficient(product, 1, 1).coeffs == (0, sign * edge)
    # the same coefficient between slots of the opposite sign, which borrow
    # from the slot above: (1 - q)(edge + q) = edge + (1 - edge) q - q^2
    p = NoncommPoly({(0, 1): QPoly([1, -1]), (2, 0): QPoly([-1])})
    r = NoncommPoly({(1, 0): QPoly([sign * edge, 1])})
    product = nc_multiply(p, r)
    assert nc_coefficient(product, 1, 1).coeffs == (
        0, sign * edge, 1 - sign * edge, -1)
    assert nc_coefficient(product, 3, 0).coeffs == (-sign * edge, -1)
    assert dict(product.terms()) == _reference_product(p, r)


def test_zero_coefficients_never_stored():
    p = NoncommPoly({(1, 1): QPoly.one()})
    minus = NoncommPoly({(1, 1): QPoly([-1])})
    assert not (p + minus)
    assert len(p + minus) == 0


def _unpack_reference(value, nbytes):
    """Balanced slots of ``value``, read one ``int.from_bytes`` per slot."""
    bits, half = 8 * nbytes, 1 << (8 * nbytes - 1)
    slots = abs(value).bit_length() // bits + 1
    offset = sum(half << (bits * i) for i in range(slots))
    raw = (value + offset).to_bytes(slots * nbytes, "little")
    return QPoly([int.from_bytes(raw[i:i + nbytes], "little") - half
                  for i in range(0, len(raw), nbytes)])


@st.composite
def _slot_lists(draw):
    nbytes = draw(st.sampled_from((8, 16, 32)))
    top = (1 << (8 * nbytes - 1)) - 1
    slot = st.one_of(st.sampled_from((0, top, -top)), st.integers(-top, top))
    return nbytes, draw(st.lists(slot, max_size=8))


@given(_slot_lists())
@example((8, []))
@example((16, [2**127 - 1, 0, -(2**127 - 1)]))
@example((32, [0, -(2**255 - 1)]))
@settings(max_examples=200, deadline=None)
def test_unpack_inverts_pack(case):
    # the widest slot values, zero slots and the empty polynomial, at slot
    # widths that read one, two and four machine words
    nbytes, coeffs = case
    value = _pack(tuple(coeffs), nbytes)
    assert _unpack(value, nbytes) == QPoly(coeffs)
    assert _unpack(value, nbytes) == _unpack_reference(value, nbytes)


@pytest.mark.parametrize("n", (62, 63, 64))
def test_expansion_across_the_slot_boundary(n):
    # (x + y)^n has coefficient bound 2^n, so slots widen from 8 to 16
    # bytes at n = 63
    p = expand_binomial(n)
    assert p._nbytes == (8 if n == 62 else 16)
    for k in range(n + 1):
        assert nc_coefficient(p, k, n - k) == q_binomial_recurrence(n, k), k
