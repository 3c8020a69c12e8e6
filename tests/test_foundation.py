from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hombench import (DimensionMismatch, LinearMap, SingularMap, Tensor2, Tensor3,
                      apply_bilinear, basis_vector, map_direct_sum, tensor2_to_map,
                      tensor_product_map)

scalars = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def square(n, draw=scalars):
    return st.lists(st.lists(draw, min_size=n, max_size=n), min_size=n, max_size=n).map(
        lambda rows: LinearMap(tuple(tuple(row) for row in rows)))


def test_inverse_diagonal():
    m = LinearMap.diagonal([1, 2])
    assert m.inverse() == LinearMap.diagonal([1, Fraction(1, 2)])


def test_inverse_unitriangular():
    m = LinearMap(((1, 1), (0, 1)))
    assert m.inverse() == LinearMap(((1, -1), (0, 1)))


def test_inverse_singular():
    with pytest.raises(SingularMap):
        LinearMap(((1, 1), (1, 1))).inverse()


def test_inverse_requires_square():
    with pytest.raises(DimensionMismatch):
        LinearMap(((1, 0),)).inverse()


def test_negative_power_inverts():
    m = LinearMap.diagonal([2, 4])
    assert m.power(-2) == LinearMap.diagonal([Fraction(1, 4), Fraction(1, 16)])
    assert m.power(0) == LinearMap.identity(2)


def test_kronecker_diagonal():
    k = tensor_product_map(LinearMap.diagonal([1, 2]), LinearMap.diagonal([1, 3]))
    assert k == LinearMap.diagonal([1, 3, 2, 6])


def test_kronecker_left_major_ordering():
    a = LinearMap(((0, 1), (1, 0)))
    b = LinearMap.identity(2)
    k = tensor_product_map(a, b)
    # e1 (x) e2 is slot 0*2+1 = 1; a swaps the left factor, so the image is e2 (x) e2 = slot 3
    assert k.apply(basis_vector(4, 1)) == basis_vector(4, 3)


def test_dual_map_is_transpose():
    m = LinearMap(((1, 2), (3, 4)))
    assert m.transpose() == LinearMap(((1, 3), (2, 4)))


def test_tensor2_sharp_pairs_first_slot():
    r = Tensor2.from_entries(2, 2, {(0, 1): 1})
    # the induced map pairs a covector against the first leg: e1* goes to e2
    assert tensor2_to_map(r).apply((1, 0)) == (0, 1)
    assert tensor2_to_map(r).apply((0, 1)) == (0, 0)


def test_apply_bilinear_structure_tensor():
    product = Tensor3.from_entries((2, 2, 2), {(0, 0, 1): 1})
    assert apply_bilinear(product, (1, 0), (1, 0)) == (0, 1)
    assert apply_bilinear(product, (0, 1), (1, 0)) == (0, 0)


def test_flip_tensor2():
    r = Tensor2.from_entries(2, 2, {(0, 1): 2})
    assert r.flip() == Tensor2.from_entries(2, 2, {(1, 0): 2})
    assert not r.is_symmetric()
    assert Tensor2.from_entries(2, 2, {(0, 1): 1, (1, 0): 1}).is_symmetric()
    assert Tensor2.from_entries(2, 2, {(0, 1): 1, (1, 0): -1}).is_skew()


def test_map_direct_sum_blocks():
    s = map_direct_sum(LinearMap.diagonal([1, 2]), LinearMap(((0, 1), (1, 0))))
    assert s.apply((1, 0, 0, 0)) == (1, 0, 0, 0)
    assert s.apply((0, 0, 1, 0)) == (0, 0, 0, 1)


@given(square(2))
def test_double_inverse(m):
    if m.is_invertible():
        assert m.inverse().inverse() == m
        assert m @ m.inverse() == LinearMap.identity(2)


@given(square(2), square(2))
def test_dual_of_kronecker(a, b):
    assert tensor_product_map(a, b).transpose() == tensor_product_map(a.transpose(), b.transpose())


@given(square(2), square(2), square(2), square(2))
def test_kronecker_multiplicative(a, b, c, d):
    assert tensor_product_map(a, b) @ tensor_product_map(c, d) == tensor_product_map(a @ c, b @ d)


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=4),
       st.lists(scalars, min_size=2, max_size=2),
       st.lists(scalars, min_size=2, max_size=2), scalars)
def test_bilinearity_is_exact(positions, x, y, c):
    items = {}
    for pos in positions:
        items[pos] = items.get(pos, 0) + 1
    t = Tensor2.from_entries(2, 2, items)
    scaled = tuple(c * v for v in x)
    lhs = t.pair(scaled, y)
    assert lhs == c * t.pair(tuple(x), tuple(y))


@given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), scalars, max_size=6))
def test_flip_involution(items):
    t = Tensor2.from_entries(3, 3, items)
    assert t.flip().flip() == t
