from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hombench import (DimensionMismatch, LinearMap, SingularMap, Tensor2, Tensor3,
                      apply_bilinear, basis_vector, map_direct_sum, tensor2_to_map,
                      tensor_product_map)
from hombench.foundation import frac, row_reduce
from hombench.representations import action_table

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


def _dense_table(dims):
    """A dense table of varied rationals (zero only where 1 + i + 2j - 3k is)."""
    d1, d2, d3 = dims
    return Tensor3.from_entries(dims, {(i, j, k): Fraction(1 + i + 2 * j - 3 * k, 1 + (i + j + k) % 3)
                                       for i in range(d1) for j in range(d2) for k in range(d3)
                                       if 1 + i + 2 * j - 3 * k != 0})


def _sum_of_scaled(maps, coeffs, rows, cols):
    total = LinearMap.zero(rows, cols)
    for c, m in zip(coeffs, maps):
        total = total + m.scale(c)
    return total


def test_multiplication_operators_of_a_rectangular_table():
    t = _dense_table((2, 3, 4))
    x = (Fraction(2, 3), -1)
    y = (Fraction(-1, 2), 0, 3)
    left, right = t.left_maps(), t.right_maps()
    assert [(m.rows, m.cols) for m in left] == [(4, 3)] * 2
    assert [(m.rows, m.cols) for m in right] == [(4, 2)] * 3
    for i in range(2):
        for j in range(3):
            assert left[i].column(j) == t.slice12(i, j) == right[j].column(i)
    assert _sum_of_scaled(left, x, 4, 3).apply(y) == apply_bilinear(t, x, y)
    assert _sum_of_scaled(right, y, 4, 2).apply(x) == apply_bilinear(t, x, y)


def test_action_table_of_the_multiplication_operators_is_the_table():
    t = _dense_table((3, 3, 3))
    x = (Fraction(2, 3), 0, -1)
    y = (Fraction(-1, 2), 5, Fraction(1, 4))
    assert action_table(t.left_maps(), 3) == t
    swapped = action_table(t.right_maps(), 3)
    assert all(swapped.slice12(j, i) == t.slice12(i, j) for i in range(3) for j in range(3))
    assert action_table(t.left_maps(), 3).left_at(x).apply(y) == apply_bilinear(t, x, y)
    assert swapped.left_at(y).apply(x) == apply_bilinear(t, x, y)


@pytest.mark.parametrize("dims", [(2, 3, 4), (3, 3, 3), (0, 2, 2), (2, 0, 3), (2, 3, 0), (0, 0, 0)])
def test_from_slices_equals_from_entries(dims):
    t = _dense_table(dims)
    rebuilt = Tensor3.from_slices(*dims, t.slice12)
    assert rebuilt == t
    assert rebuilt.dims == dims
    assert len(t.left_maps()) == dims[0] and len(t.right_maps()) == dims[1]


def test_multiplication_by_a_vector_applies_the_table():
    t = _dense_table((2, 3, 4))
    x = (Fraction(2, 3), -1)
    y = (Fraction(-1, 2), 0, 3)
    left, right = t.left_at(x), t.right_at(y)
    assert (left.rows, left.cols, right.rows, right.cols) == (4, 3, 4, 2)
    assert left.apply(y) == apply_bilinear(t, x, y) == right.apply(x)
    assert left == _sum_of_scaled(t.left_maps(), x, 4, 3)
    assert right == _sum_of_scaled(t.right_maps(), y, 4, 2)
    assert t.left_at((0, 0)) == LinearMap.zero(4, 3)
    with pytest.raises(DimensionMismatch):
        t.left_at(y)
    with pytest.raises(DimensionMismatch):
        t.right_at(x)


@pytest.mark.parametrize("dims", [(0, 2, 2), (2, 0, 3), (2, 3, 0)])
def test_multiplication_by_a_vector_of_an_empty_table(dims):
    t = _dense_table(dims)
    d1, d2, d3 = dims
    assert t.left_at((1,) * d1) == LinearMap.zero(d3, d2)
    assert t.right_at((1,) * d2) == LinearMap.zero(d3, d1)


def test_apply_skips_zero_coordinates_exactly():
    m = LinearMap(((Fraction(1, 2), 3, -1), (0, Fraction(2, 3), 5)))
    assert m.apply((0, 0, 0)) == (0, 0)
    assert m.apply((2, 0, Fraction(1, 2))) == (Fraction(1, 2), Fraction(5, 2))
    assert m.apply((0, 3, 0)) == (9, 2)


def test_ragged_table_is_rejected():
    with pytest.raises(DimensionMismatch):
        Tensor3.from_slices(1, 2, 2, lambda i, j: () if j == 0 else (1, 2))
    with pytest.raises(DimensionMismatch):
        Tensor3.from_slices(1, 2, 2, lambda i, j: (1, 2) if j == 0 else ())
    with pytest.raises(DimensionMismatch):
        Tensor3(((), ((1,),)), dims=(2, 0, 1))
    with pytest.raises(DimensionMismatch):
        Tensor3((((),),))


def test_action_table_rejects_maps_that_are_not_square():
    maps = _dense_table((2, 3, 4)).left_maps()
    for size in (3, 4):
        with pytest.raises(DimensionMismatch):
            action_table(maps, size)


def test_integral_scalars_are_plain_ints():
    for value in (3, "3", Fraction(6, 2), True, "-4", Fraction(0)):
        assert type(frac(value)) is int
    assert frac(True) == 1 and frac(Fraction(6, 2)) == 3
    assert type(frac("1/2")) is Fraction and frac("1/2") == Fraction(1, 2)
    with pytest.raises(TypeError):
        frac(0.5)
    assert all(type(c) is int for row in LinearMap.diagonal([1, "2", Fraction(4, 2)]).entries for c in row)


def test_row_reduce_of_an_integer_matrix_gives_exact_halves():
    work = [[2, 1, 1, 0], [0, 2, 0, 1]]
    assert row_reduce(work, 2) == [0, 1]
    assert work == [[1, 0, Fraction(1, 2), Fraction(-1, 4)], [0, 1, 0, Fraction(1, 2)]]
    assert LinearMap.diagonal([2, 4]).inverse() == LinearMap.diagonal([Fraction(1, 2), Fraction(1, 4)])


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
