import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hombench import (DimensionMismatch, HomPreLieAlgebra, LinearMap, SingularMap, Tensor2,
                      Tensor3, apply_bilinear, basis_vector, document_for, map_direct_sum,
                      serialize_document, tensor2_to_map, tensor_product_map)
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


# Every contraction runs on an integer form (common denominator times the
# entries) and divides each output entry once. The references below sum the
# same products in plain Fraction arithmetic.

mixed_scalars = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.integers(-4, 4).map(lambda k: Fraction(2 * k, 2)),      # integral Fractions
)
sizes = st.integers(0, 3)


def _vectors(n):
    return st.one_of(st.just((0,) * n), st.lists(mixed_scalars, min_size=n, max_size=n).map(tuple))


def _grids(rows, cols):
    return st.lists(st.lists(mixed_scalars, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def _maps(draw, rows=None, cols=None):
    rows = draw(sizes) if rows is None else rows
    cols = draw(sizes) if cols is None else cols
    return LinearMap(draw(_grids(rows, cols)), rows=rows, cols=cols)


@st.composite
def _tables(draw):
    d1, d2, d3 = draw(sizes), draw(sizes), draw(sizes)
    vecs = draw(st.lists(_grids(d2, d3), min_size=d1, max_size=d1))
    return Tensor3.from_slices(d1, d2, d3, lambda i, j: vecs[i][j])


def _total(products):
    return sum((Fraction(a) * Fraction(b) for a, b in products), Fraction(0))


def _assert_exact(got, want):
    """Equal values, with every integral entry a plain int."""
    assert len(got) == len(want)
    for c, w in zip(got, want):
        assert c == w
        assert type(c) is (int if w.denominator == 1 else Fraction)


@given(_maps(), st.data())
def test_apply_is_exact(m, data):
    u = data.draw(_vectors(m.cols))
    _assert_exact(m.apply(u), [_total(zip(row, u)) for row in m.entries])


@given(st.data())
def test_matmul_is_exact_and_keeps_an_exact_integer_form(data):
    rows, inner, cols = data.draw(sizes), data.draw(sizes), data.draw(sizes)
    a = data.draw(_maps(rows, inner))
    b = data.draw(_maps(inner, cols))
    product = a @ b
    assert (product.rows, product.cols) == (rows, cols)
    for i in range(rows):
        _assert_exact(product.entries[i], [_total((a.entries[i][t], b.entries[t][j]) for t in range(inner))
                                           for j in range(cols)])
    u = data.draw(_vectors(cols))
    _assert_exact(product.apply(u), [_total(zip(row, u)) for row in product.entries])


@given(_tables(), st.data())
def test_multiplication_by_a_vector_is_exact(t, data):
    d1, d2, d3 = t.dims
    x = data.draw(_vectors(d1))
    y = data.draw(_vectors(d2))
    left, right = t.left_at(x), t.right_at(y)
    for k in range(d3):
        _assert_exact(left.entries[k], [_total((x[i], t.entries[i][j][k]) for i in range(d1)) for j in range(d2)])
        _assert_exact(right.entries[k], [_total((y[j], t.entries[i][j][k]) for j in range(d2)) for i in range(d1)])
    want = [_total((x[i] * y[j], t.entries[i][j][k]) for i in range(d1) for j in range(d2)) for k in range(d3)]
    _assert_exact(apply_bilinear(t, x, y), want)
    _assert_exact(left.apply(y), want)
    _assert_exact(right.apply(x), want)


@given(st.data())
def test_pair_is_exact(data):
    n, m = data.draw(sizes), data.draw(sizes)
    r = Tensor2(data.draw(_grids(n, m)), n, m)
    u, v = data.draw(_vectors(n)), data.draw(_vectors(m))
    want = _total((r.entries[i][j], u[i] * v[j]) for i in range(n) for j in range(m))
    _assert_exact([r.pair(u, v)], [want])


def test_kernels_give_plain_ints_for_integral_fraction_inputs():
    m = LinearMap(((Fraction(1, 2), Fraction(1, 3)), (2, -1)))
    assert m.apply((Fraction(6, 2), Fraction(6, 1))) == (Fraction(7, 2), 0)
    assert [type(c) for c in m.apply((Fraction(6, 2), Fraction(-3, 1)))] == [Fraction, int]
    assert all(type(c) is int for row in (m @ LinearMap.diagonal([6, 6])).entries for c in row)
    t = Tensor3.from_entries((1, 1, 2), {(0, 0, 0): Fraction(1, 2), (0, 0, 1): Fraction(3, 4)})
    assert apply_bilinear(t, (Fraction(4, 2),), (Fraction(4, 1),)) == (4, 6)
    assert all(type(c) is int for c in apply_bilinear(t, (Fraction(4, 2),), (Fraction(4, 1),)))
    assert type(Tensor2(((Fraction(1, 2),),)).pair((Fraction(2, 1),), (1,))) is int


def _fresh_and_used():
    """Pairs of equal objects: the first built from entries, the second used by
    every kernel (so its integer form and invertibility verdict are built) or
    made by a kernel that hands its integer form over."""
    rows = ((Fraction(1, 2), Fraction(-2, 3), 0), (3, Fraction(5, 4), -1), (0, 1, Fraction(6, 2)))
    singular = ((1, Fraction(1, 2), 0), (2, 1, 0), (0, 0, Fraction(1, 3)))
    t_items = {(0, 1, 2): Fraction(1, 2), (1, 1, 0): -3, (2, 0, 1): Fraction(2, 3)}
    used_map, used_singular = LinearMap(rows), LinearMap(singular)
    for m in (used_map, used_singular):
        m.apply((1, Fraction(1, 3), 2))
        m.is_invertible()
        m @ m
    used_table = Tensor3.from_entries((3, 3, 3), t_items)
    used_table.left_at((1, 2, Fraction(1, 2)))
    apply_bilinear(used_table, (1, 0, 1), (0, Fraction(1, 5), 1))
    used_form = Tensor2.from_entries(3, 3, {(0, 1): Fraction(1, 2), (2, 2): 3})
    used_form.pair((1, 2, 3), (Fraction(1, 2), 1, 0))
    product = LinearMap(rows) @ LinearMap(singular)
    operator = Tensor3.from_entries((3, 3, 3), t_items).left_at((Fraction(2, 3), 0, 3))
    return [(LinearMap(rows), used_map), (LinearMap(singular), used_singular),
            (LinearMap(product.entries), product), (LinearMap(operator.entries), operator),
            (Tensor3.from_entries((3, 3, 3), t_items), used_table),
            (Tensor2.from_entries(3, 3, {(0, 1): Fraction(1, 2), (2, 2): 3}), used_form)]


def test_cached_state_is_invisible():
    pairs = _fresh_and_used()
    for fresh, used in pairs:
        assert fresh == used and used == fresh
        assert hash(fresh) == hash(used)
        assert repr(fresh) == repr(used)
    (m, used_m), _, (p, used_p), _, (t, used_t), (r, used_r) = pairs
    for fresh, used in ((HomPreLieAlgebra(t, m), HomPreLieAlgebra(used_t, used_m)),
                        (HomPreLieAlgebra(t, p), HomPreLieAlgebra(used_t, used_p)), (r, used_r)):
        assert serialize_document(document_for(fresh)) == serialize_document(document_for(used))


def test_invertibility_verdict_is_stable():
    invertible = LinearMap(((Fraction(1, 2), 1), (0, Fraction(-2, 3))))
    singular = LinearMap(((Fraction(1, 2), 1), (1, 2)))
    assert [invertible.is_invertible() for _ in range(3)] == [True] * 3
    assert [singular.is_invertible() for _ in range(3)] == [False] * 3
    with pytest.raises(SingularMap):
        singular.inverse()
    assert singular.is_invertible() is False
    for _ in range(2):
        with pytest.raises(DimensionMismatch):
            LinearMap(((1, 0),)).is_invertible()


def test_integer_forms_are_read_only_inside_foundation():
    """The cached integer forms are foundation's storage: every other module
    reads them only through _integer_family."""
    package = Path(__file__).resolve().parent.parent / "src" / "hombench"
    pattern = re.compile(r"\._form\b|_integer_form\b")
    readers = [(path.name, number, line.strip())
               for path in sorted(package.glob("*.py")) if path.name != "foundation.py"
               for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
               if pattern.search(line)]
    assert len(list(package.glob("*.py"))) > 1
    assert readers == []
