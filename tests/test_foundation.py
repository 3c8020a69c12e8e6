import random
import re
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hombench import (DimensionMismatch, HomPreLieAlgebra, LinearMap, SingularMap, Tensor2,
                      Tensor3, apply_bilinear, basis_vector, document_for, map_direct_sum,
                      serialize_document, tensor_product_map, validate_hom_pre_lie)
from hombench.foundation import direct_sum_table, frac, row_reduce
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
    assert r.transpose().apply((1, 0)) == (0, 1)
    assert r.transpose().apply((0, 1)) == (0, 0)


def test_tensor2_is_a_map_of_its_own_kind():
    """A Tensor2 is a LinearMap, but its document kind, equality and arithmetic
    keep it apart from a plain map; only its transpose, the map r#, is plain."""
    rows = ((1, Fraction(1, 2), 0), (0, -3, Fraction(2, 3)))
    r, m = Tensor2(rows), LinearMap(rows)
    assert isinstance(r, LinearMap)
    assert document_for(r).kind == "tensor2" and document_for(m).kind == "linear_map"
    assert r != m and m != r and r.entries == m.entries
    with pytest.raises(TypeError):
        r + m
    s = Tensor2.from_entries(2, 3, {(1, 2): 5})
    square = Tensor2.from_entries(2, 2, {(0, 1): Fraction(1, 3)})
    assert all(type(t) is Tensor2 for t in (r + s, r - s, -r, square.flip()))
    sharp = r.transpose()
    assert type(sharp) is LinearMap
    assert sharp == LinearMap(tuple(zip(*rows)), rows=3, cols=2)
    assert repr(r) == "Tensor2(%r)" % (rows,) and repr(sharp).startswith("LinearMap(")


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


def test_empty_entries_need_an_empty_dim():
    """Like a map, a tensor with no entries, or only empty rows, must have a
    zero dim; otherwise its declared right dim would disagree with its empty
    rows. A tensor is built by the map's one constructor, so both raise."""
    with pytest.raises(DimensionMismatch):
        Tensor2((), 2, 3)
    with pytest.raises(DimensionMismatch):
        Tensor2(((), ()), 2, 3)
    with pytest.raises(DimensionMismatch):
        LinearMap(((), ()), rows=2, cols=3)
    assert Tensor2((), 0, 3).transpose() == LinearMap((), rows=3, cols=0)
    assert Tensor2((), 2, 0).transpose() == LinearMap((), rows=0, cols=2)


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


@given(st.data())
def test_derived_maps_are_exact_and_keep_an_exact_integer_form(data):
    """+, -, negation, transpose, the Kronecker product and the block sum are
    built from integer forms; each agrees with a Fraction reference entry by
    entry, with integral entries as ints, and applies like its entries."""
    rows, cols = data.draw(sizes), data.draw(sizes)
    a, b = data.draw(_maps(rows, cols)), data.draw(_maps(rows, cols))
    c = data.draw(_maps())
    cases = [
        (a + b, [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a.entries, b.entries)]),
        (a - b, [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(a.entries, b.entries)]),
        (-a, [[-x for x in row] for row in a.entries]),
        (a.transpose(), [[a.entries[i][j] for i in range(rows)] for j in range(cols)]),
        (tensor_product_map(a, c), [[a.entries[i][j] * c.entries[k][m] for j in range(cols) for m in range(c.cols)]
                                    for i in range(rows) for k in range(c.rows)]),
        (map_direct_sum(a, c), [list(row) + [0] * c.cols for row in a.entries]
                               + [[0] * cols + list(row) for row in c.entries]),
    ]
    for got, want in cases:
        assert len(got.entries) == got.rows == len(want)
        for row, ref in zip(got.entries, want):
            _assert_exact(row, [Fraction(x) for x in ref])
        assert got == LinearMap(got.entries, rows=got.rows, cols=got.cols)
        u = data.draw(_vectors(got.cols))
        _assert_exact(got.apply(u), [_total(zip(row, u)) for row in got.entries])


def _assert_exact_rows(got, want):
    """Row tuples equal to a grid of exact scalars, with every integral entry a plain int."""
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        _assert_exact(row, [Fraction(x) for x in ref])


def _denominator(grid):
    return lcm(*[Fraction(x).denominator for row in grid for x in row])


@given(st.data())
def test_readers_and_tensor_arithmetic_are_exact_on_the_integer_form(data):
    """Tensor2/Tensor3 +, - and negation, flip, the symmetry tests, scale, the
    readers and both from_entries work on the integer form; each agrees with a
    Fraction reference built from the drawn grids, with integral entries as
    ints, on rational data with unequal dims. A value built from Fractions
    equals, and hashes equal to, the same value built from non-reduced ints."""
    n, m = data.draw(sizes), data.draw(sizes)
    g, h = data.draw(_grids(n, m)), data.draw(_grids(n, m))
    r, s = Tensor2(g, n, m), Tensor2(h, n, m)
    for got, want in [(r + s, [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(g, h)]),
                      (r - s, [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(g, h)]),
                      (-r, [[-x for x in row] for row in g])]:
        assert (got.dim_left, got.dim_right) == (n, m)
        _assert_exact_rows(got.entries, want)
    items = {(i, j): c for i, row in enumerate(g) for j, c in enumerate(row) if c}
    assert r.nonzero_items() == list(items.items())
    _assert_exact([c for _, c in r.nonzero_items()], [Fraction(c) for c in items.values()])
    parsed = Tensor2.from_entries(n, m, items)
    assert parsed == r and hash(parsed) == hash(r)
    _assert_exact_rows(parsed.entries, g)
    sharp = r.transpose()
    assert (sharp.rows, sharp.cols) == (m, n)
    _assert_exact_rows(sharp.entries, [[g[i][j] for i in range(n)] for j in range(m)])
    if n != m:
        assert not r.is_symmetric() and not r.is_skew()

    a = LinearMap(g, rows=n, cols=m)
    for j in range(m):
        _assert_exact(a.column(j), [Fraction(row[j]) for row in g])
    c = data.draw(mixed_scalars)
    _assert_exact_rows(a.scale(c).entries, [[c * x for x in row] for row in g])
    e = _denominator(g)
    doubled = LinearMap._from_integers([[int(2 * e * Fraction(x)) for x in row] for row in g], 2 * e, n, m)
    assert doubled == a and hash(doubled) == hash(a) and doubled._form == a._form

    k = data.draw(sizes)
    q = data.draw(_grids(k, k))
    t = Tensor2(q, k, k)
    _assert_exact_rows(t.flip().entries, [[q[j][i] for j in range(k)] for i in range(k)])
    assert t.is_symmetric() == all(Fraction(q[i][j]) == q[j][i] for i in range(k) for j in range(k))
    assert t.is_skew() == all(Fraction(q[i][j]) == -q[j][i] for i in range(k) for j in range(k))
    assert (t + t.flip()).is_symmetric() and (t - t.flip()).is_skew()

    dims = d1, d2, d3 = data.draw(sizes), data.draw(sizes), data.draw(sizes)
    vecs, other = [data.draw(st.lists(_grids(d2, d3), min_size=d1, max_size=d1)) for _ in range(2)]
    table = Tensor3.from_slices(d1, d2, d3, lambda i, j: vecs[i][j])
    right = Tensor3.from_slices(d1, d2, d3, lambda i, j: other[i][j])
    pairs = [list(zip(p, o)) for p, o in zip(vecs, other)]
    for got, want in [(table + right, [[[x + y for x, y in zip(v, w)] for v, w in p] for p in pairs]),
                      (table - right, [[[x - y for x, y in zip(v, w)] for v, w in p] for p in pairs]),
                      (-table, [[[-x for x in v] for v in p] for p in vecs])]:
        assert got.dims == dims
        for plane, ref in zip(got.entries, want):
            _assert_exact_rows(plane, ref)
    for i in range(d1):
        for j in range(d2):
            _assert_exact(table.slice12(i, j), [Fraction(x) for x in vecs[i][j]])
    left_maps, right_maps = table.left_maps(), table.right_maps()
    assert [(lm.rows, lm.cols) for lm in left_maps] == [(d3, d2)] * d1
    assert [(rm.rows, rm.cols) for rm in right_maps] == [(d3, d1)] * d2
    for i, lm in enumerate(left_maps):
        _assert_exact_rows(lm.entries, [[vecs[i][j][k] for j in range(d2)] for k in range(d3)])
    for j, rm in enumerate(right_maps):
        _assert_exact_rows(rm.entries, [[vecs[i][j][k] for i in range(d1)] for k in range(d3)])
    items = {(i, j, k): x for i, p in enumerate(vecs) for j, v in enumerate(p) for k, x in enumerate(v) if x}
    assert table.nonzero_items() == list(items.items())
    _assert_exact([x for _, x in table.nonzero_items()], [Fraction(x) for x in items.values()])
    assert table.is_zero() == (not items) and (table - table).is_zero()
    assert not any(Tensor3.from_entries(dims, {key: x}).is_zero() for key, x in items.items())
    parsed = Tensor3.from_entries(dims, items)
    assert parsed == table and hash(parsed) == hash(table)
    e = lcm(*[_denominator(p) for p in vecs])
    doubled = Tensor3.from_integers([[[int(2 * e * Fraction(x)) for x in v] for v in p] for p in vecs], 2 * e, dims)
    assert doubled == table and hash(doubled) == hash(table) and doubled._form == table._form


def _reference_row_reduce(work, cols):
    """Plain Fraction Gauss-Jordan: normalize each pivot row, then clear its
    column in every other row."""
    work[:] = [[Fraction(x) for x in row] for row in work]
    pivots = []
    for col in range(cols):
        top = len(pivots)
        pivot = next((r for r in range(top, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[top], work[pivot] = work[pivot], work[top]
        work[top] = [x / work[top][col] for x in work[top]]
        for r in range(len(work)):
            if r != top:
                work[r] = [x - work[r][col] * y for x, y in zip(work[r], work[top])]
        pivots.append(col)
    return pivots


def _random_matrix(rng, rows, cols, shape):
    """A seeded rational matrix: mostly small signed fractions and zeros, with a
    negative leading entry, a duplicated (singular) last row, or zero rows
    according to shape."""
    def entry():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.7 else 0
    m = [[entry() for _ in range(cols)] for _ in range(rows)]
    if shape == "negative" and rows and cols:
        m[0][0] = -Fraction(rng.randint(1, 9), rng.randint(1, 4))
    elif shape == "singular" and rows > 1:
        k = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        m[-1] = [k * x + y for x, y in zip(m[0], m[rows // 2])]
    elif shape == "zero-rows":
        for r in range(0, rows, 2):
            m[r] = [0] * cols
    return m


@pytest.mark.parametrize("n", range(9))
def test_row_reduce_matches_a_fraction_gauss_jordan(n):
    """The integer elimination gives the reference's pivots and, in every pivot
    row, the same values (the reduced row echelon form is unique); rows after
    them are zero on the eliminated columns. Square matrices also invert to the
    reference's inverse."""
    rng = random.Random(1000 + n)
    shapes = [(n, n), (n, n + 3), (n + 2, n), (max(n - 2, 0), n)]
    checked = {"invertible": 0, "singular": 0}
    for rows, width in shapes:
        for shape in ("plain", "negative", "singular", "zero-rows"):
            for _ in range(3):
                matrix = _random_matrix(rng, rows, width, shape)
                cols = min(n, width)
                work = [list(row) for row in matrix]
                ref = [list(row) for row in matrix]
                pivots = row_reduce(work, cols)
                assert pivots == _reference_row_reduce(ref, cols)
                assert len(work) == rows
                for row, want in zip(work, ref[:len(pivots)]):
                    _assert_exact(row, want)
                assert all(x == 0 for row in work[len(pivots):] for x in row[:cols])
                if rows != width:
                    continue
                m = LinearMap(matrix, rows=n, cols=n)
                if len(pivots) < n:
                    checked["singular"] += 1
                    with pytest.raises(SingularMap):
                        m.inverse()
                    continue
                checked["invertible"] += 1
                augmented = [list(row) + list(basis_vector(n, i)) for i, row in enumerate(matrix)]
                _reference_row_reduce(augmented, n)
                assert m.inverse() == LinearMap([row[n:] for row in augmented], rows=n, cols=n)
                assert m @ m.inverse() == LinearMap.identity(n)
    assert checked["invertible"] > 0
    assert checked["singular"] > 0 or n == 0


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
    half = LinearMap(((Fraction(1, 2), Fraction(3, 2)), (0, Fraction(-1, 2))))
    for derived in (half + half, half - LinearMap(((Fraction(-1, 2), Fraction(1, 2)), (1, Fraction(1, 2)))),
                    -(half + half), (half + half).transpose(), tensor_product_map(half, LinearMap.diagonal([2, 4])),
                    map_direct_sum(half + half, LinearMap.diagonal([1])), LinearMap.diagonal([Fraction(1, 3)]).inverse(),
                    LinearMap.diagonal([Fraction(1, 2), Fraction(-1, 5)]).inverse()):
        assert all(type(c) is int for row in derived.entries for c in row), derived


# Action tables and direct sums are placed on integer forms. The references
# below build the same tables one Fraction entry at a time.

def _random_family(rng, count, rows, cols):
    """count seeded rows x cols maps: rational ones built from entries, rational
    ones made by a kernel (whose integer form is summed, not coerced), and integral ones."""
    maps = []
    for p in range(count):
        m = LinearMap(_random_matrix(rng, rows, cols, "plain"), rows=rows, cols=cols)
        if p % 3 == 1:
            m = -(-m)
        elif p % 3 == 2:
            m = LinearMap([[int(6 * x) for x in row] for row in m.entries], rows=rows, cols=cols)
        maps.append(m)
    return maps


def _assert_exact_table(got, want):
    assert got == want and got.dims == want.dims
    for plane, ref in zip(got.entries, want.entries):
        for vec, ref_vec in zip(plane, ref):
            _assert_exact(vec, [Fraction(x) for x in ref_vec])
    assert got._form == Tensor3(want.entries, dims=want.dims)._form


@pytest.mark.parametrize("count, d2, d3", [(0, 2, 2), (0, 0, 0), (2, 0, 0), (3, 2, 0), (2, 0, 3), (1, 1, 1),
                                           (3, 2, 4), (4, 3, 3), (5, 5, 5)])
def test_table_from_left_maps_matches_a_column_reference(count, d2, d3):
    rng = random.Random(100 * count + 10 * d2 + d3)
    maps = _random_family(rng, count, d3, d2)
    want = Tensor3.from_slices(count, d2, d3, lambda p, q: maps[p].column(q))
    got = Tensor3.from_left_maps(maps, d2, d3)
    _assert_exact_table(got, want)
    assert Tensor3.from_left_maps(iter(maps), d2, d3) == want
    assert got.left_maps() == tuple(maps)
    for back, m in zip(got.left_maps(), maps):
        for row, ref in zip(back.entries, m.entries):
            _assert_exact(row, [Fraction(x) for x in ref])
    if d2 == d3:
        _assert_exact_table(action_table(maps, d2), want)


@pytest.mark.parametrize("d", [1, 2, 6])
def test_table_from_integers_matches_the_coerced_table(d):
    rng = random.Random(d)
    planes = [[[rng.randint(-4, 4) * (d // 2 or 1) for _ in range(3)] for _ in range(2)] for _ in range(2)]
    want = Tensor3([[[Fraction(x, d) for x in vec] for vec in plane] for plane in planes])
    _assert_exact_table(Tensor3.from_integers(planes, d, (2, 2, 3)), want)


def test_table_from_left_maps_rejects_maps_of_another_shape():
    with pytest.raises(DimensionMismatch):
        Tensor3.from_left_maps([LinearMap.identity(2), LinearMap.zero(3, 2)], 2, 2)
    with pytest.raises(DimensionMismatch):
        Tensor3.from_left_maps([LinearMap.zero(2, 3)], 2, 3)


def _reference_direct_sum(dim, tables, actions):
    """direct_sum_table's layout as a dict of Fraction items, one entry at a time."""
    items = {}
    for offset, table in tables:
        for (i, j, k), c in table.nonzero_items():
            items[(offset + i, offset + j, offset + k)] = Fraction(c)
    for action, acting, acted, swap, negate in actions:
        for (i, j, k), c in action.nonzero_items():
            x, y = (acted + j, acting + i) if swap else (acting + i, acted + j)
            items[(x, y, acted + k)] = -Fraction(c) if negate else Fraction(c)
    return Tensor3.from_entries((dim, dim, dim), items)


@pytest.mark.parametrize("n, m", [(0, 0), (0, 2), (2, 0), (1, 1), (2, 3), (3, 2), (3, 3)])
def test_direct_sum_table_matches_an_item_reference(n, m):
    rng = random.Random(10 * n + m)

    def table(k):
        return Tensor3.from_slices(k, k, k, lambda i, j: [rng.choice((0, 1, Fraction(rng.randint(-9, 9), 6)))
                                                          for _ in range(k)])

    first, second = table(n), table(m)
    on_second = [Tensor3.from_left_maps(_random_family(rng, n, m, m), m, m) for _ in range(2)]
    on_first = [Tensor3.from_left_maps(_random_family(rng, m, n, n), n, n) for _ in range(2)]
    layouts = [
        ([(0, first), (n, second)], [(on_second[0], 0, n, False, False), (on_second[0], 0, n, True, True),
                                     (on_first[0], n, 0, False, False), (on_first[0], n, 0, True, True)]),
        ([(0, first), (n, second)], [(on_second[0], 0, n, False, False), (on_second[1], 0, n, True, False),
                                     (on_first[0], n, 0, False, False), (on_first[1], n, 0, True, False)]),
        ([(0, first)], [(on_second[0], 0, n, False, False), (on_second[1], 0, n, True, False)]),
        ([(0, first), (0, table(n))], [(on_second[1], 0, n, True, True), (on_second[0], 0, n, True, False)]),
        ([], []),
    ]
    for tables, actions in layouts:
        _assert_exact_table(direct_sum_table(n + m, tables, actions), _reference_direct_sum(n + m, tables, actions))


ROWS = ((Fraction(1, 2), Fraction(-2, 3), 0), (3, Fraction(5, 4), -1), (0, 1, Fraction(6, 2)))
SINGULAR = ((1, Fraction(1, 2), 0), (2, 1, 0), (0, 0, Fraction(1, 3)))
T_ITEMS = {(0, 1, 2): Fraction(1, 2), (1, 1, 0): -3, (2, 0, 1): Fraction(2, 3)}


def _used_map(entries):
    """A map that every kernel has used, so its integer form, invertibility
    verdict and (when it has one) inverse are built."""
    m = LinearMap(entries)
    m.apply((1, Fraction(1, 3), 2))
    m.is_invertible()
    m @ m
    try:
        m.inverse()
    except SingularMap:
        pass
    return m


def _used_table():
    table = Tensor3.from_entries((3, 3, 3), T_ITEMS)
    table.left_at((1, 2, Fraction(1, 2)))
    apply_bilinear(table, (1, 0, 1), (0, Fraction(1, 5), 1))
    return table


def _kernel_built():
    """Maps, tables and algebras made from used operands by the paths that build
    their integer form from other integer forms, without __init__; each algebra
    has been validated, so it remembers its report."""
    m, s = _used_map(ROWS), _used_map(SINGULAR)
    table = _used_table()
    maps = [m @ s, table.left_at((Fraction(2, 3), 0, 3)), table.right_at((0, Fraction(1, 7), 1)), m.inverse(),
            m.transpose(), -s, m + s, m - s, tensor_product_map(s, m), map_direct_sum(m, s)]
    tables = [action_table([m, s, m @ s], 3), Tensor3.from_left_maps([s @ m, -m, s], 3, 3),
              direct_sum_table(6, [(0, table), (3, table)],
                               [(action_table((m, s, m @ s), 3), 0, 3, False, False),
                                (action_table((s, m @ s, m), 3), 0, 3, True, True)])]
    algebras = [HomPreLieAlgebra(table, m), HomPreLieAlgebra(tables[2], map_direct_sum(m, m.inverse())),
                HomPreLieAlgebra(tables[0], m @ s)]
    for a in algebras:
        validate_hom_pre_lie(a)
    return maps + tables + algebras


def _fresh_copy(value):
    """An equal value built from entries, with no cached state."""
    if isinstance(value, Tensor2):
        return Tensor2(value.entries, value.dim_left, value.dim_right)
    if isinstance(value, LinearMap):
        return LinearMap(value.entries, rows=value.rows, cols=value.cols)
    if isinstance(value, Tensor3):
        return Tensor3(value.entries, dims=value.dims)
    return HomPreLieAlgebra(_fresh_copy(value.product), _fresh_copy(value.twist))


def _fresh_and_used():
    """Pairs of equal objects: the first built from entries, the second used by
    every kernel (so its invertibility verdict and inverse are built) or made by
    a kernel from integer forms. Each kernel-made object is paired with a copy
    of a second, equal build, so nothing reads it before the check does."""
    used_form = Tensor2.from_entries(3, 3, {(0, 1): Fraction(1, 2), (2, 2): 3})
    used_form.pair((1, 2, 3), (Fraction(1, 2), 1, 0))
    return [(LinearMap(ROWS), _used_map(ROWS)), (LinearMap(SINGULAR), _used_map(SINGULAR)),
            (Tensor3.from_entries((3, 3, 3), T_ITEMS), _used_table()),
            (Tensor2.from_entries(3, 3, {(0, 1): Fraction(1, 2), (2, 2): 3}), used_form),
            *zip(map(_fresh_copy, _kernel_built()), _kernel_built())]


def _serialized(value):
    if isinstance(value, Tensor3):
        value = HomPreLieAlgebra(value, LinearMap.identity(value.dims[0]))
    return serialize_document(document_for(value))


CACHE_CHECKS = {
    "eq": lambda fresh, used: fresh == used,
    "reversed-eq": lambda fresh, used: used == fresh,
    "hash": lambda fresh, used: hash(fresh) == hash(used),
    "repr": lambda fresh, used: repr(fresh) == repr(used),
    "serialized": lambda fresh, used: _serialized(fresh) == _serialized(used),
}


def test_cached_state_is_invisible():
    """Each check runs on newly built pairs, so it meets maps that remember
    their invertibility and inverse, kernel-made objects whose integer form
    was summed rather than coerced, and algebras that remember their report."""
    for name, check in CACHE_CHECKS.items():
        pairs = _fresh_and_used()
        for fresh, used in pairs:
            assert check(fresh, used), (name, fresh, used)


def test_invertibility_verdict_is_stable():
    invertible = LinearMap(((Fraction(1, 2), 1), (0, Fraction(-2, 3))))
    singular = LinearMap(((Fraction(1, 2), 1), (1, 2)))
    assert [invertible.is_invertible() for _ in range(3)] == [True] * 3
    assert [singular.is_invertible() for _ in range(3)] == [False] * 3
    messages = []
    for _ in range(3):
        with pytest.raises(SingularMap) as caught:
            singular.inverse()
        messages.append(str(caught.value))
    assert messages == ["matrix has no rank-2 minor at column 1"] * 3
    assert singular.is_invertible() is False
    assert LinearMap(singular.entries).is_invertible() is False
    inverses = [invertible.inverse() for _ in range(3)]
    assert inverses == [LinearMap(((2, 3), (0, Fraction(-3, 2))))] * 3
    assert invertible @ inverses[-1] == LinearMap.identity(2)
    for _ in range(2):
        with pytest.raises(DimensionMismatch):
            LinearMap(((1, 0),)).is_invertible()


def test_integer_forms_are_read_only_inside_foundation():
    """The cached integer forms are foundation's storage: every other module
    reads them only through _integer_family, and builds from ints only through
    foundation's public builders."""
    package = Path(__file__).resolve().parent.parent / "src" / "hombench"
    pattern = re.compile(r"\._form\b|_integer_form\b|_from_integers\b")
    readers = [(path.name, number, line.strip())
               for path in sorted(package.glob("*.py")) if path.name != "foundation.py"
               for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
               if pattern.search(line)]
    assert len(list(package.glob("*.py"))) > 1
    assert readers == []
