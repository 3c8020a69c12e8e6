"""Exact rational linear and multilinear algebra.

Everything is dense, immutable, and exact: scalars are ints when integral
and fractions.Fraction otherwise (frac() coerces every entry a vector, matrix
or tensor is built from; computed values compare by value, whichever type),
vectors are tuples, matrices act on column vectors, and composite indices are
lexicographic with the left factor major. No floats anywhere.

A structure table is a Tensor3 whose (i, j) output vector is the product of
the basis pair. Other modules reach its storage only through five
primitives: Tensor3.left_maps() and Tensor3.right_maps() give the
multiplication operators by each basis vector, Tensor3.left_at(x) and
Tensor3.right_at(y) give multiplication by one vector, and
Tensor3.from_slices() builds a table one output vector at a time.

The contractions (LinearMap.apply and @, Tensor3.left_at and right_at,
apply_bilinear and Tensor2.pair) run in integers. Each LinearMap, Tensor2 and
Tensor3 keeps a private integer form, built on first use: the lcm d of its
entry denominators and its entries times d. A kernel scales each input vector
to ints once, does every multiply-add on ints, and divides each output entry
once, giving an int when the division is exact and a Fraction otherwise.
Integral data is the d = 1 case and is never divided. Maps that a kernel
summed in ints keep that form, and a map remembers whether it is invertible.
These caches are safe because every object is immutable; equality, hashing,
repr and serialization never read them.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DimensionMismatch, SingularMap

ZERO = 0
ONE = 1


def frac(value):
    """Coerce an int, string, or Fraction to an exact scalar: a plain int when
    the value is integral, a Fraction otherwise."""
    if type(value) is int:
        return value
    if isinstance(value, (int, str)):
        value = Fraction(value)
    elif not isinstance(value, Fraction):
        raise TypeError("not an exact scalar: %r" % (value,))
    return value.numerator if value.denominator == 1 else value


def vector(values):
    return tuple(frac(v) for v in values)


def zero_vector(n):
    return (ZERO,) * n


def basis_vector(n, i):
    return tuple(ONE if k == i else ZERO for k in range(n))


def sub_vectors(u, v):
    if len(u) != len(v):
        raise DimensionMismatch("vector lengths %d and %d" % (len(u), len(v)))
    return tuple(a - b for a, b in zip(u, v))


def is_zero_vector(u):
    return not any(u)


def _times(values, d):
    """The exact scalars in values times d, as a tuple of ints; d is a multiple
    of every denominator."""
    return tuple([c * d if type(c) is int else c.numerator * (d // c.denominator) for c in values])


def _scaled(values):
    """(e, ints): the lcm e of the denominators of a sequence of exact scalars,
    and the scalars times e. A sequence of ints is its own scaled form."""
    for c in values:
        if type(c) is not int:
            e = lcm(*[c.denominator for c in values if type(c) is not int])
            return e, _times(values, e)
    return 1, values


def _integer_rows(rows):
    """(d, ints): the lcm d of the denominators in a tuple of rows of exact
    scalars, and each row times d. Rows of ints are their own scaled form."""
    dens = [c.denominator for row in rows for c in row if type(c) is not int]
    if not dens:
        return 1, rows
    d = lcm(*dens)
    return d, tuple([_times(row, d) for row in rows])


def _quotients(totals, d):
    """The tuple of exact scalars t / d for the ints t in totals and a positive
    int d: an int where the division is exact, a Fraction otherwise."""
    if d == 1:
        return tuple(totals)
    out = []
    for t in totals:
        q, r = divmod(t, d)
        out.append(Fraction(t, d) if r else q)
    return tuple(out)


def row_reduce(work, cols):
    """Gauss-Jordan elimination, in place, of a list of row lists on its first
    cols columns; later columns are carried along. Returns the pivot columns in
    order: row r ends with a leading one at pivots[r], and the rows after the
    last pivot row are zero on the first cols columns."""
    height = len(work)
    pivots = []
    for col in range(cols):
        row = len(pivots)
        if row == height:
            break
        pivot = next((r for r in range(row, height) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        if work[row][col] != 1:
            inv = Fraction(1) / work[row][col]
            work[row] = [inv * x for x in work[row]]
        for r in range(height):
            if r != row and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[row])]
        pivots.append(col)
    return pivots


class LinearMap:
    """A rows x cols matrix over the rationals, acting on column vectors.

    Explicit shape arguments are only needed when entries are empty, so that
    zero-dimensional spaces stay representable. The integer form and the
    invertibility verdict are caches, built on first use and never compared.
    """

    __slots__ = ("rows", "cols", "entries", "_form", "_invertible")

    def __init__(self, entries, rows=None, cols=None):
        table = tuple(tuple(frac(x) for x in row) for row in entries)
        if table:
            width = len(table[0])
            for row in table:
                if len(row) != width:
                    raise DimensionMismatch("ragged matrix rows")
            self_rows = len(table)
            self_cols = width
        else:
            self_rows = 0 if rows is None else rows
            self_cols = 0 if cols is None else cols
            table = tuple(() for _ in range(self_rows))
            if self_rows and self_cols:
                raise DimensionMismatch("missing entries for nonempty matrix")
        if rows is not None and rows != self_rows:
            raise DimensionMismatch("declared %d rows, got %d" % (rows, self_rows))
        if cols is not None and cols != self_cols:
            raise DimensionMismatch("declared %d cols, got %d" % (cols, self_cols))
        self.rows = self_rows
        self.cols = self_cols
        self.entries = table
        self._form = None
        self._invertible = None

    @classmethod
    def _from_integers(cls, ints, d, rows, cols):
        """The rows x cols map with entries ints[i][j] / d, for int row lists and
        a positive int d, built without __init__'s per-entry coercion and shape
        checks. It keeps the integer form it was summed in, reduced so that d is
        the lcm of its entry denominators."""
        ints = tuple(map(tuple, ints))
        if d > 1:
            g = gcd(d, *[x for row in ints for x in row])
            if g > 1:
                d //= g
                ints = tuple([tuple([x // g for x in row]) for row in ints])
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.entries = ints if d == 1 else tuple([_quotients(row, d) for row in ints])
        m._form = d, ints
        m._invertible = None
        return m

    def _integer_form(self):
        """(d, rows): the lcm d of the entry denominators and the entries times d
        as int row tuples."""
        if self._form is None:
            self._form = _integer_rows(self.entries)
        return self._form

    @classmethod
    def identity(cls, n):
        return cls(tuple(basis_vector(n, i) for i in range(n)), rows=n, cols=n)

    @classmethod
    def zero(cls, rows, cols):
        return cls(tuple(zero_vector(cols) for _ in range(rows)), rows=rows, cols=cols)

    @classmethod
    def diagonal(cls, values):
        vals = vector(values)
        n = len(vals)
        return cls(tuple(tuple(vals[i] if i == j else ZERO for j in range(n)) for i in range(n)), rows=n, cols=n)

    @classmethod
    def from_columns(cls, columns, rows=None):
        cols = [vector(c) for c in columns]
        if not cols:
            return cls((), rows=0 if rows is None else rows, cols=0)
        height = len(cols[0])
        for c in cols:
            if len(c) != height:
                raise DimensionMismatch("ragged matrix columns")
        return cls(tuple(tuple(c[i] for c in cols) for i in range(height)), rows=height, cols=len(cols))

    def column(self, j):
        if not 0 <= j < self.cols:
            raise DimensionMismatch("column %d of a %dx%d map" % (j, self.rows, self.cols))
        return tuple(self.entries[i][j] for i in range(self.rows))

    def apply(self, u):
        if len(u) != self.cols:
            raise DimensionMismatch("applying %dx%d map to length-%d vector" % (self.rows, self.cols, len(u)))
        d, rows = self._form or self._integer_form()
        e, v = _scaled(u)
        return _quotients([sum(map(mul, row, v)) for row in rows], d * e)

    def __matmul__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch("composing %dx%d with %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        d1, left = self._form or self._integer_form()
        d2, right = other._form or other._integer_form()
        out = []
        for row in left:
            acc = [0] * other.cols
            for c, src in zip(row, right):
                if c:
                    for j, x in enumerate(src):
                        if x:
                            acc[j] += c * x
            out.append(acc)
        return LinearMap._from_integers(out, d1 * d2, self.rows, other.cols)

    def __add__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("adding %dx%d and %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        return LinearMap(tuple(tuple(a + b for a, b in zip(r1, r2))
                               for r1, r2 in zip(self.entries, other.entries)),
                         rows=self.rows, cols=self.cols)

    def __sub__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return LinearMap(tuple(tuple(-a for a in row) for row in self.entries), rows=self.rows, cols=self.cols)

    def scale(self, c):
        c = frac(c)
        return LinearMap(tuple(tuple(c * a for a in row) for row in self.entries), rows=self.rows, cols=self.cols)

    def transpose(self):
        return LinearMap(tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
                         rows=self.cols, cols=self.rows)

    def is_square(self):
        return self.rows == self.cols

    def inverse(self):
        """Gauss-Jordan inverse; raises SingularMap when rank is deficient."""
        if not self.is_square():
            raise DimensionMismatch("inverting a %dx%d map" % (self.rows, self.cols))
        n = self.rows
        work = [list(row) + list(basis_vector(n, i)) for i, row in enumerate(self.entries)]
        pivots = row_reduce(work, n)
        if len(pivots) < n:
            col = next((c for c, p in enumerate(pivots) if c != p), len(pivots))
            raise SingularMap("matrix has no rank-%d minor at column %d" % (n, col))
        return LinearMap(tuple(tuple(row[n:]) for row in work), rows=n, cols=n)

    def power(self, k):
        """Integer power; negative exponents invert first."""
        if not self.is_square():
            raise DimensionMismatch("powering a %dx%d map" % (self.rows, self.cols))
        base = self if k >= 0 else self.inverse()
        result = LinearMap.identity(self.rows)
        for _ in range(abs(k)):
            result = result @ base
        return result

    def is_invertible(self):
        """Full rank, found by row-reducing a copy of the matrix on the first call."""
        if not self.is_square():
            raise DimensionMismatch("inverting a %dx%d map" % (self.rows, self.cols))
        if self._invertible is None:
            self._invertible = len(row_reduce([list(row) for row in self.entries], self.cols)) == self.rows
        return self._invertible

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return "LinearMap(%r)" % (self.entries,)


class Tensor2:
    """An element of V (x) W in fixed bases: entries[i][j] is the e_i (x) f_j
    coefficient. The integer form is a cache, built on first use and never compared."""

    __slots__ = ("dim_left", "dim_right", "entries", "_form")

    def __init__(self, entries, dim_left=None, dim_right=None):
        table = tuple(tuple(frac(x) for x in row) for row in entries)
        if table:
            width = len(table[0])
            for row in table:
                if len(row) != width:
                    raise DimensionMismatch("ragged tensor rows")
            self.dim_left = len(table)
            self.dim_right = width
        else:
            self.dim_left = 0 if dim_left is None else dim_left
            self.dim_right = 0 if dim_right is None else dim_right
            table = tuple(() for _ in range(self.dim_left))
        if dim_left is not None and dim_left != self.dim_left:
            raise DimensionMismatch("declared left dim %d, got %d" % (dim_left, self.dim_left))
        if dim_right is not None and table and table[0] and dim_right != self.dim_right:
            raise DimensionMismatch("declared right dim %d, got %d" % (dim_right, self.dim_right))
        self.entries = table
        self._form = None

    def _integer_form(self):
        """(d, rows): the lcm d of the entry denominators and the entries times d
        as int row tuples."""
        if self._form is None:
            self._form = _integer_rows(self.entries)
        return self._form

    @classmethod
    def zero(cls, dim_left, dim_right):
        return cls(tuple(zero_vector(dim_right) for _ in range(dim_left)), dim_left, dim_right)

    @classmethod
    def from_entries(cls, dim_left, dim_right, items):
        table = [[ZERO] * dim_right for _ in range(dim_left)]
        for (i, j), c in items.items():
            table[i][j] = frac(c)
        return cls(tuple(tuple(row) for row in table), dim_left, dim_right)

    def flip(self):
        """Swap tensor factors; only defined when both dimensions agree."""
        if self.dim_left != self.dim_right:
            raise DimensionMismatch("flipping a %dx%d tensor" % (self.dim_left, self.dim_right))
        n = self.dim_left
        return Tensor2(tuple(tuple(self.entries[j][i] for j in range(n)) for i in range(n)), n, n)

    def is_symmetric(self):
        return self.dim_left == self.dim_right and self == self.flip()

    def is_skew(self):
        if self.dim_left != self.dim_right:
            return False
        n = self.dim_left
        return all(self.entries[i][j] == -self.entries[j][i] for i in range(n) for j in range(n))

    def pair(self, u, v):
        """Evaluate as a bilinear pairing: sum entries[i][j] u_i v_j."""
        if len(u) != self.dim_left or len(v) != self.dim_right:
            raise DimensionMismatch("pairing %dx%d tensor with lengths %d, %d"
                                    % (self.dim_left, self.dim_right, len(u), len(v)))
        d, rows = self._form or self._integer_form()
        eu, us = _scaled(u)
        ev, vs = _scaled(v)
        total = sum([ui * sum(map(mul, row, vs)) for ui, row in zip(us, rows) if ui])
        return _quotients((total,), d * eu * ev)[0]

    def nonzero_items(self):
        return [((i, j), c) for i, row in enumerate(self.entries) for j, c in enumerate(row) if c != 0]

    def __add__(self, other):
        if not isinstance(other, Tensor2):
            return NotImplemented
        if (self.dim_left, self.dim_right) != (other.dim_left, other.dim_right):
            raise DimensionMismatch("adding tensors of different shapes")
        return Tensor2(tuple(tuple(a + b for a, b in zip(r1, r2))
                             for r1, r2 in zip(self.entries, other.entries)),
                       self.dim_left, self.dim_right)

    def __sub__(self, other):
        if not isinstance(other, Tensor2):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Tensor2(tuple(tuple(-a for a in row) for row in self.entries), self.dim_left, self.dim_right)

    def __eq__(self, other):
        if not isinstance(other, Tensor2):
            return NotImplemented
        return (self.dim_left, self.dim_right, self.entries) == (other.dim_left, other.dim_right, other.entries)

    def __hash__(self):
        return hash((self.dim_left, self.dim_right, self.entries))

    def __repr__(self):
        return "Tensor2(%r)" % (self.entries,)


class Tensor3:
    """A three-index array: entries[i][j][k], shapes may differ per slot. The
    integer form is a cache, built on first use and never compared."""

    __slots__ = ("dims", "entries", "_form")

    def __init__(self, entries, dims=None):
        """Empty entries stand for the zero table of the declared dims; any other
        table must be rectangular."""
        table = tuple(tuple(tuple(frac(x) for x in vec) for vec in plane) for plane in entries)
        if table:
            d1 = len(table)
            d2 = len(table[0])
            d3 = len(table[0][0]) if d2 else (0 if dims is None else dims[2])
            for plane in table:
                if len(plane) != d2:
                    raise DimensionMismatch("ragged tensor planes")
                for vec in plane:
                    if len(vec) != d3:
                        raise DimensionMismatch("ragged tensor fibers")
            if dims is None and not (d2 and d3):
                raise DimensionMismatch("empty tensor needs explicit dims")
        else:
            if dims is None:
                raise DimensionMismatch("empty tensor needs explicit dims")
            d1, d2, d3 = dims
            table = tuple(tuple(zero_vector(d3) for _ in range(d2)) for _ in range(d1))
        if dims is not None and tuple(dims) != (d1, d2, d3):
            raise DimensionMismatch("declared dims %r, got %r" % (tuple(dims), (d1, d2, d3)))
        self.dims = (d1, d2, d3)
        self.entries = table
        self._form = None

    @classmethod
    def zero(cls, d1, d2, d3):
        return cls((), dims=(d1, d2, d3))

    @classmethod
    def from_entries(cls, dims, items):
        d1, d2, d3 = dims
        table = [[[ZERO] * d3 for _ in range(d2)] for _ in range(d1)]
        for (i, j, k), c in items.items():
            table[i][j][k] = frac(c)
        if 0 in dims:
            return cls((), dims=dims)
        return cls(tuple(tuple(tuple(vec) for vec in plane) for plane in table), dims=dims)

    @classmethod
    def from_slices(cls, d1, d2, d3, vec_of):
        """The table whose output vector at the basis pair (i, j) is vec_of(i, j)."""
        return cls(tuple(tuple(vec_of(i, j) for j in range(d2)) for i in range(d1)), dims=(d1, d2, d3))

    def _integer_form(self):
        """(d, planes): the lcm d of the entry denominators and the table times d,
        with int output vectors."""
        if self._form is None:
            dens = [c.denominator for plane in self.entries for vec in plane for c in vec if type(c) is not int]
            if not dens:
                self._form = 1, self.entries
            else:
                d = lcm(*dens)
                self._form = d, tuple(tuple([_times(vec, d) for vec in plane]) for plane in self.entries)
        return self._form

    def slice12(self, i, j):
        """The output vector attached to the basis pair (i, j)."""
        return self.entries[i][j]

    def left_maps(self):
        """Left multiplication by each basis vector: map i sends e_j to slice12(i, j)."""
        _, d2, d3 = self.dims
        return tuple(LinearMap(tuple(zip(*plane)), rows=d3, cols=d2) for plane in self.entries)

    def right_maps(self):
        """Right multiplication by each basis vector: map j sends e_i to slice12(i, j)."""
        d1, d2, d3 = self.dims
        return tuple(LinearMap(tuple(zip(*(plane[j] for plane in self.entries))), rows=d3, cols=d1)
                     for j in range(d2))

    def left_at(self, x):
        """Left multiplication by the vector x: the d3 x d2 matrix sending y to
        apply_bilinear(self, x, y), summed straight from the table."""
        d1, d2, d3 = self.dims
        if len(x) != d1:
            raise DimensionMismatch("left multiplication of a %r tensor by length %d" % (self.dims, len(x)))
        d, planes = self._form or self._integer_form()
        e, xs = _scaled(x)
        out = [[0] * d2 for _ in range(d3)]
        for xi, plane in zip(xs, planes):
            if xi:
                for j, vec in enumerate(plane):
                    for k, c in enumerate(vec):
                        if c:
                            out[k][j] += xi * c
        return LinearMap._from_integers(out, d * e, d3, d2)

    def right_at(self, y):
        """Right multiplication by the vector y: the d3 x d1 matrix sending x to
        apply_bilinear(self, x, y), summed straight from the table."""
        d1, d2, d3 = self.dims
        if len(y) != d2:
            raise DimensionMismatch("right multiplication of a %r tensor by length %d" % (self.dims, len(y)))
        d, planes = self._form or self._integer_form()
        e, ys = _scaled(y)
        out = [[0] * d1 for _ in range(d3)]
        for i, plane in enumerate(planes):
            for yj, vec in zip(ys, plane):
                if yj:
                    for k, c in enumerate(vec):
                        if c:
                            out[k][i] += yj * c
        return LinearMap._from_integers(out, d * e, d3, d1)

    def nonzero_items(self):
        return [((i, j, k), c)
                for i, plane in enumerate(self.entries)
                for j, vec in enumerate(plane)
                for k, c in enumerate(vec) if c != 0]

    def is_zero(self):
        return not self.nonzero_items()

    def __add__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        if self.dims != other.dims:
            raise DimensionMismatch("adding tensors of different shapes")
        return Tensor3(tuple(tuple(tuple(a + b for a, b in zip(v1, v2))
                                   for v1, v2 in zip(p1, p2))
                             for p1, p2 in zip(self.entries, other.entries)), dims=self.dims)

    def __sub__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Tensor3(tuple(tuple(tuple(-a for a in vec) for vec in plane) for plane in self.entries),
                       dims=self.dims)

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.dims == other.dims and self.entries == other.entries

    def __hash__(self):
        return hash((self.dims, self.entries))

    def __repr__(self):
        return "Tensor3(%r)" % (self.entries,)


def tensor_product_map(f, g):
    """Kronecker product acting on lexicographically ordered tensor coordinates."""
    rows = f.rows * g.rows
    cols = f.cols * g.cols
    table = []
    for i in range(f.rows):
        for k in range(g.rows):
            row = []
            for j in range(f.cols):
                fij = f.entries[i][j]
                if fij == 0:
                    row.extend([ZERO] * g.cols)
                else:
                    row.extend(fij * g.entries[k][l] for l in range(g.cols))
            table.append(tuple(row))
    return LinearMap(tuple(table), rows=rows, cols=cols)


def apply_bilinear(c, x, y):
    """Contract a structure tensor with two input vectors: out_k = sum x_i y_j c[i][j][k]."""
    d1, d2, d3 = c.dims
    if len(x) != d1 or len(y) != d2:
        raise DimensionMismatch("contracting %r tensor with lengths %d, %d" % (c.dims, len(x), len(y)))
    d, planes = c._form or c._integer_form()
    ex, xs = _scaled(x)
    ey, ys = _scaled(y)
    out = [0] * d3
    for xi, plane in zip(xs, planes):
        if xi:
            for yj, vec in zip(ys, plane):
                if yj:
                    coeff = xi * yj
                    for k, b in enumerate(vec):
                        if b:
                            out[k] += coeff * b
    return _quotients(out, d * ex * ey)


def tensor2_to_map(r):
    """View an element of A (x) A as a map A* -> A: the matrix transpose of the entry table."""
    return LinearMap(tuple(tuple(r.entries[j][i] for j in range(r.dim_left)) for i in range(r.dim_right)),
                     rows=r.dim_right, cols=r.dim_left)


def direct_sum_table(dim, tables, actions):
    """The (dim, dim, dim) structure table of a direct sum, placed block by block.
    tables holds (offset, table) pairs: entry (i, j, k) of the table lands at
    (offset + i, offset + j, offset + k). actions holds (maps, acting, acted,
    swap, negate) rows: entry (k, j) of maps[i], the action of basis vector i
    of the summand at offset acting on basis vector j of the summand at offset
    acted, lands at (acting + i, acted + j, acted + k), or at (acted + j,
    acting + i, acted + k) when swap is set, negated when negate is set."""
    items = {}
    for offset, table in tables:
        for (i, j, k), c in table.nonzero_items():
            items[(offset + i, offset + j, offset + k)] = c
    for maps, acting, acted, swap, negate in actions:
        for i, m in enumerate(maps):
            for j, column in enumerate(zip(*m.entries)):
                x, y = (acted + j, acting + i) if swap else (acting + i, acted + j)
                for k, c in enumerate(column):
                    if c != 0:
                        items[(x, y, acted + k)] = -c if negate else c
    return Tensor3.from_entries((dim, dim, dim), items)


def map_direct_sum(f, g):
    """Block diagonal sum of two maps."""
    rows = f.rows + g.rows
    cols = f.cols + g.cols
    table = []
    for i in range(f.rows):
        table.append(tuple(f.entries[i]) + zero_vector(g.cols))
    for i in range(g.rows):
        table.append(zero_vector(f.cols) + tuple(g.entries[i]))
    return LinearMap(tuple(table), rows=rows, cols=cols)
