"""Exact rational linear and multilinear algebra.

Everything is dense, immutable, and exact: scalars are ints when integral
and fractions.Fraction otherwise (frac() coerces every entry a vector, matrix
or tensor is built from; computed values compare by value, whichever type),
vectors are tuples, matrices act on column vectors, and composite indices are
lexicographic with the left factor major. No floats anywhere.

A structure table is a Tensor3 whose (i, j) output vector is the product of
the basis pair. Other modules reach its storage only through seven
primitives: Tensor3.left_maps() and Tensor3.right_maps() give the
multiplication operators by each basis vector, Tensor3.left_at(x) and
Tensor3.right_at(y) give multiplication by one vector,
Tensor3.from_slices() builds a table one output vector at a time,
Tensor3.from_left_maps() builds it from a family of maps, the inverse of
left_maps(), and Tensor3.from_integers() builds it from int planes at one
denominator.

A Tensor2, an element of V (x) W, is a LinearMap read with tensor names: one
row store, one constructor and one arithmetic serve both. Its transpose() is
the plain map r#: V* -> W, so a tensor and its map share one matrix.

The contractions (LinearMap.apply and @, Tensor3.left_at and right_at,
apply_bilinear and Tensor2.pair) run in integers. Each LinearMap and Tensor3
stores only its integer form: the lcm d of its entry denominators and its
entries times d as ints, which is canonical, so equality and hashing compare it
(with the type, so a Tensor2 never equals a plain map). Every builder makes the
form in one pass, and the readers (entries, column, slice12, nonzero_items)
divide what they return out of it on each read, never for integral data
(d = 1). A kernel scales each input vector to ints once, does every
multiply-add on ints, and divides each output entry once, giving an int when
the division is exact and a Fraction otherwise. Maps and tables derived from
others (+, -, negation, scale, transpose, flip, left_maps, tensor_product_map,
map_direct_sum, Tensor3.from_left_maps, direct_sum_table) are combined on the
operands' forms brought to one denominator, with no per-entry frac().
Elimination (row_reduce, and with it inverse and is_invertible) also runs in
ints and divides each pivot row by its pivot once at the end. A map remembers
whether it is invertible and, once computed, its inverse; these caches are safe
because every object is immutable.

The identity validators read those forms through one entry point,
_integer_family(items): a family of maps and tables brought to one common
denominator D, each as its int rows or int planes. Outside this module the
forms are read only through it (or _packed_family, which adds a bound on the
ints). The rule is: no Fraction for a passing instance.

An identity instance that sums operator images is one int. _pack(v, w) packs an
int vector into the single int sum of v[m] * 2^(w m), so that a dot product of
packed operator columns with an int vector is the packed image (Kronecker
substitution). _packed_operators builds operators: it packs a table's output
vectors once (_packed_planes, optionally through a map's packed columns) and
gives the left and right multiplication operators at a list of int vectors,
each a list of packed ints, from the one operator kernel _operator_at. The
validator cores read theirs from _operators_on_demand, which builds each one
the first time an instance reads it, so an instance that fails early never
builds the operators only later instances read. A fixed map acts through its
packed columns. An instance is then a sum of a few dot products
sum(map(mul, operator, v)), with every term brought to one scale, and while
every slot stays below 2^(w-1) in size the int is 0 exactly when the
instance holds. Only a failing one is unpacked (_unpack) and divided by its
scale, by _quotients, into the exact residual it reports.

The width w comes from _slot_bits, the one width function: the largest number
of products summed into one slot times bounds on their factors. Each validator
finds it once per call, with the identity's term count at the call site; for
a validator that reads everything from one _packed_family the factors are
three ints no larger than the family's bound. The two validator cores that work
on int planes they were handed, without the objects
(algebras._hom_pre_lie_failures and dendriform._l_dendriform_failures), keep
the table and the twist at their own denominators, bring the vectors they
meet to f = lcm(d, e), and pack the twist only when their multiplicativity
instances run; _instance_bits gives their width, found once per report or per
search, never per candidate.
"""

from fractions import Fraction
from itertools import chain
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


def _exact_rows(rows, what):
    """(d, ints): rows of ints, strings or Fractions coerced by frac(), times the
    lcm d of their denominators, as int tuples, so gcd(d, *ints) is 1. Rows of
    unequal lengths raise DimensionMismatch, naming them as what."""
    table = [[frac(x) for x in row] for row in rows]
    if any(len(row) != len(table[0]) for row in table):
        raise DimensionMismatch("ragged " + what)
    d = lcm(*[c.denominator for row in table for c in row if type(c) is not int])
    return d, tuple(map(tuple, table)) if d == 1 else tuple([_times(row, d) for row in table])


def _reduced(ints, d):
    """(d, rows): int rows over a positive int d as row tuples, divided by the gcd
    of d and every entry, so that d is the lcm of the entry denominators."""
    rows = tuple(map(tuple, ints))
    if d > 1:
        g = gcd(d, *[x for row in rows for x in row])
        if g > 1:
            return d // g, tuple([tuple([x // g for x in row]) for row in rows])
    return d, rows


def _planes(vectors, d1, d2):
    """d1 consecutive runs of d2 vectors: the planes of a (d1, d2, d3) table."""
    return tuple([vectors[i * d2:(i + 1) * d2] for i in range(d1)])


def _transposed(rows, width):
    """The transpose of a sequence of int rows of the given width: width empty
    rows when there are no rows."""
    return list(zip(*rows)) if rows else [()] * width


def _combined(a, b, sign):
    """(d, rows): a + sign * b for two integer forms with rows of one shape,
    summed at their common denominator d."""
    (d1, left), (d2, right) = a, b
    d = lcm(d1, d2)
    f1, f2 = d // d1, sign * (d // d2)
    return d, [[f1 * x + f2 * y for x, y in zip(r1, r2)] for r1, r2 in zip(left, right)]


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


def _integer_family(items):
    """(D, forms): the lcm D of the entry denominators of a sequence of LinearMaps
    and Tensor3s, and each item times D in int form: a map as a sequence of int
    rows, a table as a sequence of planes of int output vectors. Each item's
    stored integer form is reused, and scaled up only when its own lcm is less
    than D."""
    stored = [item._form for item in items]
    scale = lcm(*[d for d, _ in stored])
    forms = []
    for item, (d, ints) in zip(items, stored):
        if d != scale:
            f = scale // d
            ints = [_times_each(plane, f) for plane in ints] if isinstance(item, Tensor3) else _times_each(ints, f)
        forms.append(ints)
    return scale, forms


def _left_sums(planes, xs, d2, d3):
    """Left multiplication by the int vector xs on the int planes of a (len(xs),
    d2, d3) table: the d3 int rows of length d2 whose entry (k, j) is the sum of
    xs[i] * planes[i][j][k], with zero terms skipped."""
    out = [[0] * d2 for _ in range(d3)]
    for xi, plane in zip(xs, planes):
        if xi:
            for j, vec in enumerate(plane):
                for k, c in enumerate(vec):
                    if c:
                        out[k][j] += xi * c
    return out


def _right_sums(planes, ys, d1, d3):
    """Right multiplication by the int vector ys on the int planes of a (d1,
    len(ys), d3) table: the d3 int rows of length d1 whose entry (k, i) is the
    sum of ys[j] * planes[i][j][k], with zero terms skipped."""
    out = [[0] * d1 for _ in range(d3)]
    for i, plane in enumerate(planes):
        for yj, vec in zip(ys, plane):
            if yj:
                for k, c in enumerate(vec):
                    if c:
                        out[k][i] += yj * c
    return out


def _times_each(vectors, f):
    """Each int vector of a sequence times the int f, as lists; the sequence
    itself when f is 1."""
    return vectors if f == 1 else [[x * f for x in v] for v in vectors]


def _pack(v, w):
    """The int v[0] + v[1] * 2^w + ... + v[n-1] * 2^((n-1) w) of an int vector
    v: its n slots of width w in one int, each with its sign. Packing is linear,
    and while every |v[m]| is below 2^(w-1) the packed int is 0 only for the
    zero vector and _unpack recovers v."""
    x = 0
    for c in reversed(v):
        x = (x << w) + c
    return x


def _unpack(x, w, n):
    """The n signed slots of the packed int x as a list of ints: the inverse of
    _pack(v, w) for a vector v of length n with every |v[m]| below 2^(w-1)."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    out = []
    for _ in range(n):
        s = x & mask
        if s >= half:
            s -= mask + 1
        out.append(s)
        x = (x - s) >> w
    return out


def _slot_bits(products, *sizes):
    """The slot width w at which the validators pack an identity instance
    (_pack): every slot of the instance is a sum of at most products products,
    each with one factor per size and no factor larger than its size. w is one
    more than the bit length of products times the sizes, so every slot is below
    2^(w-1) in size and the packed instance is 0 exactly when it holds; w is 1
    when products or a size is 0."""
    bound = products
    for size in sizes:
        bound *= size
    return bound.bit_length() + 1


def _instance_bits(n, table_max, d, twist_max, e):
    """The slot width at which the validator cores pack their instances, for
    dim-n product tables with int planes / d and a twist with int entries / e,
    no table int larger than table_max in size and no twist int larger than
    twist_max; f = lcm(d, e).

    In the cores, the packed twist (twist ints times d) and the vectors met
    (table ints times f / d, twist ints times f / e) have entries of size at
    most twist_max * d, table_max * f / d and twist_max * f / e, and an operator
    at alpha(e_i) has entries that are sums of n twist-table products. So a
    multiplicativity slot sums n products of size at most twist_max *
    table_max * f and n^2 of size at most twist_max^2 * table_max * f / e.
    An axiom instance is three dot products, each pairing operator entries with
    vector entries that sum one, two or four table ints scaled by f / d, so its
    slot sums products of size at most twist_max * table_max^2 * f / d: 4 n^2 of
    them for the twisted associator (n^2 for each dot, twice for the
    commutator) and at most 6 n^2 for the splitting axioms (the left axiom's
    commutator of x |> y + x <| y counts four times)."""
    f = lcm(d, e)
    return max(_slot_bits(n + n * n, twist_max, table_max, max(f, twist_max * (f // e))),
               _slot_bits(6 * n * n, twist_max, table_max, table_max, f // d))


def _packed_planes(planes, w, through=None):
    """The int planes of a table with each output vector v packed once, at slot
    width w: as _pack(v, w), or, given the packed columns through of a map on the
    output space, as the packed image of v under that map, a dot of through
    with v."""
    if through is None:
        return [[_pack(v, w) for v in plane] for plane in planes]
    return [[sum(map(mul, through, v)) for v in plane] for plane in planes]


def _operator_at(rows, x):
    """The multiplication operator of a packed table (_packed_planes) at the int
    vector x, as the list of dots of x with rows: x . - when rows are the packed
    table's columns, zip(*packed), and - . x when they are its planes. The one
    kernel every packed operator comes from."""
    return [sum(map(mul, x, row)) for row in rows]


def _packed_operators(planes, w, xs, ys, through=None):
    """(left, right): the multiplication operators of the int planes of a
    (d1, d2, d3) table at int vectors, each operator a list of packed ints
    (_pack at width w). The table is packed once (_packed_planes, through an
    optional map); left[a][q] packs xs[a] . e_q for q < d2 and right[b][p]
    packs e_p . ys[b] for p < d1, each a dot of the vector with the packed
    table (_operator_at). A dot of left[a] with an int vector v of length d2
    is then the packed xs[a] . v, one int."""
    packed = _packed_planes(planes, w, through)
    columns = list(zip(*packed))
    return [_operator_at(columns, x) for x in xs], [_operator_at(packed, y) for y in ys]


class _Operators(dict):
    """The operators _operator_at(rows, xs[a]) by index a, each built the first
    time it is read and then kept."""

    __slots__ = ("rows", "xs")

    def __init__(self, rows, xs):
        self.rows = rows
        self.xs = xs

    def __missing__(self, a):
        operator = self[a] = _operator_at(self.rows, self.xs[a])
        return operator


def _operators_on_demand(planes, w, xs):
    """(left, right): the operators _packed_operators(planes, w, xs, xs) gives,
    each built the first time it is read (_Operators). The validator cores read
    theirs from these, so an instance that fails early never builds the
    operators that only later instances read."""
    packed = _packed_planes(planes, w)
    return _Operators(list(zip(*packed)), xs), _Operators(packed, xs)


def _packed_family(items):
    """(D, forms, size): the family _integer_family(items), and the larger of D
    and the largest size of an int in its forms. An identity whose operators
    (_packed_operators at the family's vectors, or a family map's packed
    columns) and vectors all come from one family sums, in each slot, products
    of three factors no larger than size: a term with only two family factors
    is brought to the common denominator D^3 by a factor D."""
    D, forms = _integer_family(items)
    size = D
    for item, form in zip(items, forms):
        rows = chain.from_iterable(form) if isinstance(item, Tensor3) else form
        size = max(size, max(map(abs, chain.from_iterable(rows)), default=0))
    return D, forms, size


def row_reduce(work, cols):
    """Gauss-Jordan elimination, in place, of a list of row lists of exact
    scalars on its first cols columns; later columns are carried along. Returns
    the pivot columns in order: row r ends with a leading one at pivots[r].

    The elimination runs in ints: each row is scaled to ints, a row r is
    cleared at a pivot row p's column as a * row_r - b * row_p (a the pivot, b
    row r's entry there) and divided by the gcd of its entries, and only at the
    end is each pivot row divided by its pivot. The pivot rows are therefore the
    reduced row echelon form, whose values are unique. The rows after the last
    pivot row are only guaranteed to be zero on the first cols columns: they
    stay ints, and their carried columns are known up to a nonzero factor."""
    height = len(work)
    rows = [list(_scaled(row)[1]) for row in work]
    pivots = []
    for col in range(cols):
        top = len(pivots)
        if top == height:
            break
        pivot = next((r for r in range(top, height) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        lead = rows[top]
        a = lead[col]
        for r in range(height):
            b = rows[r][col]
            if b and r != top:
                new = [a * x - b * y for x, y in zip(rows[r], lead)]
                g = gcd(*new)
                rows[r] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
    for r, col in enumerate(pivots):
        a = rows[r][col]
        rows[r] = list(_quotients(rows[r] if a > 0 else [-x for x in rows[r]], abs(a)))
    work[:] = rows
    return pivots


class LinearMap:
    """A rows x cols matrix over the rationals, acting on column vectors.

    Explicit shape arguments are only needed when entries are empty, so that
    zero-dimensional spaces stay representable. The map stores only its
    integer form, int row tuples over the lcm d of the entry denominators, and
    compares it. Equality, + and - take operands of one type, which + and -
    and negation keep. The invertibility verdict and the inverse are caches,
    built on first use and never compared.
    """

    __slots__ = ("rows", "cols", "_form", "_invertible", "_inverse")

    def __init__(self, entries, rows=None, cols=None):
        d, table = _exact_rows(entries, "matrix rows")
        if table:
            self_rows = len(table)
            self_cols = len(table[0])
        else:
            self_rows = 0 if rows is None else rows
            self_cols = 0 if cols is None else cols
            table = ((),) * self_rows
            if self_rows and self_cols:
                raise DimensionMismatch("missing entries for nonempty matrix")
        if rows is not None and rows != self_rows:
            raise DimensionMismatch("declared %d rows, got %d" % (rows, self_rows))
        if cols is not None and cols != self_cols:
            raise DimensionMismatch("declared %d cols, got %d" % (cols, self_cols))
        self.rows = self_rows
        self.cols = self_cols
        self._form = d, table
        self._invertible = None
        self._inverse = None

    @classmethod
    def _from_integers(cls, ints, d, rows, cols):
        """The rows x cols map with entries ints[i][j] / d, for int row lists and
        a positive int d, built without __init__'s per-entry coercion and shape
        checks."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._form = _reduced(ints, d)
        m._invertible = None
        m._inverse = None
        return m

    @property
    def entries(self):
        """The exact scalar entries as row tuples, divided out of the integer form
        on each read: ints where integral."""
        d, ints = self._form
        return ints if d == 1 else tuple([_quotients(row, d) for row in ints])

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
        d, cols = _exact_rows(columns, "matrix columns")
        if not cols:
            return cls((), rows=0 if rows is None else rows, cols=0)
        return cls._from_integers(zip(*cols), d, len(cols[0]), len(cols))

    def column(self, j):
        if not 0 <= j < self.cols:
            raise DimensionMismatch("column %d of a %dx%d map" % (j, self.rows, self.cols))
        d, rows = self._form
        return _quotients([row[j] for row in rows], d)

    def apply(self, u):
        if len(u) != self.cols:
            raise DimensionMismatch("applying %dx%d map to length-%d vector" % (self.rows, self.cols, len(u)))
        d, rows = self._form
        e, v = _scaled(u)
        return _quotients([sum(map(mul, row, v)) for row in rows], d * e)

    def __matmul__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch("composing %dx%d with %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        d1, left = self._form
        d2, right = other._form
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

    def _combine(self, other, sign):
        """self + sign * other, summed on the two integer forms, of one type."""
        if type(other) is not type(self):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("adding %dx%d and %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        d, out = _combined(self._form, other._form, sign)
        return self._from_integers(out, d, self.rows, self.cols)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        d, rows = self._form
        return self._from_integers([[-a for a in row] for row in rows], d, self.rows, self.cols)

    def scale(self, c):
        c = frac(c)
        d, rows = self._form
        return LinearMap._from_integers([[c.numerator * a for a in row] for row in rows], d * c.denominator,
                                        self.rows, self.cols)

    def transpose(self):
        d, rows = self._form
        return LinearMap._from_integers(_transposed(rows, self.cols), d, self.cols, self.rows)

    def is_square(self):
        return self.rows == self.cols

    def inverse(self):
        """Gauss-Jordan inverse, computed on the first call and remembered;
        raises SingularMap when rank is deficient. For the form (d, ints),
        reducing [ints | d * I] leaves [I | inverse]."""
        if self._inverse is not None:
            return self._inverse
        if not self.is_square():
            raise DimensionMismatch("inverting a %dx%d map" % (self.rows, self.cols))
        n = self.rows
        d, ints = self._form
        work = [list(row) + [d if k == i else 0 for k in range(n)] for i, row in enumerate(ints)]
        pivots = row_reduce(work, n)
        if len(pivots) < n:
            self._invertible = False
            col = next((c for c, p in enumerate(pivots) if c != p), len(pivots))
            raise SingularMap("matrix has no rank-%d minor at column %d" % (n, col))
        self._invertible = True
        self._inverse = LinearMap(tuple(tuple(row[n:]) for row in work), rows=n, cols=n)
        return self._inverse

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
        """Full rank, found by row-reducing a copy of the integer form on the first call."""
        if not self.is_square():
            raise DimensionMismatch("inverting a %dx%d map" % (self.rows, self.cols))
        if self._invertible is None:
            _, rows = self._form
            self._invertible = len(row_reduce([list(row) for row in rows], self.cols)) == self.rows
        return self._invertible

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.rows, self.cols, self._form) == (other.rows, other.cols, other._form)

    def __hash__(self):
        return hash((self.rows, self.cols, self._form))

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.entries)


class Tensor2(LinearMap):
    """An element of V (x) W in fixed bases: a LinearMap whose entry (i, j) is
    the e_i (x) f_j coefficient, read with tensor names (dim_left is its rows,
    dim_right its cols). It is built, stored, added and compared as a map, but
    never equals or adds to a plain one. Its transpose is the plain map
    r#: V* -> W that pairs a covector against the first leg."""

    __slots__ = ()

    dim_left = property(lambda self: self.rows)
    dim_right = property(lambda self: self.cols)

    @classmethod
    def from_entries(cls, dim_left, dim_right, items):
        """The tensor with the given {(i, j): c} entries, zeros elsewhere."""
        d, ints = _scaled([frac(c) for c in items.values()])
        table = [[0] * dim_right for _ in range(dim_left)]
        for (i, j), c in zip(items, ints):
            table[i][j] = c
        return cls._from_integers(table, d, dim_left, dim_right)

    def flip(self):
        """Swap tensor factors; only defined when both dimensions agree."""
        if self.rows != self.cols:
            raise DimensionMismatch("flipping a %dx%d tensor" % (self.rows, self.cols))
        d, rows = self._form
        return Tensor2._from_integers(zip(*rows), d, self.rows, self.rows)

    def is_symmetric(self):
        return self.rows == self.cols and self == self.flip()

    def is_skew(self):
        return self.rows == self.cols and self == -self.flip()

    def pair(self, u, v):
        """Evaluate as a bilinear pairing: sum entries[i][j] u_i v_j."""
        if len(u) != self.rows or len(v) != self.cols:
            raise DimensionMismatch("pairing %dx%d tensor with lengths %d, %d"
                                    % (self.rows, self.cols, len(u), len(v)))
        d, rows = self._form
        eu, us = _scaled(u)
        ev, vs = _scaled(v)
        total = sum([ui * sum(map(mul, row, vs)) for ui, row in zip(us, rows) if ui])
        return _quotients((total,), d * eu * ev)[0]

    def nonzero_items(self):
        d, rows = self._form
        return [((i, j), _quotients((c,), d)[0]) for i, row in enumerate(rows) for j, c in enumerate(row) if c]


class Tensor3:
    """A three-index array: entries[i][j][k], shapes may differ per slot. It
    stores only its reduced integer form, planes of int output vectors over the
    lcm d of the entry denominators, and compares it."""

    __slots__ = ("dims", "_form")

    def __init__(self, entries, dims=None):
        """Empty entries stand for the zero table of the declared dims; any other
        table must be rectangular."""
        planes = [tuple(plane) for plane in entries]
        d, vectors = _exact_rows([vec for plane in planes for vec in plane], "tensor fibers")
        if planes:
            d1 = len(planes)
            d2 = len(planes[0])
            d3 = len(vectors[0]) if d2 else (0 if dims is None else dims[2])
            if any(len(plane) != d2 for plane in planes):
                raise DimensionMismatch("ragged tensor planes")
            if dims is None and not (d2 and d3):
                raise DimensionMismatch("empty tensor needs explicit dims")
        else:
            if dims is None:
                raise DimensionMismatch("empty tensor needs explicit dims")
            d1, d2, d3 = dims
            vectors = (zero_vector(d3),) * (d1 * d2)
        if dims is not None and tuple(dims) != (d1, d2, d3):
            raise DimensionMismatch("declared dims %r, got %r" % (tuple(dims), (d1, d2, d3)))
        self.dims = (d1, d2, d3)
        self._form = d, _planes(vectors, d1, d2)

    @property
    def entries(self):
        """The exact scalar entries as planes of output vectors, divided out of the
        integer form on each read: ints where integral."""
        d, planes = self._form
        return planes if d == 1 else tuple([tuple([_quotients(vec, d) for vec in plane]) for plane in planes])

    @classmethod
    def zero(cls, d1, d2, d3):
        return cls((), dims=(d1, d2, d3))

    @classmethod
    def from_entries(cls, dims, items):
        """The table with the given {(i, j, k): c} entries, zeros elsewhere."""
        d1, d2, d3 = dims
        d, ints = _scaled([frac(c) for c in items.values()])
        table = [[[0] * d3 for _ in range(d2)] for _ in range(d1)]
        for (i, j, k), c in zip(items, ints):
            table[i][j][k] = c
        return cls.from_integers(table, d, dims)

    @classmethod
    def from_slices(cls, d1, d2, d3, vec_of):
        """The table whose output vector at the basis pair (i, j) is vec_of(i, j)."""
        return cls(tuple(tuple(vec_of(i, j) for j in range(d2)) for i in range(d1)), dims=(d1, d2, d3))

    @classmethod
    def from_left_maps(cls, maps, d2, d3):
        """The (len(maps), d2, d3) table whose output vector at (i, j) is column j
        of the d3 x d2 map maps[i]: the inverse of left_maps(), built on the maps'
        integer forms at one common denominator."""
        maps = tuple(maps)
        for m in maps:
            if m.rows != d3 or m.cols != d2:
                raise DimensionMismatch("left map is %dx%d, expected %dx%d" % (m.rows, m.cols, d3, d2))
        d, forms = _integer_family(maps)
        return cls.from_integers([_transposed(rows, d2) for rows in forms], d, (len(forms), d2, d3))

    @classmethod
    def from_integers(cls, planes, d, dims):
        """The table with entries planes[i][j][k] / d, for int planes of the given
        dims and a positive int d, built without __init__'s per-entry coercion and
        shape checks, so the caller vouches for both. Its integer form is reduced
        like LinearMap._from_integers'."""
        d1, d2, _ = dims
        d, vectors = _reduced([vec for plane in planes for vec in plane], d)
        t = object.__new__(cls)
        t.dims = tuple(dims)
        t._form = d, _planes(vectors, d1, d2)
        return t

    def slice12(self, i, j):
        """The output vector attached to the basis pair (i, j)."""
        d, planes = self._form
        return _quotients(planes[i][j], d)

    def left_maps(self):
        """Left multiplication by each basis vector: map i sends e_j to slice12(i, j)."""
        _, d2, d3 = self.dims
        d, planes = self._form
        return tuple(LinearMap._from_integers(_transposed(plane, d3), d, d3, d2) for plane in planes)

    def right_maps(self):
        """Right multiplication by each basis vector: map j sends e_i to slice12(i, j)."""
        d1, d2, d3 = self.dims
        d, planes = self._form
        return tuple(LinearMap._from_integers(_transposed([plane[j] for plane in planes], d3), d, d3, d1)
                     for j in range(d2))

    def left_at(self, x):
        """Left multiplication by the vector x: the d3 x d2 matrix sending y to
        apply_bilinear(self, x, y), summed straight from the table."""
        d1, d2, d3 = self.dims
        if len(x) != d1:
            raise DimensionMismatch("left multiplication of a %r tensor by length %d" % (self.dims, len(x)))
        d, planes = self._form
        e, xs = _scaled(x)
        return LinearMap._from_integers(_left_sums(planes, xs, d2, d3), d * e, d3, d2)

    def right_at(self, y):
        """Right multiplication by the vector y: the d3 x d1 matrix sending x to
        apply_bilinear(self, x, y), summed straight from the table."""
        d1, d2, d3 = self.dims
        if len(y) != d2:
            raise DimensionMismatch("right multiplication of a %r tensor by length %d" % (self.dims, len(y)))
        d, planes = self._form
        e, ys = _scaled(y)
        return LinearMap._from_integers(_right_sums(planes, ys, d1, d3), d * e, d3, d1)

    def nonzero_items(self):
        d, planes = self._form
        return [((i, j, k), _quotients((c,), d)[0])
                for i, plane in enumerate(planes)
                for j, vec in enumerate(plane)
                for k, c in enumerate(vec) if c]

    def is_zero(self):
        return not any(any(vec) for plane in self._form[1] for vec in plane)

    def _combine(self, other, sign):
        """self + sign * other, summed on the two integer forms."""
        if not isinstance(other, Tensor3):
            return NotImplemented
        if self.dims != other.dims:
            raise DimensionMismatch("adding tensors of different shapes")
        (d1, left), (d2, right) = self._form, other._form
        planes = [_combined((d1, p1), (d2, p2), sign)[1] for p1, p2 in zip(left, right)]
        return Tensor3.from_integers(planes, lcm(d1, d2), self.dims)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        d, planes = self._form
        return Tensor3.from_integers([[[-a for a in vec] for vec in plane] for plane in planes], d, self.dims)

    def __eq__(self, other):
        if not isinstance(other, Tensor3):
            return NotImplemented
        return self.dims == other.dims and self._form == other._form

    def __hash__(self):
        return hash((self.dims, self._form))

    def __repr__(self):
        return "Tensor3(%r)" % (self.entries,)


def tensor_product_map(f, g):
    """Kronecker product acting on lexicographically ordered tensor coordinates,
    multiplied out on the two integer forms."""
    d1, left = f._form
    d2, right = g._form
    blank = [0] * g.cols
    table = []
    for frow in left:
        for grow in right:
            row = []
            for c in frow:
                row.extend([c * x for x in grow] if c else blank)
            table.append(row)
    return LinearMap._from_integers(table, d1 * d2, f.rows * g.rows, f.cols * g.cols)


def apply_bilinear(c, x, y):
    """Contract a structure tensor with two input vectors: out_k = sum x_i y_j c[i][j][k]."""
    d1, d2, d3 = c.dims
    if len(x) != d1 or len(y) != d2:
        raise DimensionMismatch("contracting %r tensor with lengths %d, %d" % (c.dims, len(x), len(y)))
    d, planes = c._form
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


def direct_sum_table(dim, tables, actions):
    """The (dim, dim, dim) structure table of a direct sum, placed block by block.
    tables holds (offset, table) pairs: entry (i, j, k) of the table lands at
    (offset + i, offset + j, offset + k). actions holds (maps, acting, acted,
    swap, negate) rows: entry (k, j) of maps[i], the action of basis vector i
    of the summand at offset acting on basis vector j of the summand at offset
    acted, lands at (acting + i, acted + j, acted + k), or at (acted + j,
    acting + i, acted + k) when swap is set, negated when negate is set. Only
    nonzero entries are placed, later ones over earlier ones, on the integer
    forms of every block brought to one common denominator."""
    d, forms = _integer_family([table for _, table in tables] + [m for row in actions for m in row[0]])
    forms = iter(forms)
    planes = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for offset, _ in tables:
        for i, plane in enumerate(next(forms)):
            for j, vec in enumerate(plane):
                out = planes[offset + i][offset + j]
                for k, c in enumerate(vec):
                    if c:
                        out[offset + k] = c
    for maps, acting, acted, swap, negate in actions:
        for i in range(len(maps)):
            for j, column in enumerate(zip(*next(forms))):
                out = planes[acted + j][acting + i] if swap else planes[acting + i][acted + j]
                for k, c in enumerate(column):
                    if c:
                        out[acted + k] = -c if negate else c
    return Tensor3.from_integers(planes, d, (dim, dim, dim))


def map_direct_sum(f, g):
    """Block diagonal sum of two maps, placed on their integer forms brought to
    a common denominator."""
    d1, top = f._form
    d2, bottom = g._form
    d = lcm(d1, d2)
    f1, f2 = d // d1, d // d2
    table = [[f1 * x for x in row] + [0] * g.cols for row in top]
    table += [[0] * f.cols + [f2 * x for x in row] for row in bottom]
    return LinearMap._from_integers(table, d, f.rows + g.rows, f.cols + g.cols)
