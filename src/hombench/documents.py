"""Canonical text documents for every structure the workbench handles.

The format is line based and strict: fields appear in a fixed order, indices
are zero based, scalars are decimal rationals in lowest terms ("p" or "p/q"),
tensor entries are sorted with zero entries omitted, and matrices are written
row by row. One schema table (SCHEMA) drives both the parser and the
serializer, so serialization of a parsed document reproduces the input byte
for byte, which is what makes regression files and search output stable.
"""

import re
from collections import namedtuple
from fractions import Fraction
from math import gcd
from operator import attrgetter

from .errors import ParseError
from .foundation import LinearMap, Tensor2, Tensor3
from .algebras import BilinearForm, HomLieAlgebra, HomPreLieAlgebra, _Stored
from .representations import HomLieRep, HomPreLieRep
from .matched import LieMatchedPair, ManinTriple, PreLieMatchedPair
from .bialgebras import Bialgebra
from .dendriform import HomLDendriform, OOperator

_KEY_RE = re.compile(r"^([a-z][a-z0-9_]*):(?: (.*))?$")
_INT_RE = re.compile(r"^(?:0|-?[1-9][0-9]*)$")
_DEN_RE = re.compile(r"^[1-9][0-9]*$")


class Document(_Stored):
    """A kind tag plus the structured value it describes."""

    __slots__ = ("kind", "value")

    def __init__(self, kind, value):
        if kind not in KINDS:
            raise ParseError("unknown kind %r" % (kind,))
        self.kind = kind
        self.value = value

    def __repr__(self):
        return "Document(%r)" % (self.kind,)


class _Cursor:
    def __init__(self, numbered):
        self.items = numbered
        self.pos = 0

    def peek(self):
        if self.pos < len(self.items):
            return self.items[self.pos]
        return None

    def take(self, wanted):
        item = self.peek()
        if item is None:
            last = self.items[-1][0] if self.items else 0
            raise ParseError("line %d: unexpected end of input, expected %s" % (last + 1, wanted))
        self.pos += 1
        return item


def _parse_int(token, line_no, minimum=None):
    if not _INT_RE.match(token):
        raise ParseError("line %d: bad integer %r" % (line_no, token))
    value = int(token)
    if minimum is not None and value < minimum:
        raise ParseError("line %d: integer %d below minimum %d" % (line_no, value, minimum))
    return value


def _parse_scalar(token, line_no):
    if "/" in token:
        num, _, den = token.partition("/")
        if not _INT_RE.match(num) or not _DEN_RE.match(den):
            raise ParseError("line %d: bad rational %r" % (line_no, token))
        n = int(num)
        d = int(den)
        if d == 1 or n == 0 or gcd(abs(n), d) != 1:
            raise ParseError("line %d: %r not in lowest terms" % (line_no, token))
        return Fraction(n, d)
    return Fraction(_parse_int(token, line_no))


def _split_tokens(text, line_no):
    tokens = text.split(" ")
    if any(t == "" for t in tokens):
        raise ParseError("line %d: malformed spacing" % line_no)
    return tokens


def _read_key(cur, expected):
    line_no, text = cur.take("'%s:'" % expected)
    match = _KEY_RE.match(text)
    if not match or match.group(1) != expected:
        raise ParseError("line %d: expected '%s:', got %r" % (line_no, expected, text))
    return line_no, match.group(2)


def _read_int_field(cur, key, minimum=1):
    line_no, value = _read_key(cur, key)
    if value is None:
        raise ParseError("line %d: '%s' needs a value" % (line_no, key))
    return _parse_int(value, line_no, minimum=minimum)


def _read_tag_field(cur, key, allowed):
    line_no, value = _read_key(cur, key)
    if value not in allowed:
        raise ParseError("line %d: '%s' must be one of %s" % (line_no, key, ", ".join(allowed)))
    return value


def _read_bare_header(cur, key):
    line_no, value = _read_key(cur, key)
    if value is not None:
        raise ParseError("line %d: '%s:' takes no value" % (line_no, key))
    return line_no


def _read_row(cur, cols):
    line_no, text = cur.take("a matrix row")
    if _KEY_RE.match(text):
        raise ParseError("line %d: expected a matrix row, got %r" % (line_no, text))
    tokens = _split_tokens(text, line_no)
    if len(tokens) != cols:
        raise ParseError("line %d: expected %d entries, got %d" % (line_no, cols, len(tokens)))
    return tuple(_parse_scalar(t, line_no) for t in tokens)


def _read_matrix(cur, rows, cols, cls=LinearMap):
    return cls(tuple(_read_row(cur, cols) for _ in range(rows)))


def _entry_lines(cur):
    while True:
        item = cur.peek()
        if item is None or _KEY_RE.match(item[1]):
            return
        cur.pos += 1
        yield item


def _read_entries(cur, dims):
    """A rank-2 or rank-3 entry table: sorted 'i j [k] c' lines, zeros omitted."""
    rank = len(dims)
    items = {}
    previous = None
    for line_no, text in _entry_lines(cur):
        tokens = _split_tokens(text, line_no)
        if len(tokens) != rank + 1:
            raise ParseError("line %d: tensor entry needs '%s c'" % (line_no, " ".join("ijk"[:rank])))
        index = tuple(_parse_int(t, line_no, minimum=0) for t in tokens[:rank])
        for axis, bound in zip(index, dims):
            if axis >= bound:
                raise ParseError("line %d: index %d out of range" % (line_no, axis))
        if previous is not None and index <= previous:
            raise ParseError("line %d: entries out of order" % line_no)
        previous = index
        coeff = _parse_scalar(tokens[rank], line_no)
        if coeff == 0:
            raise ParseError("line %d: zero entries must be omitted" % line_no)
        items[index] = coeff
    if rank == 2:
        return Tensor2.from_entries(dims[0], dims[1], items)
    return Tensor3.from_entries(dims, items)


def _read_map_family(cur, count, size):
    """count 'map: i' blocks of size x size rows, read as the (count, size, size)
    action table whose slice (i, q) is column q of map i."""
    planes = []
    for idx in range(count):
        line_no, value = _read_key(cur, "map")
        if value != str(idx):
            raise ParseError("line %d: expected 'map: %d'" % (line_no, idx))
        planes.append(tuple(zip(*[_read_row(cur, size) for _ in range(size)])))
    return Tensor3(planes, dims=(count, size, size))


# The schema: one row per document kind, and one per representation base.
# A field is a header key, a block type, a shape and the dotted attribute path
# of its value on the structure ("" for the structure itself). A tag's shape
# lists its allowed values; a block's shape lists its sizes, each the name of
# an earlier int field or a '+'-joined sum of such names. An invertible block
# is a square matrix whose invertibility is checked once the whole document
# has been read; a form block is a matrix read as the Tensor2 of a bilinear
# form. A maps block is an action family, written as one 'map: i' matrix per
# basis vector and held as its action table. The row's build takes the field
# values in order.
INT, TAG, MATRIX, INVERTIBLE, FORM, ENTRIES, MAPS = ("int", "tag", "matrix", "invertible", "form", "entries",
                                                     "maps")

Field = namedtuple("Field", "key block shape path")
Row = namedtuple("Row", "kind base cls fields build")


def _f(key, block, shape=(), path=None):
    return Field(key, block, shape, key if path is None else path)


def _algebra(table, prefix="", owner="", twist=MATRIX):
    """The dimension, twist and structure table of one algebra stored at owner."""
    dim = prefix + "dim"
    return (_f(dim, INT, (), owner + "dim"),
            _f(prefix + "twist", twist, (dim, dim), owner + "twist"),
            _f(prefix + table, ENTRIES, (dim, dim, dim), owner + table))


def _space(owner, *families):
    """The space of a representation stored at owner, then its action families
    given as (key, attribute) pairs, the attribute holding the action table."""
    return ((_f("space_dim", INT, (), owner + "space_dim"),
             _f("space_twist", MATRIX, ("space_dim", "space_dim"), owner + "twist"))
            + tuple(_f(key, MAPS, ("dim", "space_dim"), owner + attr) for key, attr in families))


def _pre_lie_rep_fields(owner):
    return _algebra("product", owner=owner + "algebra.") + _space(owner, ("left", "left_table"),
                                                                  ("right", "right_table"))


def _pre_lie_rep(dim, twist, product, space_dim, space_twist, left, right):
    return HomPreLieRep(HomPreLieAlgebra(product, twist), space_dim, space_twist, left, right)


_TOTAL = "first_dim+second_dim"

SCHEMA = (
    Row("hom_lie", None, HomLieAlgebra, _algebra("bracket"),
        lambda dim, twist, bracket: HomLieAlgebra(bracket, twist)),
    Row("hom_pre_lie", None, HomPreLieAlgebra, _algebra("product"),
        lambda dim, twist, product: HomPreLieAlgebra(product, twist)),
    Row("representation", "hom_lie", HomLieRep,
        _algebra("bracket", owner="algebra.") + _space("", ("action", "table")),
        lambda dim, twist, bracket, space_dim, space_twist, action:
        HomLieRep(HomLieAlgebra(bracket, twist), space_dim, space_twist, action)),
    Row("representation", "hom_pre_lie", HomPreLieRep, _pre_lie_rep_fields(""), _pre_lie_rep),
    Row("matched_pair_lie", None, LieMatchedPair,
        _algebra("bracket", "first_", "first.") + _algebra("bracket", "second_", "second.")
        + (_f("first_action", MAPS, ("first_dim", "second_dim"), "first_action_table"),
           _f("second_action", MAPS, ("second_dim", "first_dim"), "second_action_table")),
        lambda d1, t1, b1, d2, t2, b2, act1, act2:
        LieMatchedPair(HomLieAlgebra(b1, t1), HomLieAlgebra(b2, t2), act1, act2)),
    Row("matched_pair_pre_lie", None, PreLieMatchedPair,
        _algebra("product", "first_", "first.") + _algebra("product", "second_", "second.")
        + (_f("first_left", MAPS, ("first_dim", "second_dim"), "first_left_table"),
           _f("first_right", MAPS, ("first_dim", "second_dim"), "first_right_table"),
           _f("second_left", MAPS, ("second_dim", "first_dim"), "second_left_table"),
           _f("second_right", MAPS, ("second_dim", "first_dim"), "second_right_table")),
        lambda d1, t1, p1, d2, t2, p2, left1, right1, left2, right2:
        PreLieMatchedPair(HomPreLieAlgebra(p1, t1), HomPreLieAlgebra(p2, t2),
                          left1, right1, left2, right2)),
    Row("bilinear_form", None, BilinearForm,
        (_f("dim", INT), _f("symmetry", TAG, ("symmetric", "skew")), _f("matrix", FORM, ("dim", "dim"))),
        lambda dim, symmetry, matrix: BilinearForm(matrix, symmetry)),
    Row("tensor2", None, Tensor2,
        (_f("dim_left", INT), _f("dim_right", INT), _f("entries", ENTRIES, ("dim_left", "dim_right"), "")),
        lambda dim_left, dim_right, entries: entries),
    Row("linear_map", None, LinearMap,
        (_f("rows", INT), _f("cols", INT), _f("matrix", MATRIX, ("rows", "cols"), "")),
        lambda rows, cols, matrix: matrix),
    Row("dendriform", None, HomLDendriform,
        _algebra("left") + (_f("right", ENTRIES, ("dim", "dim", "dim")),),
        lambda dim, twist, left, right: HomLDendriform(left, right, twist)),
    Row("bialgebra", None, Bialgebra,
        _algebra("product", owner="primal.", twist=INVERTIBLE)
        + (_f("dual_product", ENTRIES, ("dim", "dim", "dim"), "dual.product"),),
        lambda dim, twist, product, dual_product:
        Bialgebra(HomPreLieAlgebra(product, twist),
                  HomPreLieAlgebra(dual_product, twist.inverse().transpose()))),
    Row("manin_triple", None, ManinTriple,
        (_f("first_dim", INT), _f("second_dim", INT),
         _f("twist", MATRIX, (_TOTAL, _TOTAL), "total.twist"),
         _f("product", ENTRIES, (_TOTAL,) * 3, "total.product"),
         _f("form", FORM, (_TOTAL, _TOTAL), "form.matrix")),
        lambda first_dim, second_dim, twist, product, form:
        ManinTriple(HomPreLieAlgebra(product, twist), BilinearForm(form, "skew"),
                    first_dim, second_dim)),
    Row("o_operator", None, OOperator,
        _pre_lie_rep_fields("rep.") + (_f("operator", MATRIX, ("dim", "space_dim"), "matrix"),),
        lambda *values: OOperator(_pre_lie_rep(*values[:-1]), values[-1])),
)

KINDS = tuple(dict.fromkeys(row.kind for row in SCHEMA))


def _parse_one(numbered):
    cur = _Cursor(numbered)
    line_no, kind = _read_key(cur, "kind")
    rows = [row for row in SCHEMA if row.kind == kind]
    if not rows:
        raise ParseError("line %d: unknown kind %r" % (line_no, kind))
    row = rows[0]
    if row.base is not None:
        bases = [r.base for r in rows]
        row = rows[bases.index(_read_tag_field(cur, "base", bases))]
    sizes = {}
    values = []
    must_invert = []
    for key, block, shape, _ in row.fields:
        if block == INT:
            value = sizes[key] = _read_int_field(cur, key)
        elif block == TAG:
            value = _read_tag_field(cur, key, shape)
        else:
            line_no = _read_bare_header(cur, key)
            dims = tuple(sum(sizes[name] for name in size.split("+")) for size in shape)
            if block == ENTRIES:
                value = _read_entries(cur, dims)
            elif block == MAPS:
                value = _read_map_family(cur, *dims)
            else:
                value = _read_matrix(cur, *dims, Tensor2 if block == FORM else LinearMap)
                if block == INVERTIBLE:
                    must_invert.append((line_no, key, value))
        values.append(value)
    for line_no, key, matrix in must_invert:
        if not matrix.is_invertible():
            raise ParseError("line %d: %s %s must be invertible" % (line_no, kind, key))
    value = row.build(*values)
    item = cur.peek()
    if item is not None:
        raise ParseError("line %d: unexpected trailing line %r" % (item[0], item[1]))
    return Document(kind, value)


def parse_documents(text):
    """Parse a file that may hold several documents separated by '---' lines."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    raw = text.split("\n")
    if raw and raw[-1] == "":
        raw.pop()
    chunks = [[]]
    for offset, line in enumerate(raw):
        line_no = offset + 1
        if line == "---":
            chunks.append([])
            continue
        if line == "" or line != line.strip() or "\t" in line:
            raise ParseError("line %d: blank or badly spaced line" % line_no)
        chunks[-1].append((line_no, line))
    documents = []
    for chunk in chunks:
        if not chunk:
            raise ParseError("empty document")
        documents.append(_parse_one(chunk))
    return documents


def parse_document(text):
    """Parse exactly one document."""
    documents = parse_documents(text)
    if len(documents) != 1:
        raise ParseError("expected exactly one document, found %d" % len(documents))
    return documents[0]


def _scalar_str(value):
    return str(Fraction(value))


def _emit_rows(lines, matrix):
    lines.extend(" ".join(_scalar_str(v) for v in row) for row in matrix.entries)


def document_for(value):
    """Wrap a structured value in a Document with the kind inferred from its type."""
    for row in SCHEMA:
        if type(value) is row.cls:
            return Document(row.kind, value)
    raise ParseError("no document kind for %r" % type(value).__name__)


def serialize_document(doc):
    rows = [row for row in SCHEMA if row.kind == doc.kind]
    # a value of the wrong type fails on the first attribute it lacks
    row = next((r for r in rows if type(doc.value) is r.cls), rows[-1])
    lines = ["kind: %s" % doc.kind]
    if row.base is not None:
        lines.append("base: %s" % row.base)
    for key, block, _, path in row.fields:
        value = attrgetter(path)(doc.value) if path else doc.value
        if block == INT:
            lines.append("%s: %d" % (key, value))
        elif block == TAG:
            lines.append("%s: %s" % (key, value))
        else:
            lines.append(key + ":")
            if block == ENTRIES:
                lines.extend("%s %s" % (" ".join(map(str, index)), _scalar_str(c))
                             for index, c in value.nonzero_items())
            elif block == MAPS:
                for idx, plane in enumerate(value.entries):
                    lines.append("map: %d" % idx)
                    lines.extend(" ".join(map(_scalar_str, row)) for row in zip(*plane))
            else:
                _emit_rows(lines, value)
    return "\n".join(lines) + "\n"


def serialize_documents(docs):
    return "---\n".join(serialize_document(d) for d in docs)
