import os
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hombench import (Bialgebra, BilinearForm, Document, HomLDendriform, HomLieAlgebra,
                      HomLieRep, HomPreLieAlgebra, HomPreLieRep, LieMatchedPair,
                      LinearMap, ManinTriple, OOperator, ParseError, PreLieMatchedPair,
                      Tensor2, Tensor3, document_for, parse_document,
                      parse_documents, serialize_document, serialize_documents)
from hombench import fixtures
from hombench.documents import KINDS, SCHEMA

FIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

ALGEBRA_TEXT = """kind: hom_pre_lie
dim: 2
twist:
1 0
0 1
product:
0 0 1 1
"""


def test_parse_canonical_algebra():
    doc = parse_document(ALGEBRA_TEXT)
    assert doc.kind == "hom_pre_lie"
    a = doc.value
    assert a.product_of((1, 0), (1, 0)) == (0, 1)
    assert a == fixtures.nilpotent_algebra()
    assert serialize_document(doc) == ALGEBRA_TEXT


def test_parse_tensor_document():
    text = "kind: tensor2\ndim_left: 2\ndim_right: 2\nentries:\n0 1 1/2\n1 0 -3\n"
    doc = parse_document(text)
    assert doc.value == Tensor2.from_entries(
        2, 2, {(0, 1): Fraction(1, 2), (1, 0): Fraction(-3)})
    assert serialize_document(doc) == text


def parse_error(text):
    with pytest.raises(ParseError) as info:
        parse_documents(text)
    return str(info.value)


def test_rejects_unreduced_fraction():
    msg = parse_error(ALGEBRA_TEXT.replace("0 0 1 1", "0 0 1 2/4"))
    assert "lowest terms" in msg
    assert "line 7" in msg


def test_rejects_unit_denominator():
    msg = parse_error(ALGEBRA_TEXT.replace("0 0 1 1", "0 0 1 3/1"))
    assert "lowest terms" in msg


def test_rejects_negative_zero():
    assert "-0" in parse_error(ALGEBRA_TEXT.replace("0 0 1 1", "0 0 1 -0"))


def test_rejects_truncated_document():
    msg = parse_error("kind: hom_pre_lie\ndim: 2\ntwist:\n1 0\n")
    assert "unexpected end of input" in msg


def test_rejects_unknown_kind_and_field():
    assert "kind" in parse_error("kind: sandwich\ndim: 2\n")
    msg = parse_error(ALGEBRA_TEXT + "flavor: mild\n")
    assert "line 8" in msg


def test_rejects_out_of_order_entries():
    text = ALGEBRA_TEXT.replace("0 0 1 1", "1 0 1 1\n0 0 1 1")
    assert "order" in parse_error(text)
    assert "order" in parse_error(ALGEBRA_TEXT.replace("0 0 1 1", "0 0 1 1\n0 0 1 1"))


def test_rejects_zero_entry():
    assert "zero" in parse_error(ALGEBRA_TEXT.replace("0 0 1 1", "0 0 1 0"))


def test_rejects_out_of_range_index():
    assert "range" in parse_error(ALGEBRA_TEXT.replace("0 0 1 1", "0 0 2 1"))


def test_rejects_blank_line_and_bad_spacing():
    assert parse_error(ALGEBRA_TEXT.replace("product:\n", "product:\n\n"))
    assert parse_error(ALGEBRA_TEXT.replace("1 0\n", "1  0\n"))
    assert parse_error(ALGEBRA_TEXT.replace("1 0\n", "1 0 \n"))
    assert parse_error(ALGEBRA_TEXT.replace("1 0\n", "\t1 0\n"))


def test_rejects_trailing_garbage():
    text = "kind: linear_map\nrows: 2\ncols: 2\nmatrix:\n1 0\n0 1\n"
    msg = parse_error(text + "5 5\n")
    assert "trailing" in msg
    assert "line 7" in msg


def test_rejects_singular_bialgebra_twist():
    text = ("kind: bialgebra\ndim: 1\ntwist:\n0\nproduct:\ndual_product:\n")
    assert "invertible" in parse_error(text)


def test_multi_document_files():
    docs = [document_for(fixtures.nilpotent_algebra()),
            document_for(fixtures.nilpotent_smatrix())]
    text = serialize_documents(docs)
    assert text.count("---") == 1
    parsed = parse_documents(text)
    assert [d.kind for d in parsed] == ["hom_pre_lie", "tensor2"]
    assert parsed[0].value == fixtures.nilpotent_algebra()
    assert parsed[1].value == fixtures.nilpotent_smatrix()


def test_document_for_infers_kind():
    assert document_for(fixtures.nilpotent_algebra()).kind == "hom_pre_lie"
    assert document_for(fixtures.nilpotent_smatrix()).kind == "tensor2"
    assert document_for(fixtures.nilpotent_hessian_form()).kind == "bilinear_form"
    assert document_for(LinearMap.identity(2)).kind == "linear_map"


def test_all_fixture_values_round_trip():
    for name, doc in fixtures.fixture_documents():
        text = serialize_document(doc)
        back = parse_document(text)
        assert back.kind == doc.kind, name
        assert back.value == doc.value, name
        assert serialize_document(back) == text, name


def test_shipped_fixture_files_are_canonical():
    names = sorted(os.listdir(FIXDIR))
    assert len(names) == 17
    for name in names:
        with open(os.path.join(FIXDIR, name), "rb") as handle:
            raw = handle.read()
        docs = parse_documents(raw)
        assert serialize_documents(docs).encode("utf-8") == raw, name


def test_shipped_fixture_files_match_the_python_fixtures():
    built = dict(fixtures.fixture_documents())
    assert sorted(os.listdir(FIXDIR)) == sorted(name + ".txt" for name in built)
    for name, doc in built.items():
        with open(os.path.join(FIXDIR, name + ".txt"), "rb") as handle:
            assert handle.read() == serialize_document(doc).encode("utf-8"), name


scalars = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def tensor2_values(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=3))
    items = {}
    for i in range(n):
        for j in range(m):
            c = draw(scalars)
            if c != 0:
                items[(i, j)] = c
    return Tensor2.from_entries(n, m, items)


@st.composite
def algebra_values(draw):
    n = draw(st.integers(min_value=1, max_value=2))
    items = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = draw(scalars)
                if c != 0:
                    items[(i, j, k)] = c
    diag = [draw(st.sampled_from([1, 2, -1])) for _ in range(n)]
    twist = LinearMap(tuple(tuple(diag[i] if i == j else 0 for j in range(n))
                            for i in range(n)))
    return HomPreLieAlgebra(Tensor3.from_entries((n, n, n), items), twist)


@given(tensor2_values())
def test_tensor2_round_trip(r):
    doc = Document("tensor2", r)
    assert parse_document(serialize_document(doc)).value == r


@given(algebra_values())
def test_algebra_round_trip(a):
    doc = Document("hom_pre_lie", a)
    text = serialize_document(doc)
    assert parse_document(text).value == a
    assert serialize_document(parse_document(text)) == text


# Dim-3 instances of every schema row, with a non-diagonal twist, rational
# entries and a space of another dimension, so that each shape is exercised.
H = Fraction(1, 2)
TWIST3 = LinearMap(((1, 1, 0), (0, 2, 0), (0, 0, H)))
TWIST2 = LinearMap(((0, 1), (-1, Fraction(1, 3))))
TABLE3 = Tensor3.from_entries((3, 3, 3), {(0, 1, 2): Fraction(-2, 3), (1, 1, 0): 5, (2, 0, 1): 1})
OTHER3 = Tensor3.from_entries((3, 3, 3), {(0, 0, 0): H, (2, 2, 1): -1})
TABLE2 = Tensor3.from_entries((2, 2, 2), {(0, 1, 1): Fraction(3, 4)})
MAPS3_ON2 = [LinearMap(((i, H), (1, -i))) for i in range(3)]
MAPS2_ON3 = [LinearMap(((i, 0, 1), (0, H, 0), (1, 0, -i))) for i in range(2)]
LIE3 = HomLieAlgebra(TABLE3, TWIST3)
PRE3 = HomPreLieAlgebra(TABLE3, TWIST3)
PRE_REP = HomPreLieRep(PRE3, 2, TWIST2, MAPS3_ON2, MAPS3_ON2[::-1])
INSTANCES = {
    ("hom_lie", None): LIE3,
    ("hom_pre_lie", None): PRE3,
    ("representation", "hom_lie"): HomLieRep(LIE3, 2, TWIST2, MAPS3_ON2),
    ("representation", "hom_pre_lie"): PRE_REP,
    ("matched_pair_lie", None): LieMatchedPair(
        LIE3, HomLieAlgebra(TABLE2, TWIST2), MAPS3_ON2, MAPS2_ON3),
    ("matched_pair_pre_lie", None): PreLieMatchedPair(
        PRE3, HomPreLieAlgebra(TABLE2, TWIST2), MAPS3_ON2, MAPS3_ON2[::-1],
        MAPS2_ON3, MAPS2_ON3[::-1]),
    ("bilinear_form", None): BilinearForm(((2, H, 0), (H, 0, -1), (0, -1, 3)), "symmetric"),
    ("tensor2", None): Tensor2.from_entries(3, 2, {(0, 1): H, (2, 0): -3}),
    ("linear_map", None): LinearMap(((1, H), (0, 0), (-2, 7))),
    ("dendriform", None): HomLDendriform(TABLE3, OTHER3, TWIST3),
    ("bialgebra", None): Bialgebra(PRE3, HomPreLieAlgebra(OTHER3, TWIST3.inverse().transpose())),
    ("manin_triple", None): ManinTriple(
        PRE3, BilinearForm(((0, Fraction(1, 3), 1), (Fraction(-1, 3), 0, -2), (-1, 2, 0)), "skew"),
        1, 2),
    ("o_operator", None): OOperator(PRE_REP, LinearMap(((1, 0), (H, -1), (0, 2)))),
}


def row_id(row):
    return row.kind if row.base is None else "%s-%s" % (row.kind, row.base)


def test_schema_covers_every_kind():
    assert len(KINDS) == 12
    assert {(row.kind, row.base) for row in SCHEMA} == set(INSTANCES)


@pytest.mark.parametrize("row", SCHEMA, ids=row_id)
def test_schema_row_round_trips_dim3_instance(row):
    value = INSTANCES[(row.kind, row.base)]
    doc = document_for(value)
    assert doc.kind == row.kind
    text = serialize_document(doc)
    back = parse_document(text)
    assert back.value == value
    assert serialize_document(back) == text


def field_chunks(row, text):
    """The document's lines split into the kind line and one chunk per field
    (a representation's base line counts as a field)."""
    keys = {"kind", "base"} | {field.key for field in row.fields}
    chunks = []
    for line in text.splitlines():
        if line.partition(":")[0] in keys:
            chunks.append([])
        chunks[-1].append(line)
    return chunks[0], chunks[1:]


def joined(kind_chunk, chunks):
    return "\n".join(kind_chunk + [line for chunk in chunks for line in chunk]) + "\n"


def assert_error_at(text, line_no):
    with pytest.raises(ParseError) as info:
        parse_documents(text)
    match = re.match(r"line (\d+): ", str(info.value))
    assert match, str(info.value)
    assert int(match.group(1)) == line_no, str(info.value)


@pytest.mark.parametrize("row", SCHEMA, ids=row_id)
def test_schema_row_rejects_dropped_and_swapped_fields(row):
    kind_chunk, chunks = field_chunks(row, serialize_document(document_for(INSTANCES[(row.kind, row.base)])))
    assert len(chunks) == len(row.fields) + (row.base is not None)
    for i in range(len(chunks)):
        start = 2 + sum(len(chunk) for chunk in chunks[:i])
        assert_error_at(joined(kind_chunk, chunks[:i] + chunks[i + 1:]), start)
        if i + 1 < len(chunks):
            swapped = chunks[:i] + [chunks[i + 1], chunks[i]] + chunks[i + 2:]
            assert_error_at(joined(kind_chunk, swapped), start)
