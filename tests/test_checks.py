import pytest

from hombench import (Document, InvalidInput, Tensor2, UnknownSlug, checks,
                      document_for, parse_documents, serialize_documents)
from hombench import fixtures

DOCS = dict(fixtures.fixture_documents())


def tensor_doc(items):
    return Document("tensor2", Tensor2.from_entries(2, 2, items))


def test_run_validate_dispatches_every_structural_kind():
    verdicts = {}
    for name, doc in DOCS.items():
        if doc.kind in ("bilinear_form", "tensor2", "linear_map"):
            continue
        result = checks.run_validate(doc)
        verdicts[name] = result.exit_code
        assert result.exit_code in (0, 1)
        assert result.report.valid == (result.exit_code == 0)
    assert verdicts["invalid_product_candidate"] == 1
    del verdicts["invalid_product_candidate"]
    assert set(verdicts.values()) == {0}


def test_run_validate_rejects_plain_data_kinds():
    for name in ("nilpotent_hessian_form", "nilpotent_smatrix", "scaling_twist"):
        with pytest.raises(checks.UnsupportedKind):
            checks.run_validate(DOCS[name])


def test_derive_sub_adjacent_bracket():
    out = checks.run_derive("sub-adjacent", [DOCS["scaling_algebra"]])
    assert [d.kind for d in out] == ["hom_lie"]
    assert "0 1 1 1" in serialize_documents(out)


def test_derive_triangular_bialgebra_has_zero_dual():
    out = checks.run_derive("triangular-bialgebra",
                            [DOCS["nilpotent_algebra"], DOCS["nilpotent_smatrix"]])
    assert [d.kind for d in out] == ["bialgebra"]
    text = serialize_documents(out)
    assert text.endswith("dual_product:\n")
    assert parse_documents(text)[0].value == out[0].value


def test_derive_hessian_dendriform_entries():
    out = checks.run_derive("dendriform-from-hessian",
                            [DOCS["nilpotent_algebra"], DOCS["nilpotent_hessian_form"]])
    text = serialize_documents(out)
    assert "left:\nright:\n0 0 1 -1\n" in text


def test_derive_pair_constructions_emit_two_documents():
    out = checks.run_derive("standardize-manin", [DOCS["nilpotent_manin"]])
    assert [d.kind for d in out] == ["linear_map", "manin_triple"]
    out = checks.run_derive("semidirect-smatrix", [DOCS["mixed_action_operator"]])
    assert [d.kind for d in out] == ["hom_pre_lie", "tensor2"]
    out = checks.run_derive("canonical-smatrix", [DOCS["nilpotent_dendriform"]])
    assert [d.kind for d in out] == ["hom_pre_lie", "tensor2"]
    assert out[0].value.dim == 4


def test_derive_round_trips_through_documents():
    for construction, picks in (
            ("coadjoint", ["nilpotent_algebra"]),
            ("coboundary-rep", ["nilpotent_algebra"]),
            ("dual-rep", ["nilpotent_regular"]),
            ("semidirect", ["nilpotent_regular"]),
            ("double-lie", ["nilpotent_lie_pair"]),
            ("double-pre-lie", ["nilpotent_coadjoint_pair"]),
            ("standard-manin", ["nilpotent_algebra", "zero_dual"]),
            ("dual-product", ["nilpotent_algebra", "free_square"]),
            ("coboundary-cocycle", ["nilpotent_algebra", "nilpotent_smatrix"]),
    ):
        docs = []
        for pick in picks:
            if pick == "zero_dual":
                docs.append(document_for(fixtures.zero_dual_partner(
                    fixtures.nilpotent_algebra())))
            elif pick == "free_square":
                docs.append(tensor_doc({(0, 0): 1}))
            else:
                docs.append(DOCS[pick])
        out = checks.run_derive(construction, docs)
        text = serialize_documents(out)
        back = parse_documents(text)
        assert [d.kind for d in back] == [d.kind for d in out], construction
        assert [d.value for d in back] == [d.value for d in out], construction


HOLDING_CASES = (
    ("bialgebra-tri-equiv", ("nilpotent_algebra", "zero_dual")),
    ("canonical-smatrix", ("nilpotent_dendriform",)),
    ("dendriform-reps", ("nilpotent_dendriform",)),
    ("double-lie-equiv", ("nilpotent_lie_pair",)),
    ("double-pre-lie-equiv", ("nilpotent_coadjoint_pair",)),
    ("hessian-dendriform", ("nilpotent_algebra", "nilpotent_hessian_form")),
    ("invertible-o", ("mixed_action_operator",)),
    ("manin-standardize", ("nilpotent_manin",)),
    ("matched-equiv", ("nilpotent_algebra", "zero_dual")),
    ("o-to-dendriform", ("mixed_action_operator",)),
    ("p-condition", ("nilpotent_algebra", "smatrix_11")),
    ("s-identity", ("nilpotent_algebra", "nilpotent_smatrix")),
    ("semidirect-smatrix", ("mixed_action_operator",)),
    ("smatrix-ooperator", ("nilpotent_algebra", "smatrix_11")),
    ("triangular", ("nilpotent_algebra", "nilpotent_smatrix")),
)


def _resolve(picks):
    docs = []
    for pick in picks:
        if pick == "zero_dual":
            docs.append(document_for(fixtures.zero_dual_partner(
                fixtures.nilpotent_algebra())))
        elif pick == "smatrix_11":
            docs.append(tensor_doc({(0, 0): 1}))
        else:
            docs.append(DOCS[pick])
    return docs


def test_every_check_slug_holds_on_its_fixture():
    assert {name for name, _ in HOLDING_CASES} == set(checks.CHECKS)
    for slug, picks in HOLDING_CASES:
        result = checks.run_check(slug, _resolve(picks))
        assert result.exit_code == 0, slug
        assert result.report.valid, slug


def test_s_identity_requires_twist_compatibility():
    from hombench import Pro1Violation
    with pytest.raises(Pro1Violation):
        checks.run_check("s-identity",
                         [DOCS["scaling_algebra"], tensor_doc({(1, 1): 1})])


def test_p_condition_names_an_induced_dual_product_that_is_not_pre_lie():
    with pytest.raises(InvalidInput, match="^the dual product induced by r is not twisted pre-Lie$"):
        checks.run_check("p-condition", [DOCS["invalid_product_candidate"], DOCS["nilpotent_smatrix"]])


def test_triangular_check_requires_a_solution():
    from hombench import NotAnSMatrix
    with pytest.raises(NotAnSMatrix):
        checks.run_check("triangular",
                         [DOCS["nilpotent_algebra"], tensor_doc({(0, 0): 1})])


def test_unknown_slug_and_construction():
    with pytest.raises(UnknownSlug):
        checks.run_check("bogus", [])
    with pytest.raises(UnknownSlug):
        checks.run_derive("bogus", [])


def test_arity_and_kind_mismatch():
    with pytest.raises(InvalidInput):
        checks.run_check("s-identity", [DOCS["nilpotent_algebra"]])
    with pytest.raises(InvalidInput):
        checks.run_derive("sub-adjacent",
                          [DOCS["nilpotent_algebra"], DOCS["nilpotent_smatrix"]])
    with pytest.raises(InvalidInput):
        checks.run_check("s-identity",
                         [DOCS["nilpotent_smatrix"], DOCS["nilpotent_algebra"]])


def test_explanations_cover_both_registries():
    covered = set(checks.EXPLANATIONS)
    assert set(checks.CHECKS) <= covered
    for slug in checks.CHECKS:
        text = checks.EXPLANATIONS[slug]
        assert len(text) > 40
