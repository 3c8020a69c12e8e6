"""Validator dispatch, named constructions, and the theorem-check registry."""

from collections import namedtuple

from .errors import InvalidInput, UnsupportedKind, UnknownSlug
from .foundation import basis_vector
from .algebras import (Failure, ValidationReport, agreement_report, check_morphism,
                       combine_reports, sub_adjacent, validate_hom_lie, validate_hom_pre_lie)
from .representations import (HomLieRep, check_one_cocycle, coadjoint_pre_lie_rep,
                              coboundary_rep, dual_pre_lie_rep, semidirect_pre_lie,
                              validate_lie_rep, validate_pre_lie_rep)
from .matched import (check_pre_lie_matched_equiv, double_lie, double_pre_lie,
                      standard_manin_triple, standardize_manin_triple,
                      validate_manin_triple, validate_matched_pair_lie,
                      validate_matched_pair_pre_lie)
from .bialgebras import (check_P_condition, check_equivalence_theorem, check_pro1,
                         check_pro3, coboundary_cocycle, dual_product_from_r,
                         dualize_product, hom_s_bracket, triangular_bialgebra,
                         validate_bialgebra)
from .dendriform import (_vertical_table, canonical_smatrix,
                         check_smatrix_ooperator_equiv,
                         compatible_dendriform_from_invertible,
                         dendriform_from_hessian, dendriform_from_o_operator,
                         dendriform_rep_check, semidirect_smatrix,
                         validate_l_dendriform, validate_o_operator, vertical)
from .documents import document_for

ValidateResult = namedtuple("ValidateResult", ["report", "exit_code"])
CheckResult = namedtuple("CheckResult", ["report", "exit_code"])

_VALIDATORS = {
    "hom_lie": validate_hom_lie,
    "hom_pre_lie": validate_hom_pre_lie,
    "matched_pair_lie": validate_matched_pair_lie,
    "matched_pair_pre_lie": validate_matched_pair_pre_lie,
    "dendriform": validate_l_dendriform,
    "bialgebra": validate_bialgebra,
    "manin_triple": validate_manin_triple,
    "o_operator": validate_o_operator,
}


def run_validate(doc):
    """Validate one document; exit code 0 when every identity holds."""
    if doc.kind == "representation":
        value = doc.value
        report = (validate_lie_rep(value) if isinstance(value, HomLieRep)
                  else validate_pre_lie_rep(value))
    elif doc.kind in _VALIDATORS:
        report = _VALIDATORS[doc.kind](doc.value)
    else:
        raise UnsupportedKind("%s documents validate only in context" % doc.kind)
    return ValidateResult(report, 0 if report.valid else 1)


def _expect(docs, kinds, name):
    if len(docs) != len(kinds):
        raise InvalidInput("%s takes %d document(s), got %d" % (name, len(kinds), len(docs)))
    values = []
    for doc, kind in zip(docs, kinds):
        if doc.kind != kind:
            raise InvalidInput("%s expects a %s document, got %s" % (name, kind, doc.kind))
        values.append(doc.value)
    return values


def _derive_sub_adjacent(docs):
    (a,) = _expect(docs, ("hom_pre_lie",), "sub-adjacent")
    return [document_for(sub_adjacent(a))]


def _derive_dual_rep(docs):
    (rep,) = _expect(docs, ("representation",), "dual-rep")
    if isinstance(rep, HomLieRep):
        raise InvalidInput("dual-rep takes a pre-Lie representation")
    return [document_for(dual_pre_lie_rep(rep.algebra, rep))]


def _derive_coadjoint(docs):
    (a,) = _expect(docs, ("hom_pre_lie",), "coadjoint")
    return [document_for(coadjoint_pre_lie_rep(a))]


def _derive_coboundary_rep(docs):
    (a,) = _expect(docs, ("hom_pre_lie",), "coboundary-rep")
    return [document_for(coboundary_rep(a))]


def _derive_double_lie(docs):
    (mp,) = _expect(docs, ("matched_pair_lie",), "double-lie")
    return [document_for(double_lie(mp))]


def _derive_double_pre_lie(docs):
    (mp,) = _expect(docs, ("matched_pair_pre_lie",), "double-pre-lie")
    return [document_for(double_pre_lie(mp))]


def _derive_standard_manin(docs):
    a, adual = _expect(docs, ("hom_pre_lie", "hom_pre_lie"), "standard-manin")
    return [document_for(standard_manin_triple(a, adual))]


def _derive_standardize_manin(docs):
    (mt,) = _expect(docs, ("manin_triple",), "standardize-manin")
    built = standardize_manin_triple(mt)
    return [document_for(built.iso), document_for(built.standard)]


def _derive_coboundary_cocycle(docs):
    a, r = _expect(docs, ("hom_pre_lie", "tensor2"), "coboundary-cocycle")
    return [document_for(coboundary_cocycle(a, r))]


def _derive_dual_product(docs):
    a, r = _expect(docs, ("hom_pre_lie", "tensor2"), "dual-product")
    return [document_for(dual_product_from_r(a, r))]


def _derive_triangular(docs):
    a, r = _expect(docs, ("hom_pre_lie", "tensor2"), "triangular-bialgebra")
    return [document_for(triangular_bialgebra(a, r))]


def _derive_dendriform_from_hessian(docs):
    a, b = _expect(docs, ("hom_pre_lie", "bilinear_form"), "dendriform-from-hessian")
    return [document_for(dendriform_from_hessian(a, b))]


def _derive_semidirect(docs):
    (rep,) = _expect(docs, ("representation",), "semidirect")
    if isinstance(rep, HomLieRep):
        raise InvalidInput("semidirect takes a pre-Lie representation")
    return [document_for(semidirect_pre_lie(rep.algebra, rep))]


def _derive_semidirect_smatrix(docs):
    (o,) = _expect(docs, ("o_operator",), "semidirect-smatrix")
    built = semidirect_smatrix(o.algebra, o.rep, o.matrix)
    return [document_for(built.algebra), document_for(built.tensor)]


def _derive_canonical_smatrix(docs):
    (d,) = _expect(docs, ("dendriform",), "canonical-smatrix")
    built = canonical_smatrix(d)
    return [document_for(built.algebra), document_for(built.tensor)]


CONSTRUCTIONS = {
    "sub-adjacent": _derive_sub_adjacent,
    "dual-rep": _derive_dual_rep,
    "coadjoint": _derive_coadjoint,
    "coboundary-rep": _derive_coboundary_rep,
    "double-lie": _derive_double_lie,
    "double-pre-lie": _derive_double_pre_lie,
    "standard-manin": _derive_standard_manin,
    "standardize-manin": _derive_standardize_manin,
    "coboundary-cocycle": _derive_coboundary_cocycle,
    "dual-product": _derive_dual_product,
    "triangular-bialgebra": _derive_triangular,
    "dendriform-from-hessian": _derive_dendriform_from_hessian,
    "semidirect": _derive_semidirect,
    "semidirect-smatrix": _derive_semidirect_smatrix,
    "canonical-smatrix": _derive_canonical_smatrix,
}


def run_derive(construction, docs):
    """Apply a named construction to parsed documents; returns result documents."""
    if construction not in CONSTRUCTIONS:
        raise UnknownSlug("unknown construction %r" % (construction,))
    return CONSTRUCTIONS[construction](docs)


def _reports_agreement(reports):
    """Agreement of named reports: their verdicts at the top of the details and
    the reports themselves under "reports"."""
    return agreement_report({name: report.valid for name, report in reports.items()},
                            {"reports": reports})


def _check_double(docs, kind, slug, validate_pair, build_double, validate_double):
    (mp,) = _expect(docs, (kind,), slug)
    return _reports_agreement({"matched_pair": validate_pair(mp),
                               "double": validate_double(build_double(mp))})


def _check_double_lie(docs):
    return _check_double(docs, "matched_pair_lie", "double-lie-equiv",
                         validate_matched_pair_lie, double_lie, validate_hom_lie)


def _check_double_pre_lie(docs):
    return _check_double(docs, "matched_pair_pre_lie", "double-pre-lie-equiv",
                         validate_matched_pair_pre_lie, double_pre_lie, validate_hom_pre_lie)


def _check_matched_equiv(docs):
    a, adual = _expect(docs, ("hom_pre_lie", "hom_pre_lie"), "matched-equiv")
    return check_pre_lie_matched_equiv(a, adual)


def _check_manin_standardize(docs):
    (mt,) = _expect(docs, ("manin_triple",), "manin-standardize")
    built = standardize_manin_triple(mt)
    named = [
        ("standard", validate_manin_triple(built.standard)),
        ("iso", check_morphism(built.iso, mt.total, built.standard.total)),
    ]
    failures = []
    n = mt.total.dim
    for i in range(n):
        for j in range(i + 1, n):
            mapped = built.standard.form.apply(built.iso.apply(basis_vector(n, i)),
                                               built.iso.apply(basis_vector(n, j)))
            residual = mapped - mt.form.apply(basis_vector(n, i), basis_vector(n, j))
            if residual != 0:
                failures.append(Failure("isometry", (i, j), (residual,)))
    named.append(("form", ValidationReport(failures)))
    return combine_reports(named)


def _check_bialgebra_tri_equiv(docs):
    a, adual = _expect(docs, ("hom_pre_lie", "hom_pre_lie"), "bialgebra-tri-equiv")
    return check_equivalence_theorem(a, adual)


def _check_s_identity(docs):
    a, r = _expect(docs, ("hom_pre_lie", "tensor2"), "s-identity")
    return check_pro3(a, r)


def _check_p_condition(docs):
    a, r = _expect(docs, ("hom_pre_lie", "tensor2"), "p-condition")
    dual = dual_product_from_r(a, r)
    p_report = check_P_condition(a, r)
    cocycle_report = check_one_cocycle(sub_adjacent(dual), coboundary_rep(dual),
                                       dualize_product(a))
    return _reports_agreement({"p_condition": p_report, "cocycle": cocycle_report})


def _check_triangular(docs):
    a, r = _expect(docs, ("hom_pre_lie", "tensor2"), "triangular")
    return validate_bialgebra(triangular_bialgebra(a, r))


def _check_smatrix_ooperator(docs):
    a, r = _expect(docs, ("hom_pre_lie", "tensor2"), "smatrix-ooperator")
    return check_smatrix_ooperator_equiv(a, r)


def _check_dendriform_reps(docs):
    (d,) = _expect(docs, ("dendriform",), "dendriform-reps")
    return dendriform_rep_check(d)


def _check_o_to_dendriform(docs):
    (o,) = _expect(docs, ("o_operator",), "o-to-dendriform")
    built = dendriform_from_o_operator(o)
    named = [
        ("space", validate_l_dendriform(built.on_space)),
        ("image", validate_l_dendriform(built.on_image)),
    ]
    if named[0][1].valid:
        named.append(("operator-morphism",
                      check_morphism(o.matrix, vertical(built.on_space), o.algebra)))
    return combine_reports(named)


def _tensor_match_failures(identity, produced, wanted):
    diff = produced - wanted
    return [Failure(identity, index, (c,)) for index, c in diff.nonzero_items()]


def _check_invertible_o(docs):
    (o,) = _expect(docs, ("o_operator",), "invertible-o")
    d = compatible_dendriform_from_invertible(o)
    named = [("dendriform", validate_l_dendriform(d))]
    named.append(("vertical", ValidationReport(
        _tensor_match_failures("vertical-recovers", _vertical_table(d), o.algebra.product))))
    return combine_reports(named)


def _check_hessian_dendriform(docs):
    a, b = _expect(docs, ("hom_pre_lie", "bilinear_form"), "hessian-dendriform")
    d = dendriform_from_hessian(a, b)
    named = [("dendriform", validate_l_dendriform(d))]
    named.append(("vertical", ValidationReport(
        _tensor_match_failures("vertical-recovers", _vertical_table(d), a.product))))
    return combine_reports(named)


def _check_semidirect_smatrix(docs):
    (o,) = _expect(docs, ("o_operator",), "semidirect-smatrix")
    return semidirect_smatrix(o.algebra, o.rep, o.matrix).verdict


def _check_canonical_smatrix(docs):
    (d,) = _expect(docs, ("dendriform",), "canonical-smatrix")
    built = canonical_smatrix(d)
    ambient = validate_hom_pre_lie(built.algebra)
    failures = []
    if ambient.valid:
        if not check_pro1(built.algebra, built.tensor):
            failures.append(Failure("twist-compatibility", (), ()))
        for index, c in hom_s_bracket(built.algebra, built.tensor).nonzero_items():
            failures.append(Failure("bracket-vanishes", index, (c,)))
    named = [("ambient", ambient), ("solution", ValidationReport(failures))]
    return combine_reports(named)


CHECKS = {
    "double-lie-equiv": _check_double_lie,
    "double-pre-lie-equiv": _check_double_pre_lie,
    "matched-equiv": _check_matched_equiv,
    "manin-standardize": _check_manin_standardize,
    "bialgebra-tri-equiv": _check_bialgebra_tri_equiv,
    "s-identity": _check_s_identity,
    "p-condition": _check_p_condition,
    "triangular": _check_triangular,
    "smatrix-ooperator": _check_smatrix_ooperator,
    "dendriform-reps": _check_dendriform_reps,
    "o-to-dendriform": _check_o_to_dendriform,
    "invertible-o": _check_invertible_o,
    "hessian-dendriform": _check_hessian_dendriform,
    "semidirect-smatrix": _check_semidirect_smatrix,
    "canonical-smatrix": _check_canonical_smatrix,
}

EXPLANATIONS = {
    "double-lie-equiv": (
        "The direct sum bracket built from two twisted Lie algebras acting on each "
        "other satisfies the twisted Jacobi identity exactly when the two actions "
        "form a matched pair. The checker validates both sides and compares verdicts."),
    "double-pre-lie-equiv": (
        "The direct sum product built from two twisted pre-Lie algebras acting on "
        "each other is again twisted pre-Lie exactly when the four cross conditions "
        "of a matched pair hold. The checker validates both sides and compares verdicts."),
    "matched-equiv": (
        "An algebra and a dual-twisted partner form a pre-Lie matched pair through "
        "the coadjoint star actions exactly when their commutator algebras form a "
        "Lie matched pair through the dual left-multiplication actions."),
    "manin-standardize": (
        "Every valid even-split quadratic double is isomorphic to a standard one "
        "built on algebra-plus-dual with the canonical pairing form. The checker "
        "builds the standardization and verifies the isomorphism preserves products, "
        "twists, and the form."),
    "bialgebra-tri-equiv": (
        "For an algebra and a compatible structure on its dual space, three "
        "conditions agree: the cocycle bialgebra conditions, the coadjoint matched "
        "pair conditions, and validity of the standard quadratic double."),
    "s-identity": (
        "For a symmetric tensor satisfying the twist compatibility condition, the "
        "residual r#(a*(x)) . r#(a*(y)) - r#(a*(x o y)) equals the contraction of "
        "the cubic bracket expression against the twisted dual pair (x, y)."),
    "p-condition": (
        "Given the induced dual product, the dualized primal product is a "
        "one-cocycle for the dual coboundary representation exactly when the "
        "left-multiplication operator identity annihilates the skew part of r."),
    "triangular": (
        "A symmetric solution of the cubic bracket equation induces a dual product "
        "whose pairing with the original algebra is a valid bialgebra."),
    "smatrix-ooperator": (
        "A symmetric tensor is a solution exactly when its sharp map composed with "
        "the inverse dual twist is a relative operator for the coadjoint actions."),
    "dendriform-reps": (
        "The left-product action paired with right-product right multiplication "
        "represents the sum algebra, and paired with the negated right-product left "
        "multiplication represents the difference algebra."),
    "o-to-dendriform": (
        "A relative operator splits its representation space into a dendriform "
        "structure via twisted-preimage actions, the operator image inherits one, "
        "and the operator is a morphism from the difference algebra to the target."),
    "invertible-o": (
        "An invertible relative operator induces a dendriform splitting whose "
        "difference product recovers the original algebra exactly."),
    "hessian-dendriform": (
        "A nondegenerate cocycle-symmetric form splits the product into a "
        "dendriform structure determined by two pairing identities, and the "
        "difference product recovers the original algebra."),
    "semidirect-smatrix": (
        "An intertwining map into the algebra, symmetrized on algebra-plus-dual "
        "over the induced dual actions, is a solution exactly when the map composed "
        "with the space twist is a relative operator."),
    "canonical-smatrix": (
        "The identity map on a dendriform structure, viewed over the difference "
        "algebra with the mixed action pair, produces a symmetric solution of the "
        "cubic bracket equation on algebra-plus-dual."),
}


def run_check(slug, docs):
    """Run one registered theorem checker; exit 0 iff the asserted statement holds."""
    if slug not in CHECKS:
        raise UnknownSlug("unknown check %r" % (slug,))
    report = CHECKS[slug](docs)
    return CheckResult(report, 0 if report.valid else 1)
