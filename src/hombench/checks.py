"""Validator dispatch, named constructions, and the theorem-check registry.

CONSTRUCTIONS and CHECKS hold one row per name: the kinds of the documents
it takes, in order, and the call on their parsed values. run_derive and
run_check match the documents against the kinds and call the row once. A
construction's call returns one value, or a tuple of values (a builder's
namedtuple) for several documents; a check's call returns the report whose
verdict sets the exit code. Only the composite checks are functions here.
Every row names its library functions in a body that runs at call time, so
a rebinding of this module's globals (as the bench tracer does) reaches it.
"""

from collections import namedtuple

from .errors import InvalidInput, UnsupportedKind, UnknownSlug, UsageError
from .algebras import (Failure, ValidationReport, agreement_report, check_morphism,
                       combine_reports, sub_adjacent, validate_hom_lie, validate_hom_pre_lie,
                       _record)
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

Result = namedtuple("Result", ["report", "exit_code"])

_VALIDATORS = {
    "hom_lie": validate_hom_lie,
    "hom_pre_lie": validate_hom_pre_lie,
    "matched_pair_lie": validate_matched_pair_lie,
    "matched_pair_pre_lie": validate_matched_pair_pre_lie,
    "dendriform": validate_l_dendriform,
    "bialgebra": validate_bialgebra,
    "manin_triple": validate_manin_triple,
    "o_operator": validate_o_operator,
    "representation": lambda rep: (validate_lie_rep(rep) if isinstance(rep, HomLieRep)
                                   else validate_pre_lie_rep(rep)),
}


def _result(report):
    return Result(report, 0 if report.valid else 1)


def run_validate(doc):
    """Validate one document; exit code 0 when every identity holds."""
    if doc.kind not in _VALIDATORS:
        raise UnsupportedKind("%s documents validate only in context" % doc.kind)
    return _result(_VALIDATORS[doc.kind](doc.value))


def _expect(docs, kinds, name):
    if len(docs) != len(kinds):
        raise UsageError("%s takes %d document(s), got %d" % (name, len(kinds), len(docs)))
    values = []
    for doc, kind in zip(docs, kinds):
        if doc.kind != kind:
            raise UsageError("%s expects a %s document, got %s" % (name, kind, doc.kind))
        values.append(doc.value)
    return values


def _pre_lie_rep(rep, name):
    """The (algebra, representation) arguments of a pre-Lie-side construction."""
    if isinstance(rep, HomLieRep):
        raise UsageError("%s takes a pre-Lie representation" % name)
    return rep.algebra, rep


_PRE_LIE = ("hom_pre_lie",)
_PAIR = ("hom_pre_lie", "hom_pre_lie")
_WITH_R = ("hom_pre_lie", "tensor2")
_WITH_FORM = ("hom_pre_lie", "bilinear_form")

CONSTRUCTIONS = {
    "sub-adjacent": (_PRE_LIE, lambda a: sub_adjacent(a)),
    "dual-rep": (("representation",),
                 lambda rep: dual_pre_lie_rep(*_pre_lie_rep(rep, "dual-rep"))),
    "coadjoint": (_PRE_LIE, lambda a: coadjoint_pre_lie_rep(a)),
    "coboundary-rep": (_PRE_LIE, lambda a: coboundary_rep(a)),
    "double-lie": (("matched_pair_lie",), lambda mp: double_lie(mp)),
    "double-pre-lie": (("matched_pair_pre_lie",), lambda mp: double_pre_lie(mp)),
    "standard-manin": (_PAIR, lambda a, adual: standard_manin_triple(a, adual)),
    "standardize-manin": (("manin_triple",), lambda mt: standardize_manin_triple(mt)),
    "coboundary-cocycle": (_WITH_R, lambda a, r: coboundary_cocycle(a, r)),
    "dual-product": (_WITH_R, lambda a, r: dual_product_from_r(a, r)),
    "triangular-bialgebra": (_WITH_R, lambda a, r: triangular_bialgebra(a, r)),
    "dendriform-from-hessian": (_WITH_FORM, lambda a, b: dendriform_from_hessian(a, b)),
    "semidirect": (("representation",),
                   lambda rep: semidirect_pre_lie(*_pre_lie_rep(rep, "semidirect"))),
    "semidirect-smatrix": (("o_operator",),
                           lambda o: semidirect_smatrix(o.algebra, o.rep, o.matrix)[:2]),
    "canonical-smatrix": (("dendriform",), lambda d: canonical_smatrix(d)),
}


def run_derive(construction, docs):
    """Apply a named construction to parsed documents; returns result documents."""
    if construction not in CONSTRUCTIONS:
        raise UnknownSlug("unknown construction %r" % (construction,))
    kinds, call = CONSTRUCTIONS[construction]
    built = call(*_expect(docs, kinds, construction))
    return [document_for(value) for value in (built if isinstance(built, tuple) else (built,))]


def _reports_agreement(reports):
    """Agreement of named reports: their verdicts at the top of the details and
    the reports themselves under "reports"."""
    return agreement_report({name: report.valid for name, report in reports.items()},
                            {"reports": reports})


def _manin_standardize(mt):
    built = standardize_manin_triple(mt)
    named = [
        ("standard", validate_manin_triple(built.standard)),
        ("iso", check_morphism(built.iso, mt.total, built.standard.total)),
    ]
    # The form component cannot fail: standardize_manin_triple raises unless
    # validate_manin_triple passes, and then iso^T S iso is the form on every
    # pair (the pairing across the slots, 0 within a slot by isotropy). It is
    # kept because the report's bytes are part of the pinned --json output.
    iso = built.iso
    mapped = (iso.transpose() @ built.standard.form.matrix @ iso).entries
    form = mt.form.matrix.entries
    failures = []
    n = mt.total.dim
    for i in range(n):
        for j in range(i + 1, n):
            _record(failures, "isometry", (i, j), (mapped[i][j] - form[i][j],))
    named.append(("form", ValidationReport(failures)))
    return combine_reports(named)


def _p_condition(a, r):
    dual = dual_product_from_r(a, r)
    p_report = check_P_condition(a, r)
    try:
        rep = coboundary_rep(dual)
    except InvalidInput:
        raise InvalidInput("the dual product induced by r is not twisted pre-Lie") from None
    cocycle_report = check_one_cocycle(rep, dualize_product(a))
    return _reports_agreement({"p_condition": p_report, "cocycle": cocycle_report})


def _o_to_dendriform(o):
    built = dendriform_from_o_operator(o)
    named = [
        ("space", validate_l_dendriform(built.on_space)),
        ("image", validate_l_dendriform(built.on_image)),
    ]
    if named[0][1].valid:
        named.append(("operator-morphism",
                      check_morphism(o.matrix, vertical(built.on_space), o.algebra)))
    return combine_reports(named)


def _vertical_recovers(d, product):
    """The dendriform structure's report and whether its vertical product is the given one."""
    named = [("dendriform", validate_l_dendriform(d))]
    diff = _vertical_table(d) - product
    failures = [Failure("vertical-recovers", index, (c,)) for index, c in diff.nonzero_items()]
    named.append(("vertical", ValidationReport(failures)))
    return combine_reports(named)


def _canonical_smatrix(d):
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
    "double-lie-equiv": (("matched_pair_lie",), lambda mp: _reports_agreement(
        {"matched_pair": validate_matched_pair_lie(mp), "double": validate_hom_lie(double_lie(mp))})),
    "double-pre-lie-equiv": (("matched_pair_pre_lie",), lambda mp: _reports_agreement(
        {"matched_pair": validate_matched_pair_pre_lie(mp),
         "double": validate_hom_pre_lie(double_pre_lie(mp))})),
    "matched-equiv": (_PAIR, lambda a, adual: check_pre_lie_matched_equiv(a, adual)),
    "manin-standardize": (("manin_triple",), _manin_standardize),
    "bialgebra-tri-equiv": (_PAIR, lambda a, adual: check_equivalence_theorem(a, adual)),
    "s-identity": (_WITH_R, lambda a, r: check_pro3(a, r)),
    "p-condition": (_WITH_R, _p_condition),
    "triangular": (_WITH_R, lambda a, r: validate_bialgebra(triangular_bialgebra(a, r))),
    "smatrix-ooperator": (_WITH_R, lambda a, r: check_smatrix_ooperator_equiv(a, r)),
    "dendriform-reps": (("dendriform",), lambda d: dendriform_rep_check(d)),
    "o-to-dendriform": (("o_operator",), _o_to_dendriform),
    "invertible-o": (("o_operator",), lambda o: _vertical_recovers(
        compatible_dendriform_from_invertible(o), o.algebra.product)),
    "hessian-dendriform": (_WITH_FORM, lambda a, b: _vertical_recovers(
        dendriform_from_hessian(a, b), a.product)),
    "semidirect-smatrix": (("o_operator",),
                           lambda o: semidirect_smatrix(o.algebra, o.rep, o.matrix).verdict),
    "canonical-smatrix": (("dendriform",), _canonical_smatrix),
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
        "twists, and the form. The form component holds on every valid input: the "
        "standardization exists only once the triple validates, and then the "
        "isomorphism carries the given form to the canonical pairing by construction."),
    "bialgebra-tri-equiv": (
        "For an algebra and a compatible structure on its dual space, three "
        "conditions agree: the cocycle bialgebra conditions, the coadjoint matched "
        "pair conditions, and validity of the standard quadratic double."),
    "s-identity": (
        "For a symmetric tensor satisfying the twist compatibility condition, the "
        "residual r#(a*(x)) . r#(a*(y)) - r#(a*(x o y)) equals the contraction of "
        "the cubic bracket expression against the twisted dual pair (x, y). This is "
        "an identity: it holds for every tensor meeting the twist compatibility "
        "condition over a valid twisted pre-Lie algebra, so the check can fail only "
        "when the algebra is not valid."),
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
    kinds, call = CHECKS[slug]
    return _result(call(*_expect(docs, kinds, slug)))
