"""Reports of the double side, of the form, representation, s-matrix and Manin
checks, and the tables of the Hom-s bracket and the hessian splitting, on
rational data, pinned so that a rewrite of the scalar kernels cannot change
them: verdicts, identity names, witnesses and residuals, in order.

The input is the one of test_pinned_validators at lambda = 1/2: the truncated
Novikov algebra x^i o x^j = j x^(i+j) on x^1..x^4, Yau-twisted by
alpha = diag(2^-i) and moved to the basis x' = P x by a P whose inverse has
thirds, so every twist and table below holds proper fractions. Its partner is
the zero product on the dual space with the inverse-transpose twist.
check_equivalence_theorem carries the pre-Lie matched-pair report in its
details. The hessian form is a symmetric form pulled back along P^-1, and the
morphism is the twist itself, an endomorphism of both the algebra and its
commutator Hom-Lie algebra. Every checker also runs on one-entry bumps of its
form, product or map, so that nonzero rational residuals are pinned as well.
The expected values live in pinned_rational.json. The double-side, form and
representation cases were recorded from the implementation that summed every
product in Fraction arithmetic; the hessian and morphism cases from the one that
built each residual as a vector of exact scalars before testing it for zero; the
s-matrix, Manin and hessian-splitting cases from the one that expanded the
bracket over pairs of tensor entries and applied the form one basis pair at a
time.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from hombench import (BilinearForm, HomLieAlgebra, HomPreLieAlgebra, HomPreLieRep, LinearMap,
                      ManinTriple, Tensor2, Tensor3, apply_bilinear, check_equivalence_theorem,
                      check_morphism, check_P_condition, check_pro1, check_pro3,
                      coadjoint_lie_matched_pair, coadjoint_pre_lie_rep, dendriform_from_hessian,
                      document_for, hom_s_bracket, serialize_documents, standard_manin_triple,
                      validate_hessian, validate_manin_triple, validate_matched_pair_lie,
                      validate_pre_lie_rep, validate_quadratic)
from hombench.fixtures import nilpotent_algebra, nilpotent_hessian_form, zero_dual_partner

from test_pinned_actions import bump_family, bump_map, bump_table, bump_tensor2
from test_pinned_validators import P, twisted_novikov

HALF = Fraction(1, 2)
PINNED = Path(__file__).with_name("pinned_rational.json")


def algebra():
    return twisted_novikov(HALF)


def partner():
    return zero_dual_partner(algebra())


def bumped_partner():
    d = partner()
    return HomPreLieAlgebra(bump_table(d.product, (0, 1, 2), Fraction(-2, 3)), d.twist)


def skew_form():
    """The standard symplectic form pulled back along P, which has thirds in its inverse."""
    j = LinearMap(((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0)))
    return BilinearForm((P.transpose() @ j @ P).entries, "skew")


def bumped_skew_form():
    rows = [list(row) for row in skew_form().matrix.entries]
    rows[0][2] += HALF
    rows[2][0] -= HALF
    return BilinearForm(rows, "skew")


def bumped_algebra():
    a = algebra()
    return HomPreLieAlgebra(bump_table(a.product, (0, 1, 2), Fraction(-2, 3)), a.twist)


def hessian_form():
    """A symmetric form pulled back along the inverse of P, so that it has thirds."""
    s = LinearMap(((0, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 0), (1, 1, 0, 0)))
    p_inv = P.inverse()
    return BilinearForm((p_inv.transpose() @ s @ p_inv).entries, "symmetric")


def bumped_hessian_form():
    rows = [list(row) for row in hessian_form().matrix.entries]
    rows[1][3] += HALF
    rows[3][1] += HALF
    return BilinearForm(rows, "symmetric")


def _hessian_cases():
    return {"form": (algebra(), hessian_form()),
            "form-bump": (algebra(), bumped_hessian_form()),
            "product-bump": (bumped_algebra(), hessian_form())}


def _morphism_cases():
    a = algebra()
    lie = HomLieAlgebra(a.commutator_tensor(), a.twist)
    bumped_map = bump_map(a.twist, 1, 2, HALF)
    return {"twist": (a.twist, a, a),
            "map-bump": (bumped_map, a, a),
            "product-bump": (a.twist, a, bumped_algebra()),
            "lie-twist": (a.twist, lie, lie),
            "lie-map-bump": (bumped_map, lie, lie)}


def _pre_lie_reps():
    a = algebra()
    rep = coadjoint_pre_lie_rep(a)
    return {"coadjoint": rep,
            "coadjoint-left-bump": HomPreLieRep(a, 4, rep.twist, bump_family(rep.left, 2, 0, 1, HALF),
                                                rep.right)}


def symmetric_tensor():
    """A dense symmetric tensor with thirds; it intertwines no twist of algebra()."""
    return Tensor2(((1, 0, Fraction(1, 3), 2), (0, -1, 1, 0), (Fraction(1, 3), 1, 0, HALF), (2, 0, HALF, 3)))


def intertwining_tensor(entries):
    """The tensor with the given {(i, j): c} entries in the Novikov basis, moved
    to the basis x' = P x; it intertwines the lambda = -1 twist when every i + j
    is even."""
    r = LinearMap(Tensor2.from_entries(4, 4, entries).entries)
    return Tensor2((P @ r @ P.transpose()).entries)


def _s_cases():
    """Inputs of hom_s_bracket and check_P_condition: tensors that solve nothing
    on the rational lambda = 1/2 algebra, with one-entry bumps of the tensor,
    the product and the twist, and intertwining non-solutions (symmetric and
    not) of the lambda = -1 algebra in the same basis."""
    a = algebra()
    r = symmetric_tensor()
    minus = twisted_novikov(-1)
    return {"symmetric": (a, r),
            "zero": (a, Tensor2.zero(4, 4)),
            "tensor-bump": (a, bump_tensor2(r, 1, 3, Fraction(-2, 3))),
            "product-bump": (bumped_algebra(), r),
            "twist-bump": (HomPreLieAlgebra(a.product, bump_map(a.twist, 2, 0, HALF)), r),
            "intertwining": (minus, intertwining_tensor({(0, 0): Fraction(1, 3), (1, 3): HALF,
                                                         (3, 1): HALF, (2, 2): -1})),
            "intertwining-skew": (minus, intertwining_tensor({(0, 2): 1, (2, 0): Fraction(-1, 3),
                                                              (1, 1): 2}))}


def _pro3_cases():
    return {name: args for name, args in _s_cases().items() if check_pro1(*args)}


def _table_lines(t):
    return ["%d %d %d %s" % (i, j, k, c) for (i, j, k), c in t.nonzero_items()]


def transported(a, b, q):
    """(a, b) moved to the basis x' = Q x."""
    n = a.dim
    q_inv = q.inverse()
    product = Tensor3.from_slices(n, n, n, lambda i, j: q.apply(
        apply_bilinear(a.product, q_inv.column(i), q_inv.column(j))))
    return (HomPreLieAlgebra(product, q @ a.twist @ q_inv),
            BilinearForm((q_inv.transpose() @ LinearMap(b.matrix.entries) @ q_inv).entries, b.symmetry))


def _hessian_pairs():
    """The fixture pair, whose product is commutative, and the pair
    e1 e1 = -e1, e1 e2 = e2 with b = ((-1, -1), (-1, 0)), whose is not, each
    also moved to a basis with thirds and halves."""
    q = LinearMap(((1, HALF), (Fraction(-1, 3), 2)))
    fixture = (nilpotent_algebra(), nilpotent_hessian_form())
    skew = (HomPreLieAlgebra(Tensor3.from_entries((2, 2, 2), {(0, 0, 0): -1, (0, 1, 1): 1}),
                             LinearMap.identity(2)),
            BilinearForm(((-1, -1), (-1, 0)), "symmetric"))
    return {"fixture": fixture, "rational-basis": transported(*fixture, q),
            "noncommutative": skew, "noncommutative-rational-basis": transported(*skew, q)}


def _manin_triples():
    """The standard triple of algebra() and its zero partner, with the form
    bumped inside each isotropic slot and the twist bumped off its blocks."""
    mt = standard_manin_triple(algebra(), partner())

    def with_form(i, j, c):
        rows = [list(row) for row in mt.form.matrix.entries]
        rows[i][j] += c
        rows[j][i] -= c
        return ManinTriple(mt.total, BilinearForm(rows, "skew"), 4, 4)

    total = mt.total
    return {"standard": mt,
            "first-form-bump": with_form(0, 2, Fraction(1, 3)),
            "second-form-bump": with_form(5, 7, Fraction(-3, 2)),
            "twist-bump": ManinTriple(HomPreLieAlgebra(total.product, bump_map(total.twist, 1, 6, HALF)),
                                      mt.form, 4, 4)}


def cases():
    """Every pinned case: name -> a thunk giving its JSON-ready output."""
    pairs = {"zero-dual": (algebra(), partner()), "second-bump": (algebra(), bumped_partner())}
    out = {}
    for name, (a, d) in pairs.items():
        out["check_equivalence_theorem/" + name] = lambda a=a, d=d: check_equivalence_theorem(a, d).to_dict()
        out["validate_matched_pair_lie/" + name] = (
            lambda a=a, d=d: validate_matched_pair_lie(coadjoint_lie_matched_pair(a, d)).to_dict())
    for name, w in (("form", skew_form()), ("form-bump", bumped_skew_form())):
        out["validate_quadratic/" + name] = lambda w=w: validate_quadratic(algebra(), w).to_dict()
    for name, rep in _pre_lie_reps().items():
        out["validate_pre_lie_rep/" + name] = lambda rep=rep: validate_pre_lie_rep(rep).to_dict()
    for name, (a, b) in _hessian_cases().items():
        out["validate_hessian/" + name] = lambda a=a, b=b: validate_hessian(a, b).to_dict()
    for name, (f, src, dst) in _morphism_cases().items():
        out["check_morphism/" + name] = lambda f=f, src=src, dst=dst: check_morphism(f, src, dst).to_dict()
    for name, (a, r) in _s_cases().items():
        out["hom_s_bracket/" + name] = lambda a=a, r=r: _table_lines(hom_s_bracket(a, r))
        out["check_P_condition/" + name] = lambda a=a, r=r: check_P_condition(a, r).to_dict()
    for name, (a, r) in _pro3_cases().items():
        out["check_pro3/" + name] = lambda a=a, r=r: check_pro3(a, r).to_dict()
    for name, (a, b) in _hessian_pairs().items():
        out["dendriform_from_hessian/" + name] = (
            lambda a=a, b=b: serialize_documents([document_for(dendriform_from_hessian(a, b))]))
    for name, mt in _manin_triples().items():
        out["validate_manin_triple/" + name] = lambda mt=mt: validate_manin_triple(mt).to_dict()
    return out


CASES = cases()


def _pinned():
    with PINNED.open(encoding="utf-8") as f:
        return json.load(f)


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(_pinned())


def test_inputs_are_rational():
    for m in (algebra().twist, partner().twist, skew_form().sharp().inverse(), hessian_form().sharp()):
        assert any(isinstance(c, Fraction) for row in m.entries for c in row)
    assert any(isinstance(c, Fraction) for _, c in algebra().product.nonzero_items())


def test_pins_hold_nonzero_rational_residuals():
    residuals = [Fraction(c) for value in _pinned().values() if isinstance(value, dict)
                 for f in value["failures"] for c in f["residual"]]
    assert any(c.denominator > 1 for c in residuals)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_pinned(name):
    assert json.loads(json.dumps(CASES[name]())) == _pinned()[name]
