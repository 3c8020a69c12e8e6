"""Reports of the double side and of the form and representation checks on
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
built each residual as a vector of exact scalars before testing it for zero.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from hombench import (BilinearForm, HomLieAlgebra, HomPreLieAlgebra, HomPreLieRep, LinearMap,
                      check_equivalence_theorem, check_morphism, coadjoint_lie_matched_pair,
                      coadjoint_pre_lie_rep, validate_hessian, validate_matched_pair_lie,
                      validate_pre_lie_rep, validate_quadratic)
from hombench.fixtures import zero_dual_partner

from test_pinned_actions import bump_family, bump_map, bump_table
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
    residuals = [Fraction(c) for value in _pinned().values() for f in value["failures"]
                 for c in f["residual"]]
    assert any(c.denominator > 1 for c in residuals)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_pinned(name):
    assert json.loads(json.dumps(CASES[name]())) == _pinned()[name]
