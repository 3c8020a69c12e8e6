"""Reports and serialized outputs of every function that applies an action
family at a vector, pinned so that a rewrite of how actions are applied cannot
change them: verdicts, identity names, witnesses and residuals, in order, and
the bytes of the built representations.

The input is the one of test_pinned_constructions: the truncated Novikov
algebra x^i o x^j = j x^(i+j) on x^1..x^3, Yau-twisted by alpha = diag((-1)^i),
its commutator Hom-Lie algebra, the symmetric solution r = 2 e2 (x) e2 +
e3 (x) e3 and the dual product it induces. Every case also runs on one-entry
bumps of each table and each action family it reads. The expected values live
in pinned_actions.json and were recorded from the implementation that summed
action matrices per vector (representations.act and _combination).
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from hombench import (Bialgebra, HomLieAlgebra, HomLieRep, HomPreLieAlgebra, HomPreLieRep,
                      LieMatchedPair, LinearMap, OOperator, PreLieMatchedPair, Tensor2, Tensor3,
                      adjoint_rep, check_one_cocycle, check_P_condition, check_pro3,
                      coadjoint_lie_matched_pair, coadjoint_matched_pair, coadjoint_pre_lie_rep,
                      coboundary_rep, document_for, dual_product_from_r, serialize_documents,
                      shifted_rep, sub_adjacent, validate_lie_rep, validate_matched_pair_lie,
                      validate_matched_pair_pre_lie, validate_o_operator, validate_pre_lie_rep)
from hombench.fixtures import zero_dual_partner

from test_pinned_constructions import (invertible_operator, rank_deficient_operator, solution,
                                       twisted_novikov)

HALF = Fraction(1, 2)
PINNED = Path(__file__).with_name("pinned_actions.json")


def bump_table(t, index, c=1):
    entries = dict(t.nonzero_items())
    entries[index] = entries.get(index, 0) + c
    return Tensor3.from_entries(t.dims, entries)


def bump_map(m, i, j, c=1):
    rows = [list(row) for row in m.entries]
    rows[i][j] += c
    return LinearMap(rows, rows=m.rows, cols=m.cols)


def bump_family(maps, p, i, j, c=1):
    return tuple(bump_map(m, i, j, c) if q == p else m for q, m in enumerate(maps))


def bump_tensor2(r, i, j, c=1):
    entries = dict(r.nonzero_items())
    entries[(i, j)] = entries.get((i, j), 0) + c
    return Tensor2.from_entries(r.dim_left, r.dim_right, entries)


def _lie_reps():
    g = sub_adjacent(twisted_novikov())
    adjoint = adjoint_rep(g)
    bumped_g = HomLieAlgebra(bump_table(g.bracket, (0, 2, 1), HALF), g.twist)
    cob = coboundary_rep(twisted_novikov())
    return {
        "adjoint": adjoint,
        "adjoint-bracket-bump": HomLieRep(bumped_g, 3, g.twist, adjoint.maps),
        "adjoint-action-bump": HomLieRep(g, 3, g.twist, bump_family(adjoint.maps, 0, 0, 2)),
        "coboundary": cob,
        "coboundary-action-bump": HomLieRep(cob.algebra, 9, cob.twist, bump_family(cob.maps, 0, 0, 2, -2)),
    }


def _pre_lie_reps():
    a = twisted_novikov()
    bumped_a = HomPreLieAlgebra(bump_table(a.product, (1, 1, 0), -1), a.twist)
    out = {}
    for name, rep in (("shifted-1", shifted_rep(a, 1)), ("coadjoint", coadjoint_pre_lie_rep(a))):
        out[name] = rep
        out[name + "-product-bump"] = HomPreLieRep(bumped_a, 3, rep.twist, rep.left, rep.right)
        out[name + "-left-bump"] = HomPreLieRep(a, 3, rep.twist, bump_family(rep.left, 2, 0, 1, HALF),
                                                rep.right)
        out[name + "-right-bump"] = HomPreLieRep(a, 3, rep.twist, rep.left,
                                                 bump_family(rep.right, 0, 1, 2))
    return out


def _cocycles():
    a = twisted_novikov()
    d = dual_product_from_r(a, solution())
    b = Bialgebra(a, d)
    out = {}
    bumps = {"product": ((1, 0, 5), (0, 1, 0)), "coproduct": ((0, 0, 1), (2, 0, 1))}
    for name, alg, delta in (("product", a, b.phi_star), ("coproduct", d, b.psi_star)):
        rep = coboundary_rep(alg)
        g = rep.algebra
        action_bump, bracket_bump = bumps[name]
        bumped_g = HomLieAlgebra(bump_table(g.bracket, bracket_bump), g.twist)
        out[name] = (rep, delta)
        out[name + "-delta-bump"] = (rep, bump_map(delta, 5, 1))
        out[name + "-action-bump"] = (HomLieRep(g, 9, rep.twist, bump_family(rep.maps, *action_bump, HALF)),
                                      delta)
        out[name + "-bracket-bump"] = (HomLieRep(bumped_g, 9, rep.twist, rep.maps), delta)
    return out


def _pro3_tensors():
    """Inputs of check_pro3; the bumps keep the intertwining condition it requires."""
    a = twisted_novikov()
    r = solution()
    return {
        "solution": (a, r),
        "solution-bump-00": (a, bump_tensor2(r, 0, 0)),
        "solution-bump-20": (a, bump_tensor2(r, 2, 0, HALF)),
        "product-bump": (HomPreLieAlgebra(bump_table(a.product, (0, 2, 2), 3), a.twist), bump_tensor2(r, 0, 2)),
        "untwisted-first": (HomPreLieAlgebra(a.product, LinearMap.diagonal([1, 1, -1])), bump_tensor2(r, 0, 1)),
    }


def _p_tensors():
    """Inputs of check_P_condition, which reads the skew part of the tensor."""
    a = twisted_novikov()
    r = solution()
    return {
        "solution": (a, r),
        "solution-bump-01": (a, bump_tensor2(r, 0, 1)),
        "solution-bump-10": (a, bump_tensor2(r, 1, 0, HALF)),
        "product-bump": (HomPreLieAlgebra(bump_table(a.product, (0, 2, 2), 3), a.twist), bump_tensor2(r, 0, 1)),
    }


def _operators():
    a = twisted_novikov()
    out = {}
    for name, o, bump in (("rank-deficient", rank_deficient_operator(a, solution()), (1, 1, 2)),
                          ("invertible", invertible_operator(a), (0, 0, 2))):
        rep = o.rep
        bumped_a = HomPreLieAlgebra(bump_table(a.product, bump, 2), a.twist)
        out[name] = o
        out[name + "-matrix-bump"] = OOperator(rep, bump_map(o.matrix, 1, 2, HALF))
        out[name + "-product-bump"] = OOperator(
            HomPreLieRep(bumped_a, rep.space_dim, rep.twist, rep.left, rep.right), o.matrix)
        out[name + "-left-bump"] = OOperator(
            HomPreLieRep(a, rep.space_dim, rep.twist, bump_family(rep.left, 1, 2, 2), rep.right), o.matrix)
        out[name + "-right-bump"] = OOperator(
            HomPreLieRep(a, rep.space_dim, rep.twist, rep.left, bump_family(rep.right, 2, 1, 0, -1)),
            o.matrix)
    return out


def _partners():
    a = twisted_novikov()
    return {"solution-dual": dual_product_from_r(a, solution()), "zero-dual": zero_dual_partner(a)}


def _pre_lie_pairs():
    a = twisted_novikov()
    out = {}
    for name, partner in _partners().items():
        mp = coadjoint_matched_pair(a, partner)
        fields = [mp.first, mp.second, mp.first_left, mp.first_right, mp.second_left, mp.second_right]
        out[name] = mp
        out[name + "-first-bump"] = PreLieMatchedPair(
            HomPreLieAlgebra(bump_table(a.product, (2, 0, 1)), a.twist), *fields[1:])
        out[name + "-second-bump"] = PreLieMatchedPair(
            fields[0], HomPreLieAlgebra(bump_table(partner.product, (0, 1, 2), HALF), partner.twist),
            *fields[2:])
        for slot, (p, i, j) in zip(range(2, 6), ((0, 1, 2), (1, 2, 0), (2, 0, 0), (0, 2, 1))):
            bumped = list(fields)
            bumped[slot] = bump_family(fields[slot], p, i, j)
            out["%s-action-%d-bump" % (name, slot - 1)] = PreLieMatchedPair(*bumped)
    return out


def _lie_pairs():
    a = twisted_novikov()
    out = {}
    for name, partner in _partners().items():
        mp = coadjoint_lie_matched_pair(a, partner)
        g, h = mp.first, mp.second
        out[name] = mp
        out[name + "-first-bump"] = LieMatchedPair(
            HomLieAlgebra(bump_table(g.bracket, (1, 2, 0)), g.twist), h, mp.first_action, mp.second_action)
        out[name + "-second-bump"] = LieMatchedPair(
            g, HomLieAlgebra(bump_table(h.bracket, (0, 2, 1), -1), h.twist), mp.first_action,
            mp.second_action)
        out[name + "-first-action-bump"] = LieMatchedPair(
            g, h, bump_family(mp.first_action, 0, 1, 0, HALF), mp.second_action)
        out[name + "-second-action-bump"] = LieMatchedPair(
            g, h, mp.first_action, bump_family(mp.second_action, 0, 0, 1))
    return out


def _serialized(value):
    return serialize_documents([document_for(value)])


def cases():
    """Every pinned case: name -> a thunk giving its JSON-ready output."""
    out = {}
    for name, rep in _lie_reps().items():
        out["validate_lie_rep/" + name] = lambda rep=rep: validate_lie_rep(rep).to_dict()
    for name, rep in _pre_lie_reps().items():
        out["validate_pre_lie_rep/" + name] = lambda rep=rep: validate_pre_lie_rep(rep).to_dict()
    for name, args in _cocycles().items():
        out["check_one_cocycle/" + name] = lambda args=args: check_one_cocycle(*args).to_dict()
    for name, args in _pro3_tensors().items():
        out["check_pro3/" + name] = lambda args=args: check_pro3(*args).to_dict()
    for name, args in _p_tensors().items():
        out["check_P_condition/" + name] = lambda args=args: check_P_condition(*args).to_dict()
    for name, o in _operators().items():
        out["validate_o_operator/" + name] = lambda o=o: validate_o_operator(o).to_dict()
    for name, mp in _pre_lie_pairs().items():
        out["validate_matched_pair_pre_lie/" + name] = lambda mp=mp: validate_matched_pair_pre_lie(mp).to_dict()
    for name, mp in _lie_pairs().items():
        out["validate_matched_pair_lie/" + name] = lambda mp=mp: validate_matched_pair_lie(mp).to_dict()
    for s in (-1, 1, 2):
        out["shifted_rep/%d" % s] = lambda s=s: _serialized(shifted_rep(twisted_novikov(), s))
    out["coboundary_rep"] = lambda: _serialized(coboundary_rep(twisted_novikov()))
    out["coadjoint_pre_lie_rep"] = lambda: _serialized(coadjoint_pre_lie_rep(twisted_novikov()))
    return out


CASES = cases()


def _pinned():
    with PINNED.open(encoding="utf-8") as f:
        return json.load(f)


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(_pinned())


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_pinned(name):
    assert json.loads(json.dumps(CASES[name]())) == _pinned()[name]


def test_pins_cover_valid_and_invalid_verdicts():
    """Every checker is pinned on both verdicts, except check_pro3: its identity
    holds for every tensor that meets the intertwining condition it requires."""
    pinned = _pinned()
    reports = {name: value for name, value in pinned.items() if isinstance(value, dict)}
    assert all(value["valid"] for name, value in reports.items() if name.startswith("check_pro3/"))
    for prefix in ("validate_lie_rep/", "validate_pre_lie_rep/", "check_one_cocycle/",
                   "check_P_condition/", "validate_o_operator/", "validate_matched_pair_pre_lie/",
                   "validate_matched_pair_lie/"):
        verdicts = {value["valid"] for name, value in reports.items() if name.startswith(prefix)}
        assert verdicts == {True, False}, prefix
