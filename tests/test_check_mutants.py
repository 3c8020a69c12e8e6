"""Every check slug can fail: on its holding fixture, with one side made wrong.

A theorem check compares verdicts, or folds the reports of what it built, so a
validator that reported "valid" on everything would leave it holding. For each
slug one function that builds a side is wrapped so that its result carries a
one-entry bump, and the check must then report invalid with exit code 1. For
s-identity the bump goes into hom_s_bracket, since no input is known on which
check_pro3 fails.
"""

import pytest

from hombench import (Bialgebra, HomLDendriform, HomLieAlgebra, HomPreLieAlgebra, HomPreLieRep,
                      LieMatchedPair, ManinTriple, bialgebras, checks, dendriform, matched)
from hombench.dendriform import CanonicalSolution, InducedDendriform
from hombench.matched import StandardizedTriple

from test_checks import HOLDING_CASES, _resolve
from test_pinned_actions import bump_family, bump_map, bump_table, bump_tensor2


def _bumped_pre_lie(a):
    return HomPreLieAlgebra(bump_table(a.product, (0, 1, 0)), a.twist)


def _bumped_dendriform(d):
    return HomLDendriform(bump_table(d.left, (0, 1, 0)), d.right, d.twist)


# slug -> (module, name of the function that builds one side, corruption of its result)
MUTANTS = {
    "double-lie-equiv": (checks, "double_lie",
                         lambda g: HomLieAlgebra(bump_table(g.bracket, (0, 1, 0)), g.twist)),
    "double-pre-lie-equiv": (checks, "double_pre_lie", _bumped_pre_lie),
    "matched-equiv": (matched, "coadjoint_lie_matched_pair", lambda mp: LieMatchedPair(
        mp.first, mp.second, bump_family(mp.first_action, 1, 0, 0), mp.second_action)),
    "manin-standardize": (checks, "standardize_manin_triple", lambda built: StandardizedTriple(
        iso=bump_map(built.iso, 0, 1), standard=built.standard)),
    "bialgebra-tri-equiv": (bialgebras, "standard_manin_triple", lambda mt: ManinTriple(
        _bumped_pre_lie(mt.total), mt.form, mt.first_dim, mt.second_dim)),
    "s-identity": (bialgebras, "hom_s_bracket", lambda square: bump_table(square, (0, 0, 0))),
    "p-condition": (checks, "dualize_product", lambda m: bump_map(m, 0, 0)),
    "triangular": (checks, "triangular_bialgebra",
                   lambda b: Bialgebra(b.primal, HomPreLieAlgebra(bump_table(b.dual.product, (0, 0, 0)),
                                                                  b.dual.twist))),
    "smatrix-ooperator": (dendriform, "r_sharp", lambda m: bump_map(m, 0, 0, -1)),
    "dendriform-reps": (dendriform, "_mixed_rep", lambda rep: HomPreLieRep(
        rep.algebra, rep.space_dim, rep.twist, bump_family(rep.left, 1, 0, 0), rep.right)),
    "o-to-dendriform": (checks, "dendriform_from_o_operator", lambda built: InducedDendriform(
        on_space=_bumped_dendriform(built.on_space), on_image=built.on_image)),
    "invertible-o": (checks, "compatible_dendriform_from_invertible", _bumped_dendriform),
    "hessian-dendriform": (checks, "dendriform_from_hessian", _bumped_dendriform),
    "semidirect-smatrix": (dendriform, "semidirect_product_raw", _bumped_pre_lie),
    "canonical-smatrix": (checks, "canonical_smatrix", lambda built: CanonicalSolution(
        algebra=built.algebra, tensor=bump_tensor2(built.tensor, 0, 0))),
}


def test_every_slug_has_a_mutant():
    assert set(MUTANTS) == set(checks.CHECKS)


@pytest.mark.parametrize("slug, picks", HOLDING_CASES, ids=[slug for slug, _ in HOLDING_CASES])
def test_slug_fails_with_one_side_bumped(slug, picks, monkeypatch):
    module, name, corrupt = MUTANTS[slug]
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: corrupt(original(*args)))
    result = checks.run_check(slug, _resolve(picks))
    assert result.exit_code == 1
    assert not result.report.valid
