from fractions import Fraction

import pytest

import sweeps
from hombench import (HomLDendriform, HomPreLieRep, IntertwinerViolation,
                      InvalidInput, LinearMap, OOperator, SingularMap, Tensor3,
                      canonical_smatrix, compatible_dendriform_from_invertible,
                      dendriform_from_hessian, dendriform_from_o_operator,
                      dendriform_rep_check, hom_s_bracket, horizontal,
                      is_hom_s_matrix, regular_rep, semidirect_smatrix,
                      transpose_dendriform, validate_l_dendriform,
                      validate_o_operator, validate_pre_lie_rep, vertical)
from hombench import fixtures


def zero_tensor(n):
    return Tensor3.from_entries((n, n, n), {})


def left_only_rep(d):
    v = vertical(d)
    return HomPreLieRep(v, v.dim, LinearMap.identity(v.dim),
                        d.left.left_maps(), [LinearMap.zero(v.dim, v.dim)] * v.dim)


def test_fixture_dendriform_valid():
    d = fixtures.nilpotent_dendriform()
    assert validate_l_dendriform(d).valid
    report = dendriform_rep_check(d)
    assert report.valid
    assert set(report.details) == {"horizontal", "horizontal-action",
                                   "vertical", "vertical-action"}


def test_both_induced_products_recover_the_nilpotent_algebra():
    d = fixtures.nilpotent_dendriform()
    a = fixtures.nilpotent_algebra()
    assert vertical(d) == a
    assert horizontal(d) == a


def test_transpose_is_an_involution():
    # a structure with zero right product is its own transpose
    d = fixtures.nilpotent_dendriform()
    assert transpose_dendriform(d) == d
    hd = dendriform_from_hessian(fixtures.nilpotent_algebra(),
                                 fixtures.nilpotent_hessian_form())
    t = transpose_dendriform(hd)
    assert t != hd
    assert t.right_of((1, 0), (1, 0)) == (0, 1)
    assert transpose_dendriform(t) == hd
    assert validate_l_dendriform(t).valid


def test_validator_reports_axiom_witness():
    cand = HomLDendriform(Tensor3.from_entries((2, 2, 2), {(0, 1, 0): 1}),
                          zero_tensor(2), LinearMap.identity(2))
    report = validate_l_dendriform(cand)
    assert not report.valid
    assert report.failures[0].identity == "left-axiom"
    assert report.failures[0].witness == (0, 1, 1)


def test_o_operator_verdicts():
    d = fixtures.nilpotent_dendriform()
    assert validate_o_operator(fixtures.mixed_action_operator(d)).valid
    assert validate_o_operator(OOperator(left_only_rep(d), LinearMap.identity(2))).valid
    v = vertical(d)
    report = validate_o_operator(OOperator(regular_rep(v), LinearMap.identity(2)))
    assert not report.valid
    assert report.failures[0].identity == "operator-product"


def test_induced_dendriform_builds_the_operator_actions_once(monkeypatch):
    """dendriform_from_o_operator validates the operator on the same shifted
    actions it splits with, so _operator_actions runs once per call."""
    from hombench import dendriform
    built = []
    real = dendriform._operator_actions
    monkeypatch.setattr(dendriform, "_operator_actions", lambda o: built.append(o) or real(o))
    d = fixtures.nilpotent_dendriform()
    operator = fixtures.mixed_action_operator(d)
    assert dendriform_from_o_operator(operator).on_space == d
    assert built == [operator]
    built.clear()
    assert validate_o_operator(operator).valid and len(built) == 1


def test_induced_dendriform_rejects_invalid_and_singular_operators():
    d = fixtures.nilpotent_dendriform()
    v = vertical(d)
    with pytest.raises(InvalidInput, match="needs a valid relative operator"):
        dendriform_from_o_operator(OOperator(regular_rep(v), LinearMap.identity(2)))
    singular = HomPreLieRep(v, 2, LinearMap(((1, 1), (1, 1))), d.left.left_maps(), [LinearMap.zero(2, 2)] * 2)
    for build in (validate_o_operator, dendriform_from_o_operator):
        with pytest.raises(SingularMap, match="^representation space twist is singular$"):
            build(OOperator(singular, LinearMap.identity(2)))


def test_induced_dendriform_recovers_fixture():
    d = fixtures.nilpotent_dendriform()
    ind = dendriform_from_o_operator(fixtures.mixed_action_operator(d))
    assert ind.on_space == d
    assert ind.on_image == d


def test_induced_dendriform_on_small_image():
    d = fixtures.nilpotent_dendriform()
    rep = left_only_rep(d)
    rank1 = OOperator(rep, LinearMap(((0, 0), (1, 0))))
    assert validate_o_operator(rank1).valid
    ind = dendriform_from_o_operator(rank1)
    assert ind.on_image.dim == 1
    assert ind.on_image.left == zero_tensor(1)
    assert ind.on_image.right == zero_tensor(1)
    assert validate_l_dendriform(ind.on_space).valid

    empty = dendriform_from_o_operator(OOperator(rep, LinearMap.zero(2, 2)))
    assert empty.on_image.dim == 0
    assert empty.on_space.left == zero_tensor(2)


def test_compatible_dendriform_from_invertible_operator():
    d = fixtures.nilpotent_dendriform()
    assert compatible_dendriform_from_invertible(fixtures.mixed_action_operator(d)) == d


def test_hessian_dendriform_instance():
    a = fixtures.nilpotent_algebra()
    hd = dendriform_from_hessian(a, fixtures.nilpotent_hessian_form())
    assert validate_l_dendriform(hd).valid
    assert all(m == LinearMap.zero(2, 2) for m in hd.left.left_maps())
    assert hd.right_of((1, 0), (1, 0)) == (0, -1)
    assert vertical(hd) == a


def test_semidirect_tensor_oracle():
    d = fixtures.nilpotent_dendriform()
    op = fixtures.mixed_action_operator(d)
    sol = semidirect_smatrix(vertical(d), op.rep, op.matrix)
    assert sol.algebra.dim == 4
    assert dict(sol.tensor.nonzero_items()) == {
        (0, 2): Fraction(1), (1, 3): Fraction(1),
        (2, 0): Fraction(1), (3, 1): Fraction(1)}
    v = sol.verdict
    assert v.valid
    assert v.details["agree"]
    assert v.details["s_matrix"]
    assert v.details["o_operator"].valid
    assert v.details["ambient"].valid


def test_statement_variant_breaks_on_canonical_instance():
    d = fixtures.nilpotent_dendriform()
    op = fixtures.mixed_action_operator(d)
    sol = semidirect_smatrix(vertical(d), op.rep, op.matrix, variant="statement")
    v = sol.verdict
    assert v.details["ambient"].valid
    assert v.details["o_operator"].valid
    assert not v.details["s_matrix"]
    assert not v.details["agree"]
    assert not v.valid


def test_canonical_smatrix_matches_semidirect_route():
    d = fixtures.nilpotent_dendriform()
    op = fixtures.mixed_action_operator(d)
    cs = canonical_smatrix(d)
    sol = semidirect_smatrix(vertical(d), op.rep, op.matrix)
    assert cs.algebra == sol.algebra
    assert cs.tensor == sol.tensor
    assert is_hom_s_matrix(cs.algebra, cs.tensor)
    assert hom_s_bracket(cs.algebra, cs.tensor).is_zero()


def test_semidirect_requires_intertwining_operator():
    a = fixtures.scaling_algebra()
    with pytest.raises(IntertwinerViolation):
        semidirect_smatrix(a, regular_rep(a), LinearMap(((0, 1), (1, 0))))
    with pytest.raises(InvalidInput):
        semidirect_smatrix(fixtures.nilpotent_algebra(), regular_rep(a),
                           LinearMap.identity(2))


def test_semidirect_biconditional_mini_sweep():
    pool = sweeps.pre_lie_pool(limit=80)
    positives = 0
    for a, rep, t in sweeps.semidirect_candidates(33, 40, pool):
        assert validate_pre_lie_rep(rep).valid
        sol = semidirect_smatrix(a, rep, t)
        assert sol.verdict.details["agree"]
        positives += sol.verdict.details["s_matrix"]
    assert positives > 0
