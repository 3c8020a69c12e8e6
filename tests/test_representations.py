from fractions import Fraction

import pytest

from hombench import (DimensionMismatch, HomPreLieRep, InvalidInput, LinearMap, SingularMap, Tensor3,
                      adjoint_rep, check_one_cocycle, coadjoint_pre_lie_rep,
                      coboundary_rep, dual_pre_lie_rep, regular_rep,
                      semidirect_pre_lie, shifted_rep, star_maps, sub_adjacent,
                      tensor_rep, triangular_bialgebra, validate_hom_pre_lie,
                      validate_lie_rep, validate_pre_lie_rep)
from hombench import fixtures
from hombench.representations import action_table


def test_adjoint_matrices_oracle():
    g = sub_adjacent(fixtures.scaling_algebra())
    rep = adjoint_rep(g)
    assert rep.maps[0] == LinearMap(((0, 0), (0, 1)))
    assert rep.maps[1] == LinearMap(((0, 0), (-1, 0)))
    assert rep.twist == g.twist
    assert validate_lie_rep(rep).valid


def test_adjoint_requires_valid_algebra():
    from hombench import HomLieAlgebra, Tensor2
    bad = HomLieAlgebra(Tensor3.from_entries((2, 2, 2), {(0, 1, 0): 1}), LinearMap.identity(2))
    with pytest.raises(InvalidInput):
        adjoint_rep(bad)


def test_shifted_rep_scaled_oracle():
    rep = shifted_rep(fixtures.scaled_nilpotent_algebra(), -2)
    # the twisted left action of e1 on e1 lands on e2 with the doubly inverted weight
    assert rep.left[0].column(0) == (0, Fraction(1, 4))
    assert validate_pre_lie_rep(rep).valid


def test_shifted_reps_all_valid():
    for make in (fixtures.scaling_algebra, fixtures.scaled_nilpotent_algebra,
                 fixtures.nilpotent_algebra):
        for s in range(-2, 3):
            assert validate_pre_lie_rep(shifted_rep(make(), s)).valid, (make.__name__, s)


def test_regular_is_shift_zero():
    a = fixtures.scaling_algebra()
    assert regular_rep(a).left == shifted_rep(a, 0).left
    assert regular_rep(a).right == shifted_rep(a, 0).right


def test_tensor_rep_valid():
    g = sub_adjacent(fixtures.scaling_algebra())
    rep = tensor_rep(g, adjoint_rep(g), adjoint_rep(g))
    assert rep.space_dim == 4
    assert validate_lie_rep(rep).valid


def test_star_maps_coadjoint_oracle():
    a = fixtures.nilpotent_algebra()
    rep = coadjoint_pre_lie_rep(a)
    # the negated dual of right multiplication by e1 carries the second covector to the first
    assert rep.right[0].column(1) == (1, 0)
    assert rep.twist == a.twist.inverse().transpose()
    assert validate_pre_lie_rep(rep).valid


def test_star_maps_formula_direct():
    a = fixtures.scaling_algebra()
    maps = a.product.left_maps()
    starred = star_maps(maps, a.twist, a.twist)
    beta_inv_t = a.twist.inverse().transpose()
    for i in range(2):
        twisted = LinearMap.zero(2, 2)
        for j in range(2):
            twisted = twisted + maps[j].scale(a.twist.entries[j][i])
        expect = twisted.transpose().scale(-1) @ (beta_inv_t @ beta_inv_t)
        assert starred[i] == expect


def test_dual_rep_valid_on_fixtures():
    for make in (fixtures.zero_algebra, fixtures.scaling_algebra,
                 fixtures.nilpotent_algebra, fixtures.scaled_nilpotent_algebra):
        a = make()
        assert validate_pre_lie_rep(dual_pre_lie_rep(a, regular_rep(a))).valid, make.__name__


def test_coboundary_rep_oracle():
    rep = coboundary_rep(fixtures.nilpotent_algebra())
    assert rep.maps[0].column(0) == (0, 0, 1, 0)
    assert validate_lie_rep(rep).valid
    scaled = coboundary_rep(fixtures.scaled_nilpotent_algebra())
    # the doubly inverted twist weights the left leg while the right leg is scaled up
    assert scaled.maps[0].column(0) == (0, 0, Fraction(1, 2), 0)
    assert validate_lie_rep(scaled).valid


def test_identity_is_not_a_cocycle_for_scaling():
    g = sub_adjacent(fixtures.scaling_algebra())
    report = check_one_cocycle(adjoint_rep(g), LinearMap.identity(2))
    assert not report.valid
    assert report.failures[0].witness == (0, 1)
    assert report.failures[0].residual == (0, -2)


def test_dualized_coproduct_is_a_cocycle():
    a = fixtures.nilpotent_algebra()
    b = triangular_bialgebra(a, fixtures.nilpotent_smatrix())
    report = check_one_cocycle(coboundary_rep(a), b.phi_star)
    assert report.valid


def test_semidirect_products_oracle():
    a = fixtures.nilpotent_algebra()
    sd = semidirect_pre_lie(a, regular_rep(a))
    assert sd.basis_product(0, 2) == (0, 0, 0, 1)
    assert sd.basis_product(2, 0) == (0, 0, 0, 1)
    assert sd.basis_product(0, 0) == (0, 1, 0, 0)
    assert validate_hom_pre_lie(sd).valid


def test_semidirect_rejects_invalid_rep():
    a = fixtures.scaling_algebra()
    broken = HomPreLieRep(a, 2, LinearMap(((1, 0), (0, 2))),
                          [LinearMap(((0, 1), (1, 0))), LinearMap.zero(2, 2)],
                          [LinearMap.zero(2, 2), LinearMap.zero(2, 2)])
    report = validate_pre_lie_rep(broken)
    assert not report.valid
    assert report.failures[0].identity == "left-action-twist-compatibility"
    with pytest.raises(InvalidInput):
        semidirect_pre_lie(a, broken)


def test_rep_validation_rejects_singular_space_twist():
    a = fixtures.nilpotent_algebra()
    rep = HomPreLieRep(a, 2, LinearMap.zero(2, 2),
                       [LinearMap.zero(2, 2)] * 2, [LinearMap.zero(2, 2)] * 2)
    with pytest.raises(SingularMap):
        validate_pre_lie_rep(rep)


def test_action_table_round_trips_an_action_family():
    maps = (LinearMap(((1, Fraction(-2, 3), 0), (Fraction(5, 2), 3, -1), (0, Fraction(1, 7), 2))),
            LinearMap(((Fraction(-1, 4), 0, 6), (2, Fraction(3, 5), 1), (-3, 1, Fraction(2, 9)))),
            LinearMap(((0, 1, Fraction(-5, 6)), (Fraction(7, 3), -2, 0), (1, 1, 1))))
    table = action_table(maps, 3)
    assert table.left_maps() == maps
    assert action_table(table.left_maps(), 3) == table
    vectors = [(Fraction(2, 3), -1, Fraction(5, 4)), (0, 0, 0), (1, 0, 0), (Fraction(-7, 2), 3, 0)]
    coefficients = vectors + [(0, 1, 0), (0, 0, 1)]
    for x in coefficients:
        combined = LinearMap.zero(3, 3)
        for c, m in zip(x, maps):
            combined = combined + m.scale(c)
        assert table.left_at(x) == combined, x
        for v in vectors:
            assert table.left_at(x).apply(v) == combined.apply(v) == table.right_at(v).apply(x), (x, v)
    assert table.left_at((0, 1, 0)) == maps[1]
    with pytest.raises(DimensionMismatch):
        action_table(maps, 2)
