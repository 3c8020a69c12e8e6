import pytest
from hypothesis import given
from hypothesis import strategies as st

from hombench import (AsymmetricInput, BilinearForm, HomPreLieAlgebra, InvalidInput,
                      LinearMap, Tensor3, check_morphism, standard_manin_triple,
                      sub_adjacent, validate_hessian, validate_hom_lie,
                      validate_hom_pre_lie, validate_quadratic)
from hombench import fixtures


def test_fixture_algebras_valid():
    for make in (fixtures.zero_algebra, fixtures.scaling_algebra,
                 fixtures.nilpotent_algebra, fixtures.scaled_nilpotent_algebra):
        assert validate_hom_pre_lie(make()).valid, make.__name__


def test_invalid_candidate_witness():
    report = validate_hom_pre_lie(fixtures.invalid_product_candidate())
    assert not report.valid
    first = report.failures[0]
    assert first.identity == "twisted-associator-symmetry"
    assert first.witness == (0, 1, 1)
    assert first.residual == (1, 0)


def test_multiplicativity_failure():
    bad = HomPreLieAlgebra(fixtures.nilpotent_algebra().product, LinearMap.diagonal([1, 2]))
    report = validate_hom_pre_lie(bad)
    assert not report.valid
    assert report.failures[0].identity == "twist-product-morphism"
    assert report.failures[0].witness == (0, 0)


def test_singular_twist_rejected():
    bad = HomPreLieAlgebra(fixtures.nilpotent_algebra().product, LinearMap.zero(2, 2))
    report = validate_hom_pre_lie(bad)
    assert any(f.identity == "twist-invertible" for f in report.failures)


def test_report_is_remembered_by_the_algebra():
    """A second validation of one algebra returns the report of the first,
    equal to the report of an equal algebra that was never validated."""
    for make in (fixtures.invalid_product_candidate, fixtures.scaled_nilpotent_algebra):
        a = make()
        first = validate_hom_pre_lie(a)
        assert validate_hom_pre_lie(a) is first
        again = make()
        assert again == a and hash(again) == hash(a) and repr(again) == repr(a)
        assert validate_hom_pre_lie(again).to_dict() == first.to_dict()
        assert validate_hom_pre_lie(again).failures == first.failures


def test_sub_adjacent_oracle():
    g = sub_adjacent(fixtures.scaling_algebra())
    assert g.basis_bracket(0, 1) == (0, 1)
    assert g.basis_bracket(1, 0) == (0, -1)
    assert g.basis_bracket(0, 0) == (0, 0)
    assert validate_hom_lie(g).valid


def test_sub_adjacent_requires_validity():
    with pytest.raises(InvalidInput):
        sub_adjacent(fixtures.invalid_product_candidate())


def test_morphism_twist_scaling_fails():
    a = fixtures.nilpotent_algebra()
    report = check_morphism(LinearMap.diagonal([1, 2]), a, a)
    assert not report.valid
    assert any(f.identity == "operation-preserved" for f in report.failures)


def test_morphism_twist_itself_passes():
    a = fixtures.scaling_algebra()
    assert check_morphism(a.twist, a, a).valid
    assert check_morphism(LinearMap.identity(2), a, a).valid


def test_morphism_requires_same_type():
    a = fixtures.scaling_algebra()
    with pytest.raises(InvalidInput):
        check_morphism(LinearMap.identity(2), a, sub_adjacent(a))


def test_bilinear_form_tag_enforced():
    with pytest.raises(AsymmetricInput):
        BilinearForm(((0, 1), (0, 0)), "symmetric")
    with pytest.raises(AsymmetricInput):
        BilinearForm(((0, 1), (1, 0)), "skew")
    with pytest.raises(InvalidInput):
        BilinearForm(((0, 1), (1, 0)), "hermitian")


def test_quadratic_standard_form():
    a = fixtures.nilpotent_algebra()
    triple = standard_manin_triple(a, fixtures.zero_dual_partner(a))
    assert validate_quadratic(triple.total, triple.form).valid


def test_hessian_hyperbolic_valid():
    report = validate_hessian(fixtures.nilpotent_algebra(), fixtures.nilpotent_hessian_form())
    assert report.valid


def test_hessian_identity_form_fails_cocycle():
    report = validate_hessian(fixtures.nilpotent_algebra(), BilinearForm(((1, 0), (0, 1)), "symmetric"))
    assert not report.valid
    assert report.failures[0].identity == "cocycle-symmetry"
    assert report.failures[0].witness == (0, 1, 0)


def test_hessian_degenerate_fails():
    report = validate_hessian(fixtures.nilpotent_algebra(), BilinearForm(((0, 0), (0, 0)), "symmetric"))
    assert any(f.identity == "nondegenerate" for f in report.failures)


coeff = st.integers(-1, 1)


def _associator_symmetric(a):
    # direct restatement of the defining identity, kept independent of the validator
    n = a.dim
    basis = [tuple(1 if t == i else 0 for t in range(n)) for i in range(n)]
    for x in basis:
        for y in basis:
            for z in basis:
                az = a.twist.apply(z)
                lhs = tuple(p - q for p, q in zip(a.product_of(a.product_of(x, y), az),
                                                  a.product_of(a.twist.apply(x), a.product_of(y, z))))
                rhs = tuple(p - q for p, q in zip(a.product_of(a.product_of(y, x), az),
                                                  a.product_of(a.twist.apply(y), a.product_of(x, z))))
                if lhs != rhs:
                    return False
    return True


@given(st.dictionaries(st.tuples(coeff.map(abs), coeff.map(abs), coeff.map(abs)), coeff, max_size=6))
def test_validator_matches_direct_identity(items):
    table = Tensor3.from_entries((2, 2, 2), {k: v for k, v in items.items() if v})
    cand = HomPreLieAlgebra(table, LinearMap.identity(2))
    assert validate_hom_pre_lie(cand).valid == _associator_symmetric(cand)


@given(st.dictionaries(st.tuples(coeff.map(abs), coeff.map(abs), coeff.map(abs)), coeff, max_size=6))
def test_sub_adjacent_of_valid_is_valid_lie(items):
    table = Tensor3.from_entries((2, 2, 2), {k: v for k, v in items.items() if v})
    cand = HomPreLieAlgebra(table, LinearMap.identity(2))
    if validate_hom_pre_lie(cand).valid:
        assert validate_hom_lie(sub_adjacent(cand)).valid
