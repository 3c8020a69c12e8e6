import hashlib
from fractions import Fraction

import pytest

from hombench import (BudgetExceeded, InvalidInput, LinearMap, SearchSpec,
                      Stream, Tensor2, run_search, serialize_documents,
                      substream, validate_hom_pre_lie)
from hombench import fixtures

COEFFS = (Fraction(-1), Fraction(0), Fraction(1))
HALVES = (Fraction(-1, 2), Fraction(0), Fraction(1, 2))

# sha256 of serialize_documents(run_search(spec)), recorded before the
# hom_pre_lie and dendriform targets moved onto integer planes. The seed-7
# dendriform run accepts nothing, so the {0, 1} runs pin accepted dendriform
# bytes; the {-1/2, 0, 3/2} run pins a coefficient set with unequal
# denominators.
PINNED_SEARCHES = {
    "hom_pre_lie-exhaustive": (
        dict(target="hom_pre_lie", dim=2, coefficients=COEFFS, limit=300, budget=7000),
        "9db4eac24d4c03b5c6fde94fb406650053078d3d006570be298264ca68969676"),
    "hom_pre_lie-exhaustive-halves": (
        dict(target="hom_pre_lie", dim=2, coefficients=HALVES, limit=300, budget=7000),
        "6b5f0023f246b98f5c35a14ad6161e411ca80d8080d29972a295586914eb5b35"),
    "hom_pre_lie-limit40": (
        dict(target="hom_pre_lie", dim=2, coefficients=COEFFS, limit=40, budget=7000),
        "ac5728f9ae1a59184c457dc59b2f8aef5d6f48d976909b211ff89c83219f2bcf"),
    "hom_pre_lie-seeded-mixed": (
        dict(target="hom_pre_lie", dim=2, coefficients=("-1/2", 0, "3/2"), mode="seeded", seed=9,
             attempts=3000, limit=300, budget=3000),
        "43499358437f89b9466a2fa5a51a02d0072098587d6ad9d7d0051f6702db2711"),
    "dendriform-seeded": (
        dict(target="dendriform", dim=2, coefficients=COEFFS, mode="seeded", seed=7,
             attempts=400, limit=300, budget=400),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "dendriform-seeded-01": (
        dict(target="dendriform", dim=2, coefficients=(0, 1), mode="seeded", seed=3,
             attempts=1000, limit=300, budget=1000),
        "3f0d5185dd97df3eeaa1b2d46bd2c2e442428009cbcee31cdf5937e3889c6522"),
    "dendriform-exhaustive-dim1": (
        dict(target="dendriform", dim=1, coefficients=COEFFS, limit=300),
        "ee6684f6eb053bab2c3ff7b18343b2881e916a2d2e14e4c6fa9ad33c5d3edad9"),
}


def _search_text(**spec):
    return serialize_documents(run_search(SearchSpec(**spec)))


def test_stream_is_deterministic_and_bounded():
    a = Stream(99)
    b = Stream(99)
    draws = [a.below(10) for _ in range(50)]
    assert draws == [b.below(10) for _ in range(50)]
    assert all(0 <= x < 10 for x in draws)
    assert len(set(draws)) > 1
    assert substream(5, 1).below(100) != substream(5, 2).below(100)
    assert Stream(3).pick("abc") in "abc"


def test_smatrix_census_over_nilpotent_base():
    spec = SearchSpec(target="s_matrix", dim=2, coefficients=COEFFS,
                      mode="exhaustive", limit=30, base=fixtures.nilpotent_algebra())
    found = [doc.value for doc in run_search(spec)]
    assert len(found) == 9
    assert fixtures.nilpotent_smatrix() in found
    assert Tensor2.from_entries(2, 2, {(0, 0): 1}) not in found


def test_exhaustive_search_is_repeatable():
    spec = SearchSpec(target="hom_pre_lie", dim=2, coefficients=COEFFS,
                      mode="exhaustive", limit=40, budget=7000)
    texts = [serialize_documents(run_search(spec)) for _ in range(2)]
    assert texts[0] == texts[1]


def test_seeded_mode_is_deterministic_and_deduplicated():
    spec = SearchSpec(target="s_matrix", dim=2, coefficients=COEFFS,
                      mode="seeded", seed=11, limit=50, attempts=400,
                      budget=1000, base=fixtures.nilpotent_algebra())
    first = run_search(spec)
    second = run_search(spec)
    assert serialize_documents(first) == serialize_documents(second)
    texts = [serialize_documents([doc]) for doc in first]
    assert len(set(texts)) == len(texts)
    assert 0 < len(first) <= 9


def test_exhaustive_enumeration_finds_fixture_members():
    spec = SearchSpec(target="hom_pre_lie", dim=2, coefficients=COEFFS,
                      mode="exhaustive", limit=300, budget=7000)
    found = [doc.value for doc in run_search(spec)]
    assert len(found) == 173
    assert fixtures.nilpotent_algebra() in found
    assert all(validate_hom_pre_lie(a).valid for a in found[:10])


def test_hessian_target_finds_fixture_form():
    spec = SearchSpec(target="hessian", dim=2, coefficients=COEFFS,
                      mode="exhaustive", limit=30, base=fixtures.nilpotent_algebra())
    found = run_search(spec)
    assert len(found) == 6
    assert all(doc.kind == "bilinear_form" for doc in found)
    assert any(doc.value == fixtures.nilpotent_hessian_form() for doc in found)


def test_o_operator_target_over_fixture_rep():
    d = fixtures.nilpotent_dendriform()
    rep = fixtures.mixed_action_operator(d).rep
    spec = SearchSpec(target="o_operator", dim=2, coefficients=COEFFS,
                      mode="exhaustive", limit=200, base=rep)
    found = run_search(spec)
    assert found
    assert all(doc.kind == "o_operator" for doc in found)
    assert any(doc.value.matrix == LinearMap.identity(2) for doc in found)


def test_limit_zero_returns_nothing():
    spec = SearchSpec(target="hom_pre_lie", dim=2, coefficients=COEFFS,
                      mode="exhaustive", limit=0, budget=7000)
    assert run_search(spec) == []


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        run_search(SearchSpec(target="dendriform", dim=2, coefficients=COEFFS,
                              mode="exhaustive", limit=5))
    with pytest.raises(BudgetExceeded):
        run_search(SearchSpec(target="hom_pre_lie", dim=2, coefficients=COEFFS,
                              mode="seeded", limit=5, attempts=500, budget=100))


def test_base_preconditions():
    with pytest.raises(InvalidInput):
        run_search(SearchSpec(target="s_matrix", dim=2, coefficients=COEFFS,
                              mode="exhaustive", limit=5))
    with pytest.raises(InvalidInput):
        run_search(SearchSpec(target="s_matrix", dim=3, coefficients=COEFFS,
                              mode="exhaustive", limit=5,
                              base=fixtures.nilpotent_algebra()))
    with pytest.raises(InvalidInput):
        SearchSpec(target="galaxy", dim=2, coefficients=COEFFS)
    with pytest.raises(InvalidInput):
        SearchSpec(target="hom_pre_lie", dim=0, coefficients=COEFFS)
    with pytest.raises(InvalidInput):
        SearchSpec(target="hom_pre_lie", dim=2, coefficients=())


@pytest.mark.parametrize("mode", ["exhaustive", "seeded"])
@pytest.mark.parametrize("target", ["s_matrix", "hessian", "o_operator"])
def test_a_missing_or_mismatched_base_is_reported_before_the_budget(target, mode):
    budget = dict(mode=mode, limit=5, attempts=10, budget=2)
    with pytest.raises(InvalidInput, match="as base"):
        run_search(SearchSpec(target=target, dim=2, coefficients=COEFFS, **budget))
    if target == "o_operator":
        base = fixtures.mixed_action_operator(fixtures.nilpotent_dendriform()).rep
    else:
        base = fixtures.nilpotent_algebra()
    with pytest.raises(InvalidInput, match="does not match dim 3"):
        run_search(SearchSpec(target=target, dim=3, coefficients=COEFFS, base=base, **budget))


def test_invalid_smatrix_base_is_rejected_after_budget_and_limit():
    bad = fixtures.invalid_product_candidate()
    with pytest.raises(InvalidInput):
        run_search(SearchSpec(target="s_matrix", dim=2, coefficients=COEFFS,
                              mode="exhaustive", limit=5, base=bad))
    assert run_search(SearchSpec(target="s_matrix", dim=2, coefficients=COEFFS,
                                 mode="exhaustive", limit=0, base=bad)) == []
    with pytest.raises(BudgetExceeded):
        run_search(SearchSpec(target="s_matrix", dim=2, coefficients=COEFFS,
                              mode="exhaustive", limit=5, budget=2, base=bad))


@pytest.mark.parametrize("name", sorted(PINNED_SEARCHES))
def test_search_output_bytes_are_pinned(name):
    spec, digest = PINNED_SEARCHES[name]
    assert hashlib.sha256(_search_text(**spec).encode("utf-8")).hexdigest() == digest


def test_limit_output_is_a_prefix_of_a_longer_run():
    short = _search_text(**PINNED_SEARCHES["hom_pre_lie-limit40"][0])
    full = _search_text(**PINNED_SEARCHES["hom_pre_lie-exhaustive"][0])
    assert short and full.startswith(short) and len(full) > len(short)
