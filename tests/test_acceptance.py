"""End-to-end acceptance: ten exact-arithmetic criteria, one line of output
each. Run with `pytest tests/test_acceptance.py -v -s` to see the lines."""

import os
import time
from fractions import Fraction

import pytest

import sweeps
from hombench import (SearchSpec, canonical_smatrix, check_equivalence_theorem,
                      check_pro1, check_pro3, check_smatrix_ooperator_equiv,
                      coboundary_rep, dendriform_from_hessian, double_lie,
                      double_pre_lie, dual_pre_lie_rep, hom_s_bracket,
                      is_hom_s_matrix, parse_documents, regular_rep, run_search,
                      semidirect_smatrix, serialize_documents, shifted_rep,
                      triangular_bialgebra, validate_bialgebra, validate_hom_lie,
                      validate_hom_pre_lie, validate_l_dendriform,
                      validate_lie_rep, validate_matched_pair_lie,
                      validate_matched_pair_pre_lie, validate_pre_lie_rep,
                      vertical)
from hombench import fixtures
from test_bialgebras import symmetric_tensors

FIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def finish(number, label, ok, started, bound):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok and elapsed < bound else "FAIL"
    print("%s criterion %d: %s (%.3fs, bound %gs)" % (verdict, number, label, elapsed, bound))
    assert ok, "criterion %d: %s" % (number, label)
    assert elapsed < bound, "criterion %d exceeded %gs (%.3fs)" % (number, bound, elapsed)


@pytest.fixture(scope="module")
def pool():
    return sweeps.pre_lie_pool()


@pytest.fixture(scope="module")
def dual_pairs(pool):
    return sweeps.smatrix_dual_pairs(pool)


def test_criterion_1_fixture_verdicts():
    started = time.perf_counter()
    ok = all(validate_hom_pre_lie(make()).valid for make in (
        fixtures.zero_algebra, fixtures.scaling_algebra,
        fixtures.nilpotent_algebra, fixtures.scaled_nilpotent_algebra))
    report = validate_hom_pre_lie(fixtures.invalid_product_candidate())
    ok = ok and not report.valid
    ok = ok and any(f.identity == "twisted-associator-symmetry" and f.witness == (0, 1, 1)
                    for f in report.failures)
    finish(1, "fixture validation with witness", ok, started, 0.1)


def test_criterion_2_double_equivalence_sweeps(pool, dual_pairs):
    started = time.perf_counter()
    ok = True
    lie = sweeps.lie_pair_candidates(7, 240)
    lie_valid = 0
    for pair in lie:
        mv = validate_matched_pair_lie(pair).valid
        ok = ok and mv == validate_hom_lie(double_lie(pair)).valid
        lie_valid += mv
    pre = sweeps.pre_lie_pair_candidates(13, 220, pool, dual_pairs)
    pre_valid = 0
    for pair in pre:
        mv = validate_matched_pair_pre_lie(pair).valid
        ok = ok and mv == validate_hom_pre_lie(double_pre_lie(pair)).valid
        pre_valid += mv
    ok = ok and len(lie) >= 200 and len(pre) >= 200
    ok = ok and 0 < lie_valid < len(lie) and 0 < pre_valid < len(pre)
    finish(2, "double/matched verdicts agree on %d + %d candidates"
           % (len(lie), len(pre)), ok, started, 10.0)


def test_criterion_3_cubic_identity_for_all_compatible_tensors():
    started = time.perf_counter()
    a = fixtures.nilpotent_algebra()
    checked = 0
    ok = True
    for r in symmetric_tensors():
        if not check_pro1(a, r):
            continue
        checked += 1
        ok = ok and check_pro3(a, r).valid
    ok = ok and checked == 27
    finish(3, "cubic residual zero for all %d compatible tensors" % checked,
           ok, started, 1.0)


def test_criterion_4_triangular_chain_and_three_way_sweep():
    started = time.perf_counter()
    a = fixtures.nilpotent_algebra()
    b = triangular_bialgebra(a, fixtures.nilpotent_smatrix())
    ok = validate_bialgebra(b).valid
    report = check_equivalence_theorem(a, b.dual)
    ok = ok and report.valid and report.details["agree"]
    ok = ok and report.details["bialgebra"].valid
    ok = ok and report.details["matched_pair"].valid
    ok = ok and report.details["manin_triple"].valid

    spec = SearchSpec(target="s_matrix", dim=2, coefficients=sweeps.COEFFS,
                      mode="exhaustive", limit=30, base=a)
    smats = [doc.value for doc in run_search(spec)]
    seen = [0, 0]
    for adual in sweeps.dual_algebra_candidates(21, 100, a, smats):
        three = check_equivalence_theorem(a, adual)
        ok = ok and three.details["agree"]
        seen[three.details["bialgebra"].valid] += 1
    ok = ok and seen[0] and seen[1]
    finish(4, "bialgebra, matched pair and triple agree on 100 candidates",
           ok, started, 10.0)


def test_criterion_5_smatrix_ooperator_census():
    started = time.perf_counter()
    a = fixtures.nilpotent_algebra()
    ok = True
    hits = 0
    for r in symmetric_tensors():
        report = check_smatrix_ooperator_equiv(a, r)
        ok = ok and report.details["agree"]
        hits += report.details["s_matrix"]
    ok = ok and hits == 9
    finish(5, "s-matrix and operator verdicts agree on all 27 tensors",
           ok, started, 1.0)


def test_criterion_6_hessian_dendriform_instance():
    started = time.perf_counter()
    a = fixtures.nilpotent_algebra()
    d = dendriform_from_hessian(a, fixtures.nilpotent_hessian_form())
    ok = validate_l_dendriform(d).valid
    ok = ok and all(m.column(j) == (0, 0) for m in d.left.left_maps() for j in range(2))
    ok = ok and d.right_of((1, 0), (1, 0)) == (0, -1)
    ok = ok and vertical(d) == a
    finish(6, "hessian form induces the expected dendriform split", ok, started, 0.1)


def test_criterion_7_canonical_solution_bracket_vanishes():
    started = time.perf_counter()
    sol = canonical_smatrix(fixtures.nilpotent_dendriform())
    bracket = hom_s_bracket(sol.algebra, sol.tensor)
    ok = sol.algebra.dim == 4 and sol.tensor.dim_left == 4
    ok = ok and bracket.is_zero()
    ok = ok and not any(True for _ in bracket.nonzero_items())
    finish(7, "canonical tensor solves the bracket equation on dim 4",
           ok, started, 0.1)


def test_criterion_8_semidirect_biconditional_sweep(pool):
    started = time.perf_counter()
    triples = sweeps.semidirect_candidates(33, 110, pool)
    ok = len(triples) >= 100
    positives = 0
    for a, rep, t in triples:
        sol = semidirect_smatrix(a, rep, t)
        s_side = is_hom_s_matrix(sol.algebra, sol.tensor)
        o_side = sol.verdict.details["o_operator"].valid
        agree = (s_side and sol.verdict.details["ambient"].valid) == o_side
        ok = ok and agree and sol.verdict.details["agree"]
        positives += s_side
    ok = ok and positives > 0
    finish(8, "tensor and operator verdicts match on %d seeded candidates"
           % len(triples), ok, started, 30.0)


def test_criterion_9_dual_and_coboundary_reps_over_corpus(pool):
    started = time.perf_counter()
    corpus = [fixtures.zero_algebra(), fixtures.scaling_algebra(),
              fixtures.nilpotent_algebra(), fixtures.scaled_nilpotent_algebra()]
    corpus += pool[:40]
    ok = True
    for a in corpus:
        for rep in (regular_rep(a), shifted_rep(a, 1), shifted_rep(a, -1)):
            ok = ok and validate_pre_lie_rep(dual_pre_lie_rep(a, rep)).valid
        ok = ok and validate_lie_rep(coboundary_rep(a)).valid
    finish(9, "dual and coboundary representations valid over %d algebras"
           % len(corpus), ok, started, 5.0)


def test_criterion_10_serialization_and_search_determinism():
    started = time.perf_counter()
    ok = True
    for name in sorted(os.listdir(FIXDIR)):
        with open(os.path.join(FIXDIR, name), "rb") as handle:
            raw = handle.read()
        ok = ok and serialize_documents(parse_documents(raw)).encode("utf-8") == raw
    spec = SearchSpec(target="s_matrix", dim=2, coefficients=sweeps.COEFFS,
                      mode="exhaustive", limit=30, base=fixtures.nilpotent_algebra())
    texts = {serialize_documents(run_search(spec)) for _ in range(2)}
    ok = ok and len(texts) == 1
    finish(10, "byte-identical round trips and repeatable search",
           ok, started, 1.0)
