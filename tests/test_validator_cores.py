"""The identity validators and check_P_condition on twisted rational inputs.

validate_hom_pre_lie and validate_l_dendriform are wrappers over integer cores
that search also runs; the cores bring a table's and a twist's denominators to
one scale, which identity-twist searches never exercise. Here each report's
(identity, witness, residual) set is compared with hom_pre_lie_failures and
dendriform_failures of bench/oracle.py, which recompute every identity with no
hombench code. The inputs come from bench/inputs.py: graded tables Yau-twisted
by diag(lam^weight) for lam in {2, 1/2, 2/3, -2}, moved by a basis change whose
inverse has halves, and their one-entry bumps.

check_P_condition computes P(x) vec(S) in closed form; it is compared with the
Kronecker path it replaced, rebuilt here from public functions.
"""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hombench import (HomLDendriform, HomPreLieAlgebra, LinearMap, Tensor2, Tensor3,
                      action_table, check_P_condition, tensor_product_map, validate_hom_pre_lie,
                      validate_l_dendriform)
from hombench.foundation import sub_vectors

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAMBDAS = (2, Fraction(1, 2), Fraction(2, 3), -2)


def _load(name, alias):
    """bench/<name>.py as a module named alias, loaded by path."""
    spec = importlib.util.spec_from_file_location(alias, BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_inputs(oracle):
    """bench/inputs.py, whose `from oracle import ...` is served the given oracle."""
    saved = sys.modules.get("oracle")
    sys.modules["oracle"] = oracle
    try:
        return _load("inputs", "bench_inputs")
    finally:
        if saved is None:
            del sys.modules["oracle"]
        else:
            sys.modules["oracle"] = saved


O = _load("oracle", "bench_oracle")
I = _load_inputs(O)


def _algebras():
    """(name, table, twist) for each Yau-twisted family of dims 2-4 and each lambda."""
    rng = random.Random(20261020)
    families = [("novikov%d" % n, I.novikov(n)) for n in (2, 3, 4)] + [("upper3", I.upper(3))]
    families.append(("two_step3", I.two_step(rng, [1, 2], [3])))
    out = []
    for family, (items, weights) in families:
        n = len(weights)
        for lam in LAMBDAS:
            alg = I.Algebra(items, weights, lam, I.with_rational_inverse(rng, n, 2 * n))
            out.append(("%s-lam%s" % (family, lam), alg.table, alg.twist))
    return out, rng


def _cases():
    """(name, table, twist): each algebra, two one-entry bumps of its table and
    one of its twist; and (name, left, right, twist): each algebra with a zero
    right product, which is L-dendriform, with that product bumped once or
    equal to the table, and with the table bumped once."""
    algebras, rng = _algebras()
    pre_lie, dendriform = [], []
    for name, table, twist in algebras:
        n = len(table)
        pre_lie.append((name, table, twist))
        for _ in range(2):
            i, j, k = (rng.randrange(n) for _ in range(3))
            pre_lie.append(("%s-bump%d%d%d" % (name, i, j, k), I.bump_table(table, i, j, k), twist))
        i, j = rng.randrange(n), rng.randrange(n)
        pre_lie.append(("%s-twist-bump%d%d" % (name, i, j), table, I.bump_matrix(twist, i, j)))
        zero = O.zeros3(n, n, n)
        dendriform.append((name, table, zero, twist))
        i, j, k = (rng.randrange(n) for _ in range(3))
        dendriform.append(("%s-right-bump%d%d%d" % (name, i, j, k), table, I.bump_table(zero, i, j, k), twist))
        dendriform.append(("%s-right-table" % name, table, table, twist))
        i, j, k = (rng.randrange(n) for _ in range(3))
        dendriform.append(("%s-left-bump%d%d%d" % (name, i, j, k), I.bump_table(table, i, j, k), zero, twist))
    return pre_lie, dendriform


PRE_LIE, DENDRIFORM = _cases()


def _triples(report):
    triples = [(f.identity, f.witness, f.residual) for f in report.failures]
    assert len(set(triples)) == len(triples)
    return set(triples)


def test_inputs_are_twisted_and_rational():
    assert len(PRE_LIE) == 80 and len(DENDRIFORM) == 80
    twists = [LinearMap(twist) for _, _, twist in PRE_LIE]
    assert all(t != LinearMap.identity(t.rows) for t in twists)
    assert any(isinstance(x, Fraction) for t in twists for row in t.entries for x in row)
    verdicts = [validate_hom_pre_lie(HomPreLieAlgebra(Tensor3(table), LinearMap(twist))).valid
                for _, table, twist in PRE_LIE]
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("name, table, twist", PRE_LIE, ids=[case[0] for case in PRE_LIE])
def test_hom_pre_lie_report_matches_oracle(name, table, twist):
    report = validate_hom_pre_lie(HomPreLieAlgebra(Tensor3(table), LinearMap(twist)))
    assert _triples(report) == O.hom_pre_lie_failures(table, twist)


@pytest.mark.parametrize("name, left, right, twist", DENDRIFORM, ids=[case[0] for case in DENDRIFORM])
def test_l_dendriform_report_matches_oracle(name, left, right, twist):
    report = validate_l_dendriform(HomLDendriform(Tensor3(left), Tensor3(right), LinearMap(twist)))
    assert _triples(report) == O.dendriform_failures(left, right, twist)


def _kronecker_p_condition(a, r):
    """check_P_condition's failures as (identity, witness, residual), computed
    with the n^2 x n^2 maps P(e_k) = L (x) alpha + alpha (x) L, for L the left
    multiplication by alpha^-2(e_k), gathered into an action table."""
    n = a.dim
    alpha = a.twist
    inv_sq = alpha.power(-2)
    lefts = [a.product.left_at(inv_sq.column(k)) for k in range(n)]
    table = action_table([tensor_product_map(lm, alpha) + tensor_product_map(alpha, lm) for lm in lefts], n * n)
    skew = r - r.flip()
    on_skew = table.right_at(tuple(c for row in skew.entries for c in row))     # x -> P(x) vec(S)
    out = []
    for i in range(n):
        at_alpha = table.left_at(alpha.column(i))
        for j in range(n):
            residual = sub_vectors(on_skew.apply(a.product.slice12(i, j)), at_alpha.apply(on_skew.column(j)))
            if any(residual):
                out.append(("p-condition", (i, j), residual))
    return out


def _p_condition_cases():
    """Each Yau-twisted algebra and one bump of its table, each with a seeded
    rational tensor that is neither symmetric nor skew."""
    algebras, _ = _algebras()
    rng = random.Random(16)
    out = []
    for name, table, twist in algebras:
        n = len(table)
        r = Tensor2([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        bumped = I.bump_table(table, rng.randrange(n), rng.randrange(n), rng.randrange(n))
        for label, t in (("", table), ("-bumped", bumped)):
            out.append((name + label, HomPreLieAlgebra(Tensor3(t), LinearMap(twist)), r))
    return out


P_CASES = _p_condition_cases()


@pytest.mark.parametrize("name, a, r", P_CASES, ids=[case[0] for case in P_CASES])
def test_p_condition_closed_form_matches_kronecker_path(name, a, r):
    report = check_P_condition(a, r)
    assert [(f.identity, f.witness, f.residual) for f in report.failures] == _kronecker_p_condition(a, r)


def test_p_condition_cases_include_failures():
    assert any(not check_P_condition(a, r).valid for _, a, r in P_CASES)
