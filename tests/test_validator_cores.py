"""The identity validators and check_P_condition on twisted rational inputs.

validate_hom_pre_lie and validate_l_dendriform are wrappers over integer cores
that search also runs; the cores bring a table's and a twist's denominators to
one scale, which identity-twist searches never exercise, and sum each instance
as one int packed with foundation._pack at the slot width of
foundation._instance_bits. Here each report's (identity, witness, residual) set
is compared with hom_pre_lie_failures and dendriform_failures of
bench/oracle.py, which recompute every identity with no hombench code. The
inputs come from bench/inputs.py: graded tables Yau-twisted by diag(lam^weight)
for lam in {2, 1/2, 2/3, -2}, moved by a basis change whose inverse has halves,
and their one-entry bumps. A second set scales such tables to numerators of
about 10^30 over a denominator near 10^12, twisted by a lam whose denominator
near 10^12 is coprime to it, and bumps single entries by that size; in the
graded basis such a bump fails some instances in one slot, so the slot width
is exercised where a too-narrow width would misread a residual.

Search runs the cores with the axiom instances first; on every input here
both orders must yield the same failing instances, the axioms-first run
yielding none exactly when the report is valid apart from twist invertibility.

check_P_condition computes P(x) vec(S) in closed form; it is compared with the
Kronecker path it replaced, rebuilt here from public functions, also on inputs
whose entries are all +-SIZE, which bring its residuals near the slot width.
"""

import importlib.util
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hombench import (HomLDendriform, HomPreLieAlgebra, LinearMap, Tensor2, Tensor3,
                      action_table, check_P_condition, tensor_product_map, validate_hom_pre_lie,
                      validate_l_dendriform)
from hombench.algebras import _hom_pre_lie_failures
from hombench.dendriform import _l_dendriform_failures
from hombench.foundation import sub_vectors, _instance_bits, _integer_family, _pack, _unpack

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAMBDAS = (2, Fraction(1, 2), Fraction(2, 3), -2)
SIZE = Fraction(3 * 10 ** 30 + 1, 10 ** 12 + 39)


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


def _scaled3(c, s):
    return [[[x * s for x in vec] for vec in plane] for plane in c]


def _bumped3(c, rng, by):
    """c with one entry, at a seeded index, raised by by; and that index."""
    n = len(c)
    i, j, k = (rng.randrange(n) for _ in range(3))
    out = [[list(vec) for vec in plane] for plane in c]
    out[i][j][k] += by
    return out, "%d%d%d" % (i, j, k)


def _big_cases():
    """(pre_lie, dendriform) cases as in _cases, on Yau-twisted tables scaled to
    numerators near 10^30 over a denominator near 10^12, twisted by lam with a
    numerator near 10^15 over a coprime denominator near 10^12, in the moved
    and in the graded basis, with one-entry bumps of the same size."""
    rng = random.Random(19)
    lam = Fraction(10 ** 15 + 37, 10 ** 12 + 61)
    families = [("novikov3", I.novikov(3)), ("novikov4", I.novikov(4)), ("upper3", I.upper(3)),
                ("two_step3", I.two_step(rng, [1, 2], [3]))]
    pre_lie, dendriform = [], []
    for family, (items, weights) in families:
        n = len(weights)
        alg = I.Algebra(items, weights, lam, I.with_rational_inverse(rng, n, 2 * n))
        for basis, table, twist in (("moved", alg.table, alg.twist), ("graded", alg.sparse_table, alg.sparse_twist)):
            name = "%s-%s" % (family, basis)
            table = _scaled3(table, SIZE)
            pre_lie.append((name, table, twist))
            for _ in range(2):
                bumped, at = _bumped3(table, rng, SIZE)
                pre_lie.append(("%s-bump%s" % (name, at), bumped, twist))
            i, j = rng.randrange(n), rng.randrange(n)
            moved = [list(row) for row in twist]
            moved[i][j] += lam ** 3
            pre_lie.append(("%s-twist-bump%d%d" % (name, i, j), table, moved))
            zero = O.zeros3(n, n, n)
            dendriform.append((name, table, zero, twist))
            dendriform.append(("%s-right-table" % name, table, table, twist))
            bumped, at = _bumped3(table, rng, SIZE)
            dendriform.append(("%s-left-bump%s" % (name, at), bumped, zero, twist))
            bumped, at = _bumped3(zero, rng, SIZE)
            dendriform.append(("%s-right-bump%s" % (name, at), table, bumped, twist))
    return pre_lie, dendriform


BIG_PRE_LIE, BIG_DENDRIFORM = _big_cases()


@pytest.mark.parametrize("n", [1, 2, 5, 10])
@pytest.mark.parametrize("w", [1, 2, 3, 8, 64, 200])
def test_pack_round_trips_slots_at_the_width_limit(n, w):
    top = (1 << (w - 1)) - 1
    for sign in (1, -1):
        v = [sign * (-1) ** m * top for m in range(n)]
        packed = _pack(v, w)
        assert _unpack(packed, w, n) == v
        assert (packed == 0) == (top == 0)


@pytest.mark.parametrize("w", [2, 3, 8, 64, 131])
def test_pack_is_zero_only_for_the_zero_vector(w):
    top = (1 << (w - 1)) - 1
    for n in range(1, 4):
        for v in itertools.product((-top, -1, 0, 1, top), repeat=n):
            packed = _pack(v, w)
            assert _unpack(packed, w, n) == list(v)
            assert (packed == 0) == (not any(v))


def test_big_inputs_are_large_rational_and_include_single_slot_failures():
    assert len(BIG_PRE_LIE) == 32 and len(BIG_DENDRIFORM) == 32
    for _, table, twist in BIG_PRE_LIE:
        entries = [Fraction(x) for plane in table for vec in plane for x in vec]
        assert max(abs(x.numerator) for x in entries) > 10 ** 30
        assert any(x.denominator % (10 ** 12 + 39) == 0 for x in entries)
        assert any(Fraction(x).denominator % (10 ** 12 + 61) == 0 for row in twist for x in row)
    reports = [validate_hom_pre_lie(HomPreLieAlgebra(Tensor3(table), LinearMap(twist)))
               for _, table, twist in BIG_PRE_LIE]
    reports += [validate_l_dendriform(HomLDendriform(Tensor3(left), Tensor3(right), LinearMap(twist)))
                for _, left, right, twist in BIG_DENDRIFORM]
    assert 0 < sum(r.valid for r in reports) < len(reports)
    failures = [f for r in reports for f in r.failures]
    assert any(sum(1 for x in f.residual if x) == 1 for f in failures)
    assert any(sum(1 for x in f.residual if x) > 1 for f in failures)


@pytest.mark.parametrize("name, table, twist", BIG_PRE_LIE, ids=[case[0] for case in BIG_PRE_LIE])
def test_big_hom_pre_lie_report_matches_oracle(name, table, twist):
    report = validate_hom_pre_lie(HomPreLieAlgebra(Tensor3(table), LinearMap(twist)))
    assert _triples(report) == O.hom_pre_lie_failures(table, twist)


@pytest.mark.parametrize("name, left, right, twist", BIG_DENDRIFORM, ids=[case[0] for case in BIG_DENDRIFORM])
def test_big_l_dendriform_report_matches_oracle(name, left, right, twist):
    report = validate_l_dendriform(HomLDendriform(Tensor3(left), Tensor3(right), LinearMap(twist)))
    assert _triples(report) == O.dendriform_failures(left, right, twist)


def test_dim0_reports_are_valid():
    empty, twist = Tensor3.zero(0, 0, 0), LinearMap.identity(0)
    assert validate_hom_pre_lie(HomPreLieAlgebra(empty, twist)).to_dict() == {"valid": True, "failures": []}
    assert validate_l_dendriform(HomLDendriform(empty, empty, twist)).to_dict() == {"valid": True, "failures": []}


def _dim1(c):
    return Tensor3(((((c,),),)))


DIM1_PRE_LIE = [
    (5, 1, []),
    (Fraction(3, 2), 2, [("twist-product-morphism", (0, 0), (-3,))]),
    (Fraction(7, 3), Fraction(-1, 2), [("twist-product-morphism", (0, 0), (Fraction(-7, 4),))]),
    (Fraction(7, 3), 0, [("twist-invertible", (), ())]),
]
DIM1_DENDRIFORM = [
    (1, 0, 1, []),
    (2, 3, 1, [("right-axiom", (0, 0, 0), (6,))]),
    (Fraction(3, 2), Fraction(-2, 5), 2, [("twist-left-morphism", (0, 0), (-3,)),
                                          ("twist-right-morphism", (0, 0), (Fraction(4, 5),)),
                                          ("right-axiom", (0, 0, 0), (Fraction(-6, 5),))]),
    (4, 1, 0, [("twist-invertible", (), ())]),
]


@pytest.mark.parametrize("product, alpha, failures", DIM1_PRE_LIE)
def test_dim1_hom_pre_lie_reports(product, alpha, failures):
    report = validate_hom_pre_lie(HomPreLieAlgebra(_dim1(product), LinearMap(((alpha,),))))
    assert [(f.identity, f.witness, f.residual) for f in report.failures] == failures


@pytest.mark.parametrize("left, right, alpha, failures", DIM1_DENDRIFORM)
def test_dim1_l_dendriform_reports(left, right, alpha, failures):
    report = validate_l_dendriform(HomLDendriform(_dim1(left), _dim1(right), LinearMap(((alpha,),))))
    assert [(f.identity, f.witness, f.residual) for f in report.failures] == failures


def _order_cases():
    """(name, core, tables, twist, validate): every pre-Lie and dendriform input
    above, the big ones, the dim-1 ones and dim 0, as the objects each core's
    validator reads."""
    empty, eye0 = Tensor3.zero(0, 0, 0), LinearMap.identity(0)
    pre_lie = [(name, [Tensor3(table)], LinearMap(twist)) for name, table, twist in PRE_LIE + BIG_PRE_LIE]
    pre_lie += [("dim1-%s-%s" % (c, alpha), [_dim1(c)], LinearMap(((alpha,),))) for c, alpha, _ in DIM1_PRE_LIE]
    pre_lie.append(("dim0", [empty], eye0))
    dendriform = [(name, [Tensor3(left), Tensor3(right)], LinearMap(twist))
                  for name, left, right, twist in DENDRIFORM + BIG_DENDRIFORM]
    dendriform += [("dim1-%s-%s-%s" % (lt, rt, alpha), [_dim1(lt), _dim1(rt)], LinearMap(((alpha,),)))
                   for lt, rt, alpha, _ in DIM1_DENDRIFORM]
    dendriform.append(("dim0", [empty, empty], eye0))
    return ([("pre_lie-" + name, _hom_pre_lie_failures, tables, twist,
              lambda tables, twist: validate_hom_pre_lie(HomPreLieAlgebra(*tables, twist)))
             for name, tables, twist in pre_lie]
            + [("dendriform-" + name, _l_dendriform_failures, tables, twist,
                lambda tables, twist: validate_l_dendriform(HomLDendriform(*tables, twist)))
               for name, tables, twist in dendriform])


ORDER_CASES = _order_cases()


@pytest.mark.parametrize("name, core, tables, twist, validate", ORDER_CASES,
                         ids=[case[0] for case in ORDER_CASES])
def test_axioms_first_order_yields_the_same_failures(name, core, tables, twist, validate):
    """Search runs the cores with the axioms first, report order runs
    multiplicativity first: both yield the same (identity, witness, total)
    items, and the axioms-first run yields nothing exactly when the report is
    valid apart from twist invertibility, which the cores do not check."""
    d, planes = _integer_family(tables)
    e, (rows,) = _integer_family([twist])
    table_max = max((abs(x) for table in planes for plane in table for v in plane for x in v), default=0)
    twist_max = max((abs(x) for row in rows for x in row), default=0)
    args = (*planes, d, list(zip(*rows)), e, _instance_bits(twist.rows, table_max, d, twist_max, e))
    in_report_order = [item[:3] for item in core(*args)]
    axioms_first = [item[:3] for item in core(*args, axioms_first=True)]
    assert len(set(in_report_order)) == len(in_report_order) == len(axioms_first)
    assert set(in_report_order) == set(axioms_first)
    identities = [f.identity for f in validate(tables, twist).failures if f.identity != "twist-invertible"]
    assert identities == [identity for identity, _, _ in in_report_order]
    assert (next(core(*args, axioms_first=True), None) is None) == (not identities)


def test_order_cases_include_axiom_and_multiplicativity_failures():
    """Both orders are compared on inputs that fail only an axiom, only
    multiplicativity, and both, for each core."""
    for prefix, axioms, morphisms in (("pre_lie", {"twisted-associator-symmetry"}, {"twist-product-morphism"}),
                                      ("dendriform", {"left-axiom", "right-axiom"},
                                       {"twist-left-morphism", "twist-right-morphism"})):
        kinds = set()
        for name, _, tables, twist, validate in ORDER_CASES:
            if name.startswith(prefix):
                found = {f.identity for f in validate(tables, twist).failures}
                kinds.add((bool(found & axioms), bool(found & morphisms)))
        assert {(True, False), (False, True), (True, True), (False, False)} <= kinds


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
    rational tensor that is neither symmetric nor skew; and dim-2 and dim-3
    inputs whose table, twist and tensor entries are all +-SIZE with seeded
    signs, so that the ints of every role are large and failing residuals come
    near the slot width's limit."""
    algebras, _ = _algebras()
    rng = random.Random(16)
    out = []
    for name, table, twist in algebras:
        n = len(table)
        r = Tensor2([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])
        bumped = I.bump_table(table, rng.randrange(n), rng.randrange(n), rng.randrange(n))
        for label, t in (("", table), ("-bumped", bumped)):
            out.append((name + label, HomPreLieAlgebra(Tensor3(t), LinearMap(twist)), r))

    def signed(*shape):
        if len(shape) == 1:
            return [rng.choice((-1, 1)) * SIZE for _ in range(shape[0])]
        return [signed(*shape[1:]) for _ in range(shape[0])]

    for n in (2, 3):
        for copy in range(3):
            twist = LinearMap(signed(n, n))
            while not twist.is_invertible():
                twist = LinearMap(signed(n, n))
            out.append(("signed%d-%d" % (n, copy), HomPreLieAlgebra(Tensor3(signed(n, n, n)), twist),
                        Tensor2(signed(n, n))))
    return out


P_CASES = _p_condition_cases()


@pytest.mark.parametrize("name, a, r", P_CASES, ids=[case[0] for case in P_CASES])
def test_p_condition_closed_form_matches_kronecker_path(name, a, r):
    report = check_P_condition(a, r)
    assert [(f.identity, f.witness, f.residual) for f in report.failures] == _kronecker_p_condition(a, r)


def test_p_condition_cases_include_failures():
    assert any(not check_P_condition(a, r).valid for _, a, r in P_CASES)
