"""Tests of the benchmark's oracle, its correctness checks and its entry point.

Run with ``python3 -m pytest bench/selftest.py``.

The oracle tests check properties the method must have; the check tests feed
each workload's checker one round of real outputs and then corrupted copies,
each of which must be reported.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import hombench as hb  # noqa: E402
import hombench.cli  # noqa: E402,F401

import desk  # noqa: E402
import inputs as I  # noqa: E402
import oracle as O  # noqa: E402
import scan  # noqa: E402
import sweep  # noqa: E402
import tracer as tracing  # noqa: E402

FAMILIES = [("novikov-3", I.novikov(3)), ("novikov-4", I.novikov(4)), ("upper-3", I.upper(3))]
LAMS = (2, -1, Fraction(1, 2), 3)


def _two_step():
    return I.two_step(I.skeleton_rng("tests"), [1, -1], [0, 2])


def _all_families():
    return FAMILIES + [("two-step", _two_step())]


def _transport_family(p, maps):
    """rho'(e_i) = sum_j Q[j][i] P rho_j Q for x' = P x, Q = P^-1."""
    q = O.inverse(p)
    n = len(maps)
    moved = [O.matmul(O.matmul(p, m), q) for m in maps]
    size = len(maps[0])
    return [[[sum(q[j][i] * moved[j][a][b] for j in range(n)) for b in range(size)]
             for a in range(size)] for i in range(n)]


def test_yau_twist_of_valid_pre_lie_is_valid():
    for name, (items, weights) in _all_families():
        n = len(weights)
        table = O.dense3(items, n)
        assert not O.hom_pre_lie_failures(table, O.identity(n)), name
        for lam in LAMS:
            alpha = I.graded_twist(weights, lam)
            assert O.is_automorphism(table, alpha), (name, lam)
            twisted, twist = O.yau_twist(table, alpha)
            assert not O.hom_pre_lie_failures(twisted, twist), (name, lam)
            assert not O.hom_lie_failures(I.commutator(twisted), twist), (name, lam)
            assert not O.dendriform_failures(twisted, O.zeros3(n, n, n), twist), (name, lam)


def test_basis_change_preserves_every_verdict():
    rng = I.skeleton_rng("tests-basis")
    for name, (items, weights) in _all_families():
        n = len(weights)
        for lam in (2, -1):
            alg = I.Algebra(items, weights, lam, O.identity(n))
            spots = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
            for table in [alg.sparse_table] + [I.bump_table(alg.sparse_table, *rng.choice(spots))
                                               for _ in range(3)]:
                twist = alg.sparse_twist
                zero = O.zeros3(n, n, n)
                before = (bool(O.hom_pre_lie_failures(table, twist)),
                          bool(O.hom_lie_failures(I.commutator(table), twist)),
                          bool(O.dendriform_failures(table, zero, twist)))
                for p in (I.unimodular(rng, n, 2 * n), I.with_rational_inverse(rng, n, 2 * n)):
                    moved, moved_twist = O.basis_change(table, twist, p)
                    after = (bool(O.hom_pre_lie_failures(moved, moved_twist)),
                             bool(O.hom_lie_failures(I.commutator(moved), moved_twist)),
                             bool(O.dendriform_failures(moved, zero, moved_twist)))
                    assert before == after, (name, lam, p)


def test_basis_change_preserves_s_matrix_and_o_operator_verdicts():
    rng = I.skeleton_rng("tests-smatrix")
    items, weights = I.novikov(3)
    alg = I.Algebra(items, weights, -1, O.identity(3))
    good, bad = I.solutions_in_sparse_basis(alg)
    assert good and bad
    c, twist = alg.sparse_table, alg.sparse_twist
    left, right = I.left_matrices(c), I.right_matrices(c)
    operators = [O.identity(3), O.zeros3(1, 3, 3)[0], twist, [[0, 0, 0], [0, 0, 0], [1, 0, 0]]]
    for p in (I.unimodular(rng, 3, 6), I.with_rational_inverse(rng, 3, 6)):
        moved, moved_twist = O.basis_change(c, twist, p)
        for r in good + bad:
            assert O.is_s_matrix(moved, moved_twist, I.transport_tensor(p, r)) == (r in good)
        q = O.inverse(p)
        m_left, m_right = _transport_family(p, left), _transport_family(p, right)
        for t in operators:
            before = O.o_operator_failures(c, twist, left, right, twist, t)
            after = O.o_operator_failures(moved, moved_twist, m_left, m_right, moved_twist,
                                          O.matmul(O.matmul(p, t), q))
            assert bool(before) == bool(after)


def test_bump_of_sparse_valid_table_leaves_nonzero_residual():
    rng = I.skeleton_rng("tests-bump")
    for name, (items, weights) in _all_families():
        n = len(weights)
        for lam in LAMS:
            alg = I.Algebra(items, weights, lam, O.identity(n))
            eig = [alg.sparse_twist[i][i] for i in range(n)]
            slots = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
                     if eig[k] != eig[i] * eig[j]]
            for (i, j, k) in rng.sample(slots, min(8, len(slots))):
                found = O.hom_pre_lie_failures(I.bump_table(alg.sparse_table, i, j, k),
                                               alg.sparse_twist)
                expected = tuple(eig[k] - eig[i] * eig[j] if w == k else 0 for w in range(n))
                assert ("twist-product-morphism", (i, j), expected) in found


def _failure_set(report):
    return {(f.identity, f.witness, f.residual) for f in report.failures}


def test_oracle_failure_sets_match_the_validators_on_bumped_tables():
    rng = I.skeleton_rng("tests-cross")
    for name, (items, weights) in FAMILIES[:3]:
        n = len(weights)
        alg = I.Algebra(items, weights, 2, I.unimodular(rng, n, 2 * n))
        for _ in range(3):
            spot = (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            c = I.bump_table(alg.table, *spot)
            a = hb.HomPreLieAlgebra(hb.Tensor3.from_entries((n, n, n), O.sparse3(c)),
                                    hb.LinearMap(I.matrix_entries(alg.twist)))
            assert _failure_set(hb.validate_hom_pre_lie(a)) == O.hom_pre_lie_failures(c, alg.twist)
            lie = I.commutator(c)
            g = hb.HomLieAlgebra(hb.Tensor3.from_entries((n, n, n), O.sparse3(lie)), a.twist)
            assert _failure_set(hb.validate_hom_lie(g)) == O.hom_lie_failures(lie, alg.twist)
            right = I.bump_table(O.zeros3(n, n, n), *spot)
            d = hb.HomLDendriform(a.product, hb.Tensor3.from_entries((n, n, n), O.sparse3(right)),
                                  a.twist)
            assert _failure_set(hb.validate_l_dendriform(d)) == \
                O.dendriform_failures(c, right, alg.twist)


def _sweep_case():
    instances = sweep.build_instances(I.skeleton_rng("tests-sweep"), I.rng_for("tests", 1),
                                      kinds=(sweep.BASE_KINDS[1],))
    return instances, sweep.expectations(instances), [sweep.run_instance(hb, inst)
                                                      for inst in instances]


def test_sweep_checks_pass_on_real_outputs_and_fail_on_corrupted_ones():
    instances, expected, records = _sweep_case()
    assert sweep.check_sweep(instances, expected, records) == []
    pos = next(i for i, inst in enumerate(instances) if inst.positive)
    neg = next(i for i, inst in enumerate(instances) if not inst.positive)
    double = next(i for i, inst in enumerate(instances)
                  if inst.family == "lie-double" and not inst.positive)

    def corrupt(index, verdicts=None, failures="keep"):
        out = list(records)
        old_verdicts, old_failures = out[index]
        out[index] = (old_verdicts if verdicts is None else verdicts,
                      old_failures if failures == "keep" else failures)
        return out

    n_sides = len(records[pos][0])
    assert sweep.check_sweep(instances, expected, corrupt(pos, (True,) + (False,) * (n_sides - 1)))
    assert sweep.check_sweep(instances, expected, corrupt(pos, (False,) * n_sides))
    assert sweep.check_sweep(instances, expected, corrupt(neg, (True,) * len(records[neg][0])))
    assert sweep.check_sweep(instances, expected,
                             corrupt(double, failures=frozenset(list(records[double][1])[1:])))
    keep = [i for i, inst in enumerate(instances) if inst.positive]
    assert sweep.check_sweep([instances[i] for i in keep], [expected[i] for i in keep],
                             [records[i] for i in keep])


def test_sweep_negatives_that_the_oracle_accepts_are_reported():
    instances, expected, records = _sweep_case()
    for family in sweep.FAMILIES:
        index = next(i for i, inst in enumerate(instances)
                     if inst.family == family and not inst.positive)
        positive = next(inst for inst in instances if inst.family == family and inst.positive)
        fake = sweep.Instance(family, False, positive.n, positive.data)
        swapped = list(instances)
        swapped[index] = fake
        problems = sweep.check_sweep(swapped, sweep.expectations(swapped), records)
        assert any("oracle does not confirm" in p for p in problems), family


CHEAP_DESK = ("hpl8-int", "hpl8-int-basis2", "tri-equiv4-bumped", "triangular5",
              "coboundary-rep4")


@pytest.fixture(scope="module")
def desk_case(tmp_path_factory):
    work = desk.DeskScale(hb, 1, str(tmp_path_factory.mktemp("desk")))
    commands = [cmd for cmd in work.commands if cmd.label in CHEAP_DESK]
    expect = {k: v for k, v in work.expect.items() if k in CHEAP_DESK}
    return commands, expect, [desk.run_command(hb, cmd) for cmd in commands]


def test_desk_checks_pass_on_real_outputs_and_fail_on_corrupted_ones(desk_case):
    commands, expect, records = desk_case
    assert desk.check_desk(hb, commands, expect, records) == []
    labels = [r[0] for r in records]

    def corrupt(label, **changes):
        out = list(records)
        i = labels.index(label)
        fields = dict(zip(("label", "code", "stdout", "stderr", "produced"), out[i]))
        fields.update(changes)
        out[i] = tuple(fields[k] for k in ("label", "code", "stdout", "stderr", "produced"))
        return out

    assert desk.check_desk(hb, commands, expect, corrupt("hpl8-int", code=1))
    problems = desk.check_desk(hb, commands, expect, corrupt("hpl8-int-basis2", code=1))
    assert any("two bases" in p for p in problems)
    payload = json.loads(records[labels.index("tri-equiv4-bumped")][2])
    payload["report"]["details"]["bialgebra"]["valid"] = True
    assert desk.check_desk(hb, commands, expect,
                           corrupt("tri-equiv4-bumped", stdout=json.dumps(payload)))
    derived = records[labels.index("coboundary-rep4")][4]
    assert desk.check_desk(hb, commands, expect,
                           corrupt("coboundary-rep4", produced=derived + "\n"))
    assert desk.check_desk(hb, commands, expect,
                           corrupt("triangular5", produced=""))


def test_desk_oracle_rejects_a_wrong_expected_verdict(desk_case):
    commands, expect, records = desk_case
    flipped = [desk.Command(c.label, c.argv, 1, c.out, False, c.oracle_valid)
               if c.label == "hpl8-int" else c for c in commands]
    problems = desk.check_desk(hb, flipped, expect,
                               [(l, 1 if l == "hpl8-int" else code, o, e, p)
                                for (l, code, o, e, p) in records])
    assert any("oracle disagrees" in p for p in problems)


def test_scan_checks_pass_on_real_outputs_and_fail_on_corrupted_ones():
    work = scan.SearchScan(hb, 1, None)
    searches = [s for s in work.searches if s.target in ("hom_pre_lie", "s_matrix", "o_operator")
                and s.dim < 4]
    records = [work._run(s) for s in searches]
    count = work.expected_tables
    assert scan.check_scan(hb, searches, records, count) == []
    labels = [r[0] for r in records]

    def replace(label, text=None, count=None):
        out = list(records)
        i = labels.index(label)
        old = out[i]
        out[i] = (old[0], old[1] if text is None else text, old[2] if count is None else count)
        return out

    hpl = records[labels.index("hom_pre_lie-dim2")]
    docs = hb.parse_documents(hpl[1])
    fewer = hb.serialize_documents(docs[1:])
    problems = scan.check_scan(hb, searches, replace("hom_pre_lie-dim2", fewer, len(docs) - 1),
                               count)
    assert any("the oracle counts" in p for p in problems)
    limit = next(s for s in searches if s.target == "hom_pre_lie").total + 1
    assert scan.check_scan(hb, searches, replace("hom_pre_lie-dim2", count=limit), count)

    smat = next(s for s in searches if s.target == "s_matrix")
    wrong = hb.Tensor2(((1, 1, 0), (1, 0, 0), (0, 0, 0)))
    assert not O.is_s_matrix(smat.table, smat.twist, [list(r) for r in wrong.entries])
    text = hb.serialize_documents([hb.document_for(wrong)])
    problems = scan.check_scan(hb, searches, replace(smat.label, text, 1), count)
    assert any("fails the oracle" in p for p in problems)

    oop = next(s for s in searches if s.target == "o_operator")
    rep = work._spec(oop).base
    wrong_op = hb.OOperator(rep, hb.LinearMap(((1, 0), (0, 1))))
    assert O.o_operator_failures(oop.table, oop.twist, [m.entries for m in rep.left],
                                 [m.entries for m in rep.right], rep.twist.entries,
                                 [[1, 0], [0, 1]])
    text = hb.serialize_documents([hb.document_for(wrong_op)])
    problems = scan.check_scan(hb, searches, replace(oop.label, text, 1), count)
    assert any("fails the oracle" in p for p in problems)


def test_seeds_relabel_inputs_without_changing_their_work():
    a = sweep.build_instances(I.skeleton_rng("tests-seed"), I.rng_for("tests", 1),
                              kinds=(sweep.BASE_KINDS[2],))
    b = sweep.build_instances(I.skeleton_rng("tests-seed"), I.rng_for("tests", 2),
                              kinds=(sweep.BASE_KINDS[2],))
    assert [x.data for x in a] != [y.data for y in b]
    for x, y in zip(a, b):
        assert (x.family, x.positive) == (y.family, y.positive)
        for key in x.data:
            flat_x = sorted(abs(v) for v in _flatten(x.data[key]))
            flat_y = sorted(abs(v) for v in _flatten(y.data[key]))
            assert flat_x == flat_y, key


def _flatten(value):
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _flatten(item)
    else:
        yield value


def test_tracer_counts_and_restores_every_binding():
    tracer = tracing.Tracer(hb)
    original = hb.validate_hom_pre_lie
    registry = hb.checks._VALIDATORS["hom_pre_lie"]
    init = hb.LinearMap.__init__
    tracer.install()
    try:
        assert hb.checks._VALIDATORS["hom_pre_lie"] is not registry
        a = hb.HomPreLieAlgebra(hb.Tensor3.from_entries((3, 3, 3), {(0, 0, 1): 1}),
                                hb.LinearMap.identity(3))
        tracer.recording = True
        hb.checks.run_validate(hb.Document("hom_pre_lie", a))
        tracer.recording = False
        snap = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert snap["calls"]["algebras.validate_hom_pre_lie"] == 1
    assert snap["calls"]["checks.run_validate"] == 1
    assert snap["counts"]["algebras.identity_instances"] == 1 + 9 + 9
    assert snap["calls"]["foundation.inverse"] == 1
    assert snap["self_s"]["checks.run_validate"] >= 0
    assert hb.validate_hom_pre_lie is original
    assert hb.checks._VALIDATORS["hom_pre_lie"] is registry
    assert hb.LinearMap.__init__ is init


def test_command_fails_loudly_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "theorem-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=str(tmp_path), env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
    assert "hombench" in proc.stderr
