"""theorem-sweep: small Yau-twisted candidates fed to the library directly.

Each instance goes through one of the paper's equivalences with every side
computed by the library; a verdict is one instance. Inputs are built in the
benchmark's own arithmetic during set-up and turned into library objects inside
each round, so object construction and scalar coercion are part of the
measured work.
"""

import functools
from fractions import Fraction

import inputs as I
import oracle as O

FAMILIES = ("lie-double", "pre-lie-double", "bialgebra-tri", "smatrix-ooperator",
            "semidirect-smatrix")

# (family, dimension, twist eigenvalue choices, needs solutions) for the bases
# of one round. A base that needs solutions is redrawn until it has a nonzero
# intertwining symmetric solution and an intertwining non-solution, which the
# s-matrix families use. The skeleton generator draws coefficients, eigenvalue
# and basis change; the seed only relabels.
BASE_KINDS = (
    ("novikov", 2, (2, 3, Fraction(1, 2), -2), False),
    ("two_step", 3, (2, 3, Fraction(1, 2), -2, Fraction(2, 3)), True),
    ("novikov", 3, (-1,), True),
    ("upper", 3, (2, Fraction(1, 3), -3), False),
    ("novikov", 2, (-1,), True),
)


def _base(rng, kind, n, lams, needs_solutions):
    while True:
        if kind == "novikov":
            items, weights = I.novikov(n)
        elif kind == "upper":
            items, weights = I.upper(3)
        else:
            items, weights = I.two_step(rng, [1, -1], [0])
        lam = rng.choice(lams)
        p = (I.with_rational_inverse if rng.random() < 0.5 else I.unimodular)(rng, n, 2 * n)
        a = I.Algebra(items, weights, lam, p)
        good, bad = I.solutions_in_sparse_basis(a)
        nontrivial = [r for r in good if any(any(row) for row in r)]
        if not needs_solutions or (nontrivial and bad):
            return a, good, bad


class Instance:
    __slots__ = ("family", "positive", "n", "data")

    def __init__(self, family, positive, n, data):
        self.family = family
        self.positive = positive
        self.n = n
        self.data = data


def _bumped_action(rng, mats, breaks, n):
    """Bump one action-matrix entry, choosing the first seeded position whose
    double fails in the oracle."""
    positions = [(x, w, v) for x in range(n) for w in range(n) for v in range(n)]
    rng.shuffle(positions)
    for (x, w, v) in positions:
        bumped = [I.bump_matrix(m, w, v) if idx == x else m for idx, m in enumerate(mats)]
        if breaks(bumped):
            return bumped
    raise RuntimeError("no breaking bump found")


def lie_double_table(bracket, action, n):
    """Oracle-side double of (g, abelian copy, action, 0)."""
    c = O.zeros3(2 * n, 2 * n, 2 * n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i][j][k] = bracket[i][j][k]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v = action[i][k][j]
                c[i][n + j][n + k] = v
                c[n + j][i][n + k] = -v
    return c


def pre_lie_double_table(product, left, right, n):
    """Oracle-side double of (a, abelian copy, left, right, 0, 0)."""
    c = O.zeros3(2 * n, 2 * n, 2 * n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i][j][k] = product[i][j][k]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i][n + j][n + k] = left[i][k][j]
                c[n + j][i][n + k] = right[i][k][j]
    return c


def direct_sum(a, b):
    n, m = len(a), len(b)
    out = [[0] * (n + m) for _ in range(n + m)]
    for i in range(n):
        out[i][:n] = list(a[i])
    for i in range(m):
        out[n + i][n:] = list(b[i])
    return out


TABLES = ("table", "bracket")
OPERATORS = ("twist", "dual_twist", "r", "t")       # the rest are action families


def relabel(inst, perm):
    data = {}
    for key, value in inst.data.items():
        if key in TABLES:
            data[key] = perm.table(value)
        elif key in OPERATORS:
            data[key] = perm.operator(value)
        else:
            data[key] = perm.family(value)
    return Instance(inst.family, inst.positive, inst.n, data)


def build_instances(skeleton, seeded, kinds=BASE_KINDS):
    """The skeleton generator fixes the instances; the seeded one relabels each
    base's instances by its own signed permutation."""
    out = []
    for kind, n, lams, needs_solutions in kinds:
        perm = I.SignedPermutation(seeded, n)
        out.extend(relabel(inst, perm)
                   for inst in base_instances(skeleton, kind, n, lams, needs_solutions))
    return out


def base_instances(rng, kind, n, lams, needs_solutions):
    out = []
    a, good, bad = _base(rng, kind, n, lams, needs_solutions)
    c, tw = a.table, a.twist
    dtw = direct_sum(tw, tw)
    lie = I.commutator(c)
    ad = I.left_matrices(lie)
    left, right = I.left_matrices(c), I.right_matrices(c)
    base = {"table": c, "twist": tw}

    out.append(Instance("lie-double", True, n, dict(base, bracket=lie, action=ad)))
    bad_ad = _bumped_action(rng, ad, lambda m: O.hom_lie_failures(
        lie_double_table(lie, m, n), dtw), n)
    out.append(Instance("lie-double", False, n, dict(base, bracket=lie, action=bad_ad)))

    out.append(Instance("pre-lie-double", True, n, dict(base, left=left, right=right)))
    bad_left = _bumped_action(rng, left, lambda m: O.hom_pre_lie_failures(
        pre_lie_double_table(c, m, right, n), dtw), n)
    out.append(Instance("pre-lie-double", False, n, dict(base, left=bad_left, right=right)))

    nontrivial = [r for r in good if any(any(row) for row in r)] or good
    r_good = I.transport_tensor(a.p, rng.choice(nontrivial))
    dual_twist = O.transpose(O.inverse(tw))
    out.append(Instance("bialgebra-tri", True, n, dict(base, r=r_good)))
    spots = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    rng.shuffle(spots)
    bumped = next(I.bump_table(c, *s) for s in spots
                  if O.hom_pre_lie_failures(I.bump_table(c, *s), tw))
    out.append(Instance("bialgebra-tri", False, n,
                        dict(base, table=bumped, dual_twist=dual_twist)))

    out.append(Instance("smatrix-ooperator", True, n, dict(base, r=r_good)))
    diag = list(range(n))
    rng.shuffle(diag)
    r_bad = next(b for b in (I.bump_matrix(I.bump_matrix(r_good, i, j), j, i) if i != j
                             else I.bump_matrix(r_good, i, i)
                             for i in diag for j in diag)
                 if not O.is_s_matrix(c, tw, b))
    out.append(Instance("smatrix-ooperator", False, n, dict(base, r=r_bad)))

    if bad:
        out.append(Instance("semidirect-smatrix", True, n, dict(base, t=r_good)))
        t_bad = I.transport_tensor(a.p, rng.choice(bad))
        out.append(Instance("semidirect-smatrix", False, n, dict(base, t=t_bad)))
    return out


def _fails(report):
    return frozenset((f.identity, f.witness, f.residual) for f in report.failures)


def _hpl(hb, table, twist):
    n = len(table)
    return hb.HomPreLieAlgebra(hb.Tensor3.from_entries((n, n, n), O.sparse3(table)),
                               hb.LinearMap(I.matrix_entries(twist)))


def run_instance(hb, inst):
    """Run one instance through the library; returns a comparable record."""
    d = inst.data
    n = inst.n
    if inst.family == "lie-double":
        tw = hb.LinearMap(I.matrix_entries(d["twist"]))
        g = hb.HomLieAlgebra(hb.Tensor3.from_entries((n, n, n), O.sparse3(d["bracket"])), tw)
        h = hb.HomLieAlgebra(hb.Tensor3.zero(n, n, n), tw)
        mp = hb.LieMatchedPair(g, h, [hb.LinearMap(I.matrix_entries(m)) for m in d["action"]],
                               [hb.LinearMap.zero(n, n)] * n)
        pair = hb.validate_matched_pair_lie(mp)
        double = hb.validate_hom_lie(hb.double_lie(mp))
        return (pair.valid, double.valid), _fails(double)
    if inst.family == "pre-lie-double":
        a = _hpl(hb, d["table"], d["twist"])
        b = hb.HomPreLieAlgebra(hb.Tensor3.zero(n, n, n), a.twist)
        zero = [hb.LinearMap.zero(n, n)] * n
        mp = hb.PreLieMatchedPair(a, b, [hb.LinearMap(I.matrix_entries(m)) for m in d["left"]],
                                  [hb.LinearMap(I.matrix_entries(m)) for m in d["right"]],
                                  zero, zero)
        pair = hb.validate_matched_pair_pre_lie(mp)
        double = hb.validate_hom_pre_lie(hb.double_pre_lie(mp))
        return (pair.valid, double.valid), _fails(double)
    if inst.family == "bialgebra-tri":
        a = _hpl(hb, d["table"], d["twist"])
        if inst.positive:
            adual = hb.dual_product_from_r(a, hb.Tensor2(I.matrix_entries(d["r"])))
        else:
            adual = hb.HomPreLieAlgebra(hb.Tensor3.zero(n, n, n),
                                        hb.LinearMap(I.matrix_entries(d["dual_twist"])))
        rep = hb.check_equivalence_theorem(a, adual)
        det = rep.details
        return (det["bialgebra"].valid, det["matched_pair"].valid, det["manin_triple"].valid), None
    if inst.family == "smatrix-ooperator":
        a = _hpl(hb, d["table"], d["twist"])
        rep = hb.check_smatrix_ooperator_equiv(a, hb.Tensor2(I.matrix_entries(d["r"])))
        return (rep.details["s_matrix"], rep.details["o_operator"].valid), None
    a = _hpl(hb, d["table"], d["twist"])
    built = hb.semidirect_smatrix(a, hb.coadjoint_pre_lie_rep(a),
                                  hb.LinearMap(I.matrix_entries(d["t"])))
    det = built.verdict.details
    return (det["s_matrix"], det["o_operator"].valid), None


class TheoremSweep:
    name = "theorem-sweep"

    def __init__(self, hb, seed, workdir):
        self.hb = hb
        self.instances = build_instances(I.skeleton_rng(self.name),
                                         I.rng_for(self.name, seed))
        self.expected = expectations(self.instances)

    verdicts_per_round = None      # one verdict per step

    def steps(self):
        hb = self.hb
        return [functools.partial(run_instance, hb, inst) for inst in self.instances]

    def check(self, records):
        return check_sweep(self.instances, self.expected, records)


def _oracle_negative(inst):
    """True when the oracle confirms that a negative instance is invalid."""
    d = inst.data
    n = inst.n
    dtw = direct_sum(d["twist"], d["twist"])
    if inst.family == "lie-double":
        return bool(O.hom_lie_failures(lie_double_table(d["bracket"], d["action"], n), dtw))
    if inst.family == "pre-lie-double":
        return bool(O.hom_pre_lie_failures(
            pre_lie_double_table(d["table"], d["left"], d["right"], n), dtw))
    if inst.family == "bialgebra-tri":
        return bool(O.hom_pre_lie_failures(d["table"], d["twist"]))
    if inst.family == "smatrix-ooperator":
        return not O.is_s_matrix(d["table"], d["twist"], d["r"])
    left, right, beta = O.coadjoint_rep(d["table"], d["twist"])
    return bool(O.o_operator_failures(d["table"], d["twist"], left, right, beta,
                                      O.matmul(d["t"], beta)))


def _oracle_double_failures(inst):
    d = inst.data
    n = inst.n
    dtw = direct_sum(d["twist"], d["twist"])
    if inst.family == "lie-double":
        return O.hom_lie_failures(lie_double_table(d["bracket"], d["action"], n), dtw)
    return O.hom_pre_lie_failures(pre_lie_double_table(d["table"], d["left"], d["right"], n), dtw)


def expectations(instances):
    """What the oracle says about each instance, computed at set-up:
    (negative confirmed invalid or None, nonzero residual set of the double or None)."""
    out = []
    for inst in instances:
        confirmed = None if inst.positive else _oracle_negative(inst)
        failures = (frozenset(_oracle_double_failures(inst))
                    if inst.family in ("lie-double", "pre-lie-double") else None)
        out.append((confirmed, failures))
    return out


def check_sweep(instances, expected, records):
    """Problems found in one round's records; empty when every check passes."""
    problems = []
    seen = {f: set() for f in FAMILIES}
    if len(records) != len(instances):
        return ["%d records for %d instances" % (len(records), len(instances))]
    for idx, (inst, (confirmed, oracle_failures), (verdicts, failures)) in enumerate(
            zip(instances, expected, records)):
        label = "%s #%d (%s)" % (inst.family, idx, "positive" if inst.positive else "negative")
        if len(set(verdicts)) != 1:
            problems.append("%s: sides disagree %r" % (label, verdicts))
            continue
        verdict = verdicts[0]
        seen[inst.family].add(verdict)
        if inst.positive and not verdict:
            problems.append("%s: built by theory but judged invalid" % label)
        if not inst.positive:
            if verdict:
                problems.append("%s: bumped instance judged valid" % label)
            if not confirmed:
                problems.append("%s: oracle does not confirm the negative" % label)
        if failures is not None and failures != oracle_failures:
            problems.append("%s: failure set differs from the oracle's" % label)
    for family, verdicts in seen.items():
        if verdicts != {True, False}:
            problems.append("%s: verdicts %r, expected both" % (family, sorted(verdicts)))
    return problems
