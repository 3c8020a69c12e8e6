"""desk-scale: a few large instances, written as canonical documents and driven
through the command-line entry point in-process.

A verdict is one CLI command. Dense instances are basis changes of sparse
Yau-twisted ones, so every expected exit code is known by construction; the
oracle confirms the validate verdicts independently.
"""

import contextlib
import functools
import io
import json
import os
from fractions import Fraction

import inputs as I
import oracle as O


def _scalar(x):
    return str(Fraction(x))


def _matrix_lines(key, m):
    return [key + ":"] + [" ".join(_scalar(x) for x in row) for row in m]


def _table_lines(key, c):
    return [key + ":"] + ["%d %d %d %s" % (i, j, k, _scalar(v))
                          for (i, j, k), v in sorted(O.sparse3(c).items())]


def hom_pre_lie_text(c, twist):
    lines = ["kind: hom_pre_lie", "dim: %d" % len(c)]
    lines += _matrix_lines("twist", twist) + _table_lines("product", c)
    return "\n".join(lines) + "\n"


def dendriform_text(left, right, twist):
    lines = ["kind: dendriform", "dim: %d" % len(left)]
    lines += _matrix_lines("twist", twist) + _table_lines("left", left)
    lines += _table_lines("right", right)
    return "\n".join(lines) + "\n"


def tensor2_text(r):
    n = len(r)
    lines = ["kind: tensor2", "dim_left: %d" % n, "dim_right: %d" % n, "entries:"]
    lines += ["%d %d %s" % (i, j, _scalar(r[i][j])) for i in range(n) for j in range(n)
              if r[i][j] != 0]
    return "\n".join(lines) + "\n"


def triangular_change(rng, n, extra, rational):
    """Identity plus `extra` off-diagonal +-1 entries below the diagonal,
    optionally with a 2 on the diagonal so that the inverse has halves."""
    p = O.identity(n)
    spots = [(i, j) for i in range(n) for j in range(i)]
    rng.shuffle(spots)
    for (i, j) in spots[:extra]:
        p[i][j] = rng.choice((-1, 1))
    if rational:
        d = rng.randrange(n)
        p[d][d] = 2
    return p


def dense_change(rng, n, extra, rational):
    """L U with sparse unit triangular factors: invertible, small entries, and
    dense enough that most structure constants become nonzero."""
    lower = triangular_change(rng, n, extra, rational)
    upper = O.transpose(triangular_change(rng, n, extra, False))
    return O.matmul(lower, upper)


def breaking_bump(alg, rng):
    """A bumped product table that fails twist multiplicativity by construction:
    the bumped slot (i, j, k) has twist eigenvalues with lam_k != lam_i lam_j in
    the sparse graded basis, so alpha(e_i e_j) and alpha(e_i) alpha(e_j) differ
    there by (lam_k - lam_i lam_j) e_k; it is then moved to the dense basis."""
    lam = [alg.sparse_twist[i][i] for i in range(alg.n)]
    slots = [(i, j, k) for i in range(alg.n) for j in range(alg.n) for k in range(alg.n)
             if lam[k] != lam[i] * lam[j]]
    spot = rng.choice(slots)
    bumped = I.bump_table(alg.sparse_table, *spot)
    return O.basis_change(bumped, alg.sparse_twist, alg.p)[0]


class Command:
    """One CLI invocation. valid_input is the validity of its input known by
    construction; oracle_valid is the oracle's verdict on it, computed at set-up
    (None when the oracle has nothing to say about this command)."""

    __slots__ = ("label", "argv", "expected_exit", "out", "valid_input", "oracle_valid")

    def __init__(self, label, argv, expected_exit, out=None, valid_input=None,
                 oracle_valid=None):
        self.label = label
        self.argv = argv
        self.expected_exit = expected_exit
        self.out = out
        self.valid_input = valid_input
        self.oracle_valid = oracle_valid


class DeskScale:
    name = "desk-scale"

    def __init__(self, hb, seed, workdir):
        self.hb = hb
        skeleton = I.skeleton_rng(self.name)
        seeded = I.rng_for(self.name, seed)
        self.commands = []
        self.expect = {}
        zero = lambda n: O.zeros3(n, n, n)

        def algebra(family, lam, extra, rational):
            items, weights = family
            n = len(weights)
            alg = I.Algebra(items, weights, lam, dense_change(skeleton, n, extra, rational))
            return alg, I.SignedPermutation(seeded, n)

        def write(name, text):
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            return path

        def validate_hpl(label, table, twist, valid):
            path = write(label + ".txt", hom_pre_lie_text(table, twist))
            self.commands.append(Command(label, ["validate", path], 0 if valid else 1,
                                         valid_input=valid,
                                         oracle_valid=not O.hom_pre_lie_failures(table, twist)))

        def validate_dend(label, table, twist, valid):
            n = len(table)
            path = write(label + ".txt", dendriform_text(table, zero(n), twist))
            self.commands.append(Command(
                label, ["validate", path], 0 if valid else 1, valid_input=valid,
                oracle_valid=not O.dendriform_failures(table, zero(n), twist)))

        # Hom-pre-Lie at dims 8 and 10; one dim-8 instance in two bases.
        for label in ("hpl8-int", "hpl8-int-basis2"):
            alg, perm = algebra(I.novikov(8), -1, 5, False)
            validate_hpl(label, perm.table(alg.table), perm.operator(alg.twist), True)
        alg, perm = algebra(I.upper(5), Fraction(1, 2), 8, True)
        validate_hpl("hpl10-rat", perm.table(alg.table), perm.operator(alg.twist), True)
        alg, perm = algebra(I.novikov(10), -1, 5, False)
        validate_hpl("hpl10-int-bumped", perm.table(breaking_bump(alg, skeleton)),
                     perm.operator(alg.twist), False)

        # L-dendriform (a pre-Lie left product, zero right product) at dims 8 and 9.
        alg, perm = algebra(I.novikov(8), -1, 5, False)
        validate_dend("dend8-int", perm.table(alg.table), perm.operator(alg.twist), True)
        alg, perm = algebra(I.novikov(9), 2, 5, True)
        validate_dend("dend9-rat", perm.table(alg.table), perm.operator(alg.twist), True)
        validate_dend("dend9-rat-bumped", perm.table(breaking_bump(alg, skeleton)),
                      perm.operator(alg.twist), False)

        # The bialgebra three-way theorem: a bumped (invalid) algebra at dim 4
        # with the zero dual product, and at dim 5 the dual product induced by
        # e_n (x) e_n. The top element x^n annihilates everything, so its square
        # is a symmetric solution; with lam = -1 it intertwines the twists.
        alg, perm = algebra(I.novikov(4), -1, 2, False)
        bad = perm.table(breaking_bump(alg, skeleton))
        twist = perm.operator(alg.twist)
        bad_path = write("bi4-bumped.txt", hom_pre_lie_text(bad, twist))
        zero_dual = write("zero-dual4.txt",
                          hom_pre_lie_text(zero(4), O.transpose(O.inverse(twist))))
        self.commands.append(Command("tri-equiv4-bumped", ["check", "bialgebra-tri-equiv",
                                                           bad_path, zero_dual, "--json"], 0,
                                     valid_input=False,
                                     oracle_valid=not O.hom_pre_lie_failures(bad, twist)))
        self.expect["tri-equiv4-bumped"] = False

        alg, perm = algebra(I.novikov(5), -1, 3, True)
        table, twist = perm.table(alg.table), perm.operator(alg.twist)
        top = [[1 if (i, j) == (4, 4) else 0 for j in range(5)] for i in range(5)]
        r = perm.operator(I.transport_tensor(alg.p, top))
        a_path = write("bi5.txt", hom_pre_lie_text(table, twist))
        r_path = write("r5.txt", tensor2_text(r))
        dual_path = os.path.join(workdir, "dual5.txt")
        self.commands.append(Command("dual-product5", ["derive", "dual-product", a_path, r_path,
                                                       "--out", dual_path], 0, out=dual_path,
                                     valid_input=True,
                                     oracle_valid=O.is_s_matrix(table, twist, r)))
        self.commands.append(Command("tri-equiv5", ["check", "bialgebra-tri-equiv", a_path,
                                                    dual_path, "--json"], 0))
        self.expect["tri-equiv5"] = True
        tri_path = os.path.join(workdir, "triangular5.txt")
        self.commands.append(Command("triangular5", ["derive", "triangular-bialgebra", a_path,
                                                     r_path, "--out", tri_path], 0,
                                     out=tri_path))

        # The coboundary representation on the 16-dimensional tensor square.
        alg, perm = algebra(I.novikov(4), 3, 2, False)
        c_path = write("cob4.txt", hom_pre_lie_text(perm.table(alg.table),
                                                    perm.operator(alg.twist)))
        rep_path = os.path.join(workdir, "cobrep4.txt")
        self.commands.append(Command("coboundary-rep4", ["derive", "coboundary-rep", c_path,
                                                         "--out", rep_path], 0, out=rep_path))
        self.commands.append(Command("coboundary-rep4-validate", ["validate", rep_path], 0))

    verdicts_per_round = None      # one verdict per command

    def steps(self):
        return [functools.partial(run_command, self.hb, cmd) for cmd in self.commands]

    def check(self, records):
        return check_desk(self.hb, self.commands, self.expect, records)


def run_command(hb, cmd):
    """Run one command through the CLI entry point with its output captured."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = hb.cli.main(cmd.argv)
    produced = None
    if cmd.out is not None:
        with open(cmd.out, encoding="utf-8") as handle:
            produced = handle.read()
    return cmd.label, code, stdout.getvalue(), stderr.getvalue(), produced


def check_desk(hb, commands, expect, records):
    problems = []
    if len(records) != len(commands):
        return ["%d records for %d commands" % (len(records), len(commands))]
    codes = {}
    for cmd, (label, code, stdout, stderr, produced) in zip(commands, records):
        codes[label] = code
        if code != cmd.expected_exit:
            problems.append("%s: exit %r, expected %d (%s)" % (label, code, cmd.expected_exit,
                                                               stderr.strip()))
        if cmd.oracle_valid is not None and cmd.oracle_valid != cmd.valid_input:
            problems.append("%s: the oracle disagrees with the verdict known by construction"
                            % label)
        if produced is not None:
            if not produced:
                problems.append("%s: derived document is empty" % label)
            else:
                try:
                    again = hb.serialize_documents(hb.parse_documents(produced))
                except hb.WorkbenchError as exc:
                    problems.append("%s: derived document does not parse: %s" % (label, exc))
                else:
                    if again != produced:
                        problems.append("%s: derived document does not re-serialize "
                                        "byte for byte" % label)
        if label in expect:
            try:
                payload = json.loads(stdout)
            except ValueError:
                problems.append("%s: check output is not JSON" % label)
                continue
            details = payload["report"].get("details", {})
            verdicts = [details.get(k, {}).get("valid")
                        for k in ("bialgebra", "matched_pair", "manin_triple")]
            if verdicts != [expect[label]] * 3 or details.get("agree") is not True:
                problems.append("%s: verdicts %r, expected all %r" % (label, verdicts,
                                                                      expect[label]))
    if codes.get("hpl8-int") != codes.get("hpl8-int-basis2"):
        problems.append("one instance in two bases got different verdicts")
    return problems
