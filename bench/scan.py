"""search-scan: example search where most candidates are rejected.

Every search runs with the library's default worker count and a limit it never
reaches, so each one evaluates its whole candidate space. A verdict is one
candidate evaluated. The results are checked against the oracle.
"""

import functools
from fractions import Fraction

import inputs as I
import oracle as O

COEFFS = (-1, 0, 1)

# Seeded attempts per search; with the exhaustive dim-2 scan (3^8 candidates)
# and the exhaustive o_operator scan (3^4) they make one round.
S_MATRIX_ATTEMPTS = {3: 150, 4: 60}
DENDRIFORM_ATTEMPTS = 400


def _base_algebra(skeleton, seeded, n):
    """A Yau-twisted Novikov algebra with twist eigenvalues +-1, moved to a dense
    basis by the fixed skeleton change and relabelled by the seed."""
    items, weights = I.novikov(n)
    alg = I.Algebra(items, weights, -1, I.unimodular(skeleton, n, 2 * n))
    perm = I.SignedPermutation(seeded, n)
    return perm.table(alg.table), perm.operator(alg.twist)


class Search:
    __slots__ = ("label", "target", "dim", "mode", "attempts", "table", "twist", "total")

    def __init__(self, label, target, dim, mode, attempts=1, table=None, twist=None):
        self.label = label
        self.target = target
        self.dim = dim
        self.mode = mode
        self.attempts = attempts
        self.table = table
        self.twist = twist
        free = {"hom_pre_lie": dim ** 3, "dendriform": 2 * dim ** 3,
                "s_matrix": dim * (dim + 1) // 2, "o_operator": dim * dim}[target]
        self.total = attempts if mode == "seeded" else len(COEFFS) ** free


class SearchScan:
    name = "search-scan"

    def __init__(self, hb, seed, workdir):
        self.hb = hb
        skeleton = I.skeleton_rng(self.name)
        seeded = I.rng_for(self.name, seed)
        self.searches = [Search("hom_pre_lie-dim2", "hom_pre_lie", 2, "exhaustive")]
        for n, attempts in sorted(S_MATRIX_ATTEMPTS.items()):
            table, twist = _base_algebra(skeleton, seeded, n)
            self.searches.append(Search("s_matrix-dim%d" % n, "s_matrix", n, "seeded",
                                        attempts, table, twist))
        self.searches.append(Search("dendriform-dim2", "dendriform", 2, "seeded",
                                    DENDRIFORM_ATTEMPTS))
        table, twist = _base_algebra(skeleton, seeded, 2)
        self.searches.append(Search("o_operator-coadjoint-dim2", "o_operator", 2, "exhaustive",
                                    table=table, twist=twist))
        self.spec_seed = seeded.randrange(1 << 32)
        self.expected_tables = oracle_pre_lie_count(2)

    @property
    def verdicts_per_round(self):
        """One verdict per candidate evaluated."""
        return sum(s.total for s in self.searches)

    def _spec(self, s):
        hb = self.hb
        base = None
        if s.table is not None:
            n = s.dim
            base = hb.HomPreLieAlgebra(hb.Tensor3.from_entries((n, n, n), O.sparse3(s.table)),
                                       hb.LinearMap(I.matrix_entries(s.twist)))
            if s.target == "o_operator":
                base = hb.coadjoint_pre_lie_rep(base)
        return hb.SearchSpec(s.target, dim=s.dim, coefficients=[Fraction(c) for c in COEFFS],
                             mode=s.mode, seed=self.spec_seed, limit=s.total + 1, base=base,
                             attempts=s.attempts, budget=max(s.total, 1))

    def steps(self):
        return [functools.partial(self._run, s) for s in self.searches]

    def _run(self, s):
        hb = self.hb
        found = hb.run_search(self._spec(s))
        return s.label, hb.serialize_documents(found), len(found)

    def check(self, records):
        return check_scan(self.hb, self.searches, records, self.expected_tables)


def oracle_pre_lie_count(n):
    """How many dim-n tables with coefficients in COEFFS and identity twist are
    twisted pre-Lie, by the oracle."""
    eye = O.identity(n)
    free = n ** 3
    count = 0
    for code in range(len(COEFFS) ** free):
        c = O.zeros3(n, n, n)
        for slot in range(free - 1, -1, -1):
            code, d = divmod(code, len(COEFFS))
            c[slot // (n * n)][(slot // n) % n][slot % n] = COEFFS[d]
        if not O.hom_pre_lie_failures(c, eye):
            count += 1
    return count


def check_scan(hb, searches, records, expected_tables):
    problems = []
    if len(records) != len(searches):
        return ["%d records for %d searches" % (len(records), len(searches))]
    for s, (label, text, count) in zip(searches, records):
        if count >= s.total + 1:
            problems.append("%s: %d results reach the limit, the scan may have stopped early"
                            % (label, count))
        docs = hb.parse_documents(text) if text else []
        if len(docs) != count:
            problems.append("%s: %d documents for %d results" % (label, len(docs), count))
        for doc in docs:
            bad = _oracle_rejects(s, doc)
            if bad:
                problems.append("%s: accepted result fails the oracle: %s" % (label, bad))
                break
        if s.target == "hom_pre_lie" and count != expected_tables:
            problems.append("%s: %d tables found, the oracle counts %d"
                            % (label, count, expected_tables))
    return problems


def _dense(tensor):
    return [[list(vec) for vec in plane] for plane in tensor.entries]


def _oracle_rejects(s, doc):
    value = doc.value
    if s.target == "hom_pre_lie":
        return bool(O.hom_pre_lie_failures(_dense(value.product), value.twist.entries)) and \
            "not twisted pre-Lie"
    if s.target == "dendriform":
        return bool(O.dendriform_failures(_dense(value.left), _dense(value.right),
                                          value.twist.entries)) and "not L-dendriform"
    if s.target == "s_matrix":
        r = [list(row) for row in value.entries]
        if any(r[i][j] != r[j][i] for i in range(s.dim) for j in range(s.dim)):
            return "not symmetric"
        if not O.is_s_matrix(s.table, s.twist, r):
            return "nonzero twisted bracket or not intertwining"
        return None
    left, right, beta = O.coadjoint_rep(s.table, s.twist)
    found = O.o_operator_failures(s.table, s.twist, left, right, beta,
                                  [list(row) for row in value.matrix.entries])
    return bool(found) and "not an O-operator"
