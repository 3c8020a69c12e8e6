"""Seeded input generation in the benchmark's own arithmetic (no hombench).

Every structure starts as a sparse, graded, untwisted pre-Lie table that is
valid by theory, gets a diagonal automorphism alpha = diag(lam^w) from its
grading, is Yau-twisted into (alpha o product, alpha), and is then moved to a
denser basis by an invertible integer matrix P. Yau twisting (Makhlouf and
Silvestrov 2008; Yau 2009) turns a valid untwisted algebra and an automorphism
into a valid twisted one; a basis change preserves every verdict. Negatives are
one-entry bumps of such tables.

The graded families:

- ``novikov``: truncated polynomials x^1..x^n with x^i o x^j = j x^(i+j), the
  Novikov product u D(v) for the Euler derivation; weight of x^i is i.
- ``upper``: strictly upper triangular k x k matrices with E_ab E_bc = E_ac;
  weight of E_ab is b - a.
- ``two_step``: V x V -> Z with Z annihilating everything (all associators
  vanish), weights chosen so that some pairs have opposite weights.
"""

import random
from fractions import Fraction

from oracle import (basis_change, dense3, identity, is_s_matrix, matmul, transpose,
                    yau_twist)


def novikov(n):
    items = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i + j <= n:
                items[(i - 1, j - 1, i + j - 1)] = j
    return items, list(range(1, n + 1))


def upper(k):
    idx = [(a, b) for a in range(k) for b in range(a + 1, k)]
    pos = {p: t for t, p in enumerate(idx)}
    items = {}
    for (a, b) in idx:
        for (b2, c) in idx:
            if b == b2:
                items[(pos[(a, b)], pos[(b2, c)], pos[(a, c)])] = 1
    return items, [b - a for (a, b) in idx]


def two_step(rng, v_weights, z_weights):
    """Random coefficients in {-2..2} on every slot V x V -> Z whose weights add up."""
    nv = len(v_weights)
    weights = list(v_weights) + list(z_weights)
    items = {}
    for i in range(nv):
        for j in range(nv):
            for k in range(nv, len(weights)):
                if weights[k] == weights[i] + weights[j]:
                    c = rng.choice((-2, -1, 1, 1, 2))
                    items[(i, j, k)] = c
    return items, weights


def graded_twist(weights, lam):
    lam = Fraction(lam)
    n = len(weights)
    return [[lam ** weights[i] if i == j else 0 for j in range(n)] for i in range(n)]


def unimodular(rng, n, steps):
    """An integer matrix of determinant +-1 built from elementary row operations."""
    m = identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return m


def with_rational_inverse(rng, n, steps):
    """A unimodular matrix with one row doubled, so its inverse has halves."""
    m = unimodular(rng, n, steps)
    r = rng.randrange(n)
    m[r] = [2 * x for x in m[r]]
    return m


class Algebra:
    """A twisted pre-Lie table with its provenance: the sparse graded basis and P."""

    __slots__ = ("n", "table", "twist", "sparse_table", "sparse_twist", "p")

    def __init__(self, sparse_items, weights, lam, p):
        n = len(weights)
        self.n = n
        self.sparse_table, self.sparse_twist = yau_twist(dense3(sparse_items, n),
                                                         graded_twist(weights, lam))
        self.p = p
        self.table, self.twist = basis_change(self.sparse_table, self.sparse_twist, p)


def transport_tensor(p, r):
    """A 2-tensor moves as P r P^T under x' = P x."""
    return matmul(matmul(p, r), transpose(p))


def left_matrices(c):
    """L_i[w][v] = (e_i e_v)_w."""
    n = len(c)
    return [[[c[i][v][w] for v in range(n)] for w in range(n)] for i in range(n)]


def right_matrices(c):
    """R_i[w][v] = (e_v e_i)_w."""
    n = len(c)
    return [[[c[v][i][w] for v in range(n)] for w in range(n)] for i in range(n)]


def commutator(c):
    n = len(c)
    return [[[c[i][j][k] - c[j][i][k] for k in range(n)] for j in range(n)] for i in range(n)]


def bump_matrix(m, i, j):
    out = [list(row) for row in m]
    out[i][j] += 1
    return out


def bump_table(c, i, j, k):
    out = [[list(vec) for vec in plane] for plane in c]
    out[i][j][k] += 1
    return out


def symmetric_candidates(a, values=(-1, 0, 1)):
    """Symmetric tensors in the sparse graded basis supported on pairs whose twist
    eigenvalues multiply to one (so they intertwine), coefficients from values."""
    n = a.n
    lam = [a.sparse_twist[i][i] for i in range(n)]
    slots = [(i, j) for i in range(n) for j in range(i, n) if lam[i] * lam[j] == 1]
    out = []
    total = len(values) ** len(slots)
    for code in range(total):
        r = [[0] * n for _ in range(n)]
        for (i, j) in slots:
            code, d = divmod(code, len(values))
            r[i][j] = values[d]
            r[j][i] = values[d]
        out.append(r)
    return out


def solutions_in_sparse_basis(a, limit_slots=6):
    """(s-matrices, intertwining non-solutions) among the symmetric candidates,
    judged by the oracle in the sparse basis."""
    lam = [a.sparse_twist[i][i] for i in range(a.n)]
    slots = sum(1 for i in range(a.n) for j in range(i, a.n) if lam[i] * lam[j] == 1)
    if slots > limit_slots:
        return [], []
    good, bad = [], []
    for r in symmetric_candidates(a):
        (good if is_s_matrix(a.sparse_table, a.sparse_twist, r) else bad).append(r)
    return good, bad


def rng_for(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


def skeleton_rng(workload):
    """The generator of everything that sets a workload's arithmetic cost: the
    families, twists, basis changes, bump positions and chosen tensors. It does
    not depend on the seed."""
    return random.Random("%s:skeleton" % workload)


class SignedPermutation:
    """x' = S x with S e_i = sign[i] e_perm[i]: the seed's relabelling of a
    basis. It moves every index, sign and witness of an input while keeping its
    arithmetic work the same, so runs with different seeds measure equal work."""

    __slots__ = ("perm", "sign")

    def __init__(self, rng, n):
        self.perm = list(range(n))
        rng.shuffle(self.perm)
        self.sign = [rng.choice((-1, 1)) for _ in range(n)]

    def table(self, c):
        n = len(c)
        out = [[[0] * n for _ in range(n)] for _ in range(n)]
        p, s = self.perm, self.sign
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    out[p[i]][p[j]][p[k]] = s[i] * s[j] * s[k] * c[i][j][k]
        return out

    def operator(self, m):
        """An endomorphism or a 2-tensor: S m S^T (S^T = S^-1 here)."""
        n = len(m)
        out = [[0] * n for _ in range(n)]
        p, s = self.perm, self.sign
        for a in range(n):
            for b in range(n):
                out[p[a]][p[b]] = s[a] * s[b] * m[a][b]
        return out

    def family(self, maps):
        """Action matrices indexed by the same basis they act on."""
        out = [None] * len(maps)
        for x, m in enumerate(maps):
            moved = self.operator(m)
            if self.sign[x] < 0:
                moved = [[-v for v in row] for row in moved]
            out[self.perm[x]] = moved
        return out


def matrix_entries(m):
    return tuple(tuple(row) for row in m)

