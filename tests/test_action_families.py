"""The action-family helpers of representations: the twisted dual pair and the
family shape check.

The coadjoint pair (rho*, mu*) = (star(L) - star(R), -star(R)) is built in one
place and read by coadjoint_pre_lie_rep, coadjoint_matched_pair and
dual_product_from_r; each is compared here with coadjoint_rep of
bench/oracle.py, which recomputes the pair from the structure constants with
no hombench code. The inputs are Yau-twisted graded algebras moved to a
rational basis, so the twists are far from the identity.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from hombench import (DimensionMismatch, HomLieRep, HomPreLieAlgebra, HomPreLieRep,
                      LieMatchedPair, LinearMap, PreLieMatchedPair, Tensor2, Tensor3,
                      action_table, check_pro1, coadjoint_matched_pair, coadjoint_pre_lie_rep,
                      dual_product_from_r, sub_adjacent, validate_hom_pre_lie)
from hombench import fixtures

ORACLE = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"


def _oracle():
    """The namespace of bench/oracle.py, loaded by path."""
    namespace = {"__name__": "bench_oracle"}
    exec(compile(ORACLE.read_text(encoding="utf-8"), str(ORACLE), "exec"), namespace)
    return namespace


ORACLE_NAMESPACE = _oracle()


def novikov(n):
    """x^1..x^n with x^i o x^j = j x^(i+j); x^i has weight i."""
    items = {(i - 1, j - 1, i + j - 1): j for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n}
    return items, list(range(1, n + 1))


def upper(k):
    """Strictly upper triangular k x k matrices, E_ab E_bc = E_ac; E_ab has weight b - a."""
    idx = [(a, b) for a in range(k) for b in range(a + 1, k)]
    pos = {p: t for t, p in enumerate(idx)}
    items = {(pos[(a, b)], pos[(b, c)], pos[(a, c)]): 1 for (a, b) in idx for (b2, c) in idx if b == b2}
    return items, [b - a for (a, b) in idx]


def _inputs():
    """(name, algebra, r): each graded family Yau-twisted by diag(lam^weight) and
    moved by a rational basis change P, with r = P r0 P^T for a random,
    generally non-symmetric r0 that intertwines the twists. With positive
    weights, r0 can be nonzero only at lam = -1 (entries whose weights sum to
    an even number); at lam = 1/2 and 2 the only intertwining tensor is 0."""
    oracle = ORACLE_NAMESPACE
    rng = random.Random(20240613)
    out = []
    for family, (items, weights) in [("novikov%d" % n, novikov(n)) for n in (2, 3, 4)] + [("upper3", upper(3))]:
        n = len(weights)
        for lam in (-1, Fraction(1, 2), 2):
            grading = [[Fraction(lam) ** weights[i] if i == j else 0 for j in range(n)] for i in range(n)]
            table, twist = oracle["yau_twist"](oracle["dense3"](items, n), grading)
            p = oracle["identity"](n)
            for _ in range(2 * n):
                i, j = rng.sample(range(n), 2)
                p[i] = [x + rng.choice((-1, 1)) * y for x, y in zip(p[i], p[j])]
            doubled = rng.randrange(n)
            p[doubled] = [2 * x for x in p[doubled]]
            table, twist = oracle["basis_change"](table, twist, p)
            r0 = [[rng.randint(-2, 2) if lam == -1 and (weights[i] + weights[j]) % 2 == 0 else 0
                   for j in range(n)] for i in range(n)]
            r = oracle["matmul"](oracle["matmul"](p, r0), oracle["transpose"](p))
            out.append(("%s-lam%s" % (family, lam), HomPreLieAlgebra(Tensor3(table), LinearMap(twist)),
                        Tensor2(r)))
    return out


INPUTS = _inputs()


def _lists(maps):
    return [[list(row) for row in m.entries] for m in maps]


def _oracle_pair(a):
    """The oracle's coadjoint (left, right, twist) of an algebra's table."""
    return ORACLE_NAMESPACE["coadjoint_rep"]([[list(vec) for vec in plane] for plane in a.product.entries],
                                             [list(row) for row in a.twist.entries])


@pytest.mark.parametrize("name, a, r", INPUTS, ids=[name for name, _, _ in INPUTS])
def test_coadjoint_pair_matches_oracle(name, a, r):
    assert validate_hom_pre_lie(a).valid
    assert a.twist != LinearMap.identity(a.dim)
    left, right, twist = _oracle_pair(a)

    rep = coadjoint_pre_lie_rep(a)
    assert (_lists(rep.left), _lists(rep.right), [list(row) for row in rep.twist.entries]) == (left, right, twist)

    assert check_pro1(a, r)
    adual = dual_product_from_r(a, r)
    mp = coadjoint_matched_pair(a, adual)
    assert (_lists(mp.first_left), _lists(mp.first_right)) == (left, right)
    dual_left, dual_right, _ = _oracle_pair(adual)
    assert (_lists(mp.second_left), _lists(mp.second_right)) == (dual_left, dual_right)

    # slice (i, j) of the dual product is rho*(r# e_i) e_j + mu*(r#^T e_j) e_i,
    # where r# e_i = sum_p r_ip e_p and r#^T e_j = sum_p r_pj e_p
    n = a.dim
    rows = r.entries
    expected = [[[sum(rows[i][p] * left[p][k][j] + rows[p][j] * right[p][k][i] for p in range(n))
                  for k in range(n)] for j in range(n)] for i in range(n)]
    assert [[list(vec) for vec in plane] for plane in adual.product.entries] == expected


def _shape_cases():
    """Constructor calls that get one family of the wrong count or with one map
    of the wrong size. action_table reads its count from the family itself, so
    its two cases are a map of the wrong size and a non-square map."""
    a = fixtures.nilpotent_algebra()
    b = fixtures.scaling_algebra()
    g = sub_adjacent(a)
    h = sub_adjacent(b)
    two = LinearMap.identity(2)
    ok = [two, two]
    short = [two]
    big = [two, LinearMap.identity(3)]
    wide = [two, LinearMap.zero(2, 3)]
    return {
        "HomLieRep-count": lambda: HomLieRep(g, 2, two, short),
        "HomLieRep-size": lambda: HomLieRep(g, 2, two, big),
        "HomPreLieRep-count": lambda: HomPreLieRep(a, 2, two, ok, short),
        "HomPreLieRep-size": lambda: HomPreLieRep(a, 2, two, big, ok),
        "LieMatchedPair-count": lambda: LieMatchedPair(g, h, ok, short),
        "LieMatchedPair-size": lambda: LieMatchedPair(g, h, big, ok),
        "PreLieMatchedPair-count": lambda: PreLieMatchedPair(a, b, ok, ok, short, ok),
        "PreLieMatchedPair-size": lambda: PreLieMatchedPair(a, b, ok, ok, ok, big),
        "action_table-rectangular": lambda: action_table(wide, 2),
        "action_table-size": lambda: action_table(big, 2),
    }


SHAPE_CASES = _shape_cases()


@pytest.mark.parametrize("name", sorted(SHAPE_CASES))
def test_action_family_shape_is_checked(name):
    with pytest.raises(DimensionMismatch, match="action matri"):
        SHAPE_CASES[name]()
