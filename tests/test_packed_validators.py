"""The identity validators besides the two cores, on large twisted inputs and
on Yau-twisted matched pairs of equal and unequal dimensions.

Every validator here tests each instance as one int packed at the slot width
of foundation._slot_bits, so the inputs scale Yau-twisted tables from
bench/inputs.py to numerators near 10^30 over 10^12 + 39, twist them by
lam = (10^15 + 37)/(10^12 + 61), whose denominator is coprime to that one, and
bump single entries by that size; some bumps fail an instance in one slot.
validate_hom_lie is compared with hom_lie_failures of bench/oracle.py. The
representation, cross, cocycle, morphism and O-operator identities are compared,
failure by failure in report order, with a recomputation in exact scalars
(ints and Fractions) below that reads only .entries and packs nothing.

A second set draws every entry as +-SIZE with seeded signs: then every int a
validator reads has the size its slot width is computed from, and the
residuals of failing instances come within a bit or two of the width's limit.

The matched-pair tests build pairs from the same generator at small and large
sizes: each algebra with an abelian partner acted on by the regular (or
adjoint) action plus a trivial line, in a rational basis, in both orders, and
with the coadjoint partner. Each pair's verdict must equal the verdict of its
double, and the double's failures must be the oracle's.
"""

import random
from fractions import Fraction

import pytest

from hombench import (HomLieAlgebra, HomLieRep, HomPreLieAlgebra, HomPreLieRep, LieMatchedPair,
                      LinearMap, OOperator, PreLieMatchedPair, Tensor3, adjoint_rep,
                      check_morphism, check_one_cocycle, coadjoint_lie_matched_pair,
                      coadjoint_matched_pair, coadjoint_pre_lie_rep, document_for, double_lie,
                      double_pre_lie, dual_pre_lie_rep, regular_rep, serialize_document, shifted_rep,
                      star_maps, validate_hom_lie, validate_hom_pre_lie, validate_lie_rep,
                      validate_matched_pair_lie, validate_matched_pair_pre_lie, validate_o_operator,
                      validate_pre_lie_rep)
from hombench import fixtures
from test_validator_cores import LAMBDAS, I, O, _scaled3

LAM = Fraction(10 ** 15 + 37, 10 ** 12 + 61)
SIZE = Fraction(3 * 10 ** 30 + 1, 10 ** 12 + 39)


# ---- recomputation in ints and Fractions, reading .entries only ----

def _m(x):
    """A LinearMap's entries as lists of exact scalars."""
    return [list(row) for row in x.entries]


def _t(x):
    """A Tensor3's entries as nested lists of exact scalars."""
    return [[list(v) for v in plane] for plane in x.entries]


def _col(a, j):
    return [row[j] for row in a]


def _mv(a, v):
    return [sum(x * y for x, y in zip(row, v) if x and y) for row in a]


def _lin(size, terms):
    """The sum of coefficient * vector over the (coefficient, vector) pairs, of
    vectors of the given size."""
    out = [0] * size
    for c, v in terms:
        if c:
            out = [o + c * x for o, x in zip(out, v)]
    return out


def _prod(c, x, y):
    """sum x_i y_j c[i][j]: the product of two vectors through a table."""
    size = len(c[0][0]) if c and c[0] else 0
    return _lin(size, [(xi * yj, c[i][j]) for i, xi in enumerate(x) for j, yj in enumerate(y)])


def _act(maps, x, v):
    """sum x_p maps[p] v: the action at the vector x applied to v."""
    size = len(maps[0]) if maps else len(v)
    return _lin(size, [(xp, _mv(a, v)) for xp, a in zip(x, maps) if xp])


def _sub(u, v):
    return [a - b for a, b in zip(u, v)]


def _add(*vs):
    return [sum(xs) for xs in zip(*vs)]


def _put(out, identity, witness, residual):
    if any(residual):
        out.append((identity, witness, tuple(residual)))


def _lie_rep_ref(c, phi, beta, rho, prefix=""):
    n, m = len(phi), len(beta)
    out = []
    for i in range(n):
        for j in range(m):
            _put(out, prefix + "action-twist-compatibility", (i, j),
                 _sub(_act(rho, _col(phi, i), _col(beta, j)), _mv(beta, _col(rho[i], j))))
    for i in range(n):
        for j in range(n):
            for k in range(m):
                _put(out, prefix + "action-bracket-compatibility", (i, j, k), _add(
                    _act(rho, c[i][j], _col(beta, k)), [-x for x in _act(rho, _col(phi, i), _col(rho[j], k))],
                    _act(rho, _col(phi, j), _col(rho[i], k))))
    return out


def _pre_lie_rep_ref(c, alpha, beta, rho, mu):
    n, m = len(alpha), len(beta)
    commutator = [[_sub(c[i][j], c[j][i]) for j in range(n)] for i in range(n)]
    out = _lie_rep_ref(commutator, alpha, beta, rho, "left-")
    for i in range(n):
        for j in range(m):
            _put(out, "right-twist-compatibility", (i, j),
                 _sub(_mv(beta, _col(mu[i], j)), _act(mu, _col(alpha, i), _col(beta, j))))
    for i in range(n):
        for j in range(n):
            for k in range(m):
                _put(out, "left-right-compatibility", (i, j, k), _add(
                    _act(mu, _col(alpha, j), _sub(_col(mu[i], k), _col(rho[i], k))),
                    [-x for x in _act(mu, c[i][j], _col(beta, k))],
                    _act(rho, _col(alpha, i), _col(mu[j], k))))
    return out


def _cocycle_ref(c, phi, rho, delta):
    n = len(phi)
    out = []
    for i in range(n):
        for j in range(n):
            _put(out, "cocycle", (i, j), _add(
                _mv(delta, c[i][j]), [-x for x in _act(rho, _col(phi, i), _col(delta, j))],
                _act(rho, _col(phi, j), _col(delta, i))))
    return out


def _morphism_ref(f, src, src_twist, dst, dst_twist):
    ns = len(src_twist)
    out = []
    for j in range(ns):
        _put(out, "twist-intertwine", (j,), _sub(_mv(f, _col(src_twist, j)), _mv(dst_twist, _col(f, j))))
    for i in range(ns):
        for j in range(ns):
            _put(out, "operation-preserved", (i, j),
                 _sub(_mv(f, src[i][j]), _prod(dst, _col(f, i), _col(f, j))))
    return out


def _o_operator_ref(c, alpha, beta, rho, mu, t):
    m = len(beta)
    beta_inv = O.inverse(beta)
    shifted = [_mv(t, _col(beta_inv, i)) for i in range(m)]
    basis = [[int(k == i) for k in range(m)] for i in range(m)]
    out = []
    for j in range(m):
        _put(out, "twist-intertwine", (j,), _sub(_mv(t, _col(beta, j)), _mv(alpha, _col(t, j))))
    for i in range(m):
        for j in range(m):
            inner = _add(_act(rho, shifted[i], basis[j]), _act(mu, shifted[j], basis[i]))
            _put(out, "operator-product", (i, j), _sub(_prod(c, _col(t, i), _col(t, j)), _mv(t, inner)))
    return out


def _lie_cross_ref(name, phi, c, psi, action, back, order):
    """cross(x, y, z) = rho(phi(x))[y, z] - [rho(x)y, psi(z)] - [psi(y), rho(x)z]
    - rho(rho'(z)x)psi(y) + rho(rho'(y)x)psi(z), recorded at the witnesses of
    order, each mapped to its (x, y, z)."""
    out = []
    for witness, (x, y, z) in order:
        _put(out, name, witness, _add(
            _act(action, _col(phi, x), c[y][z]), [-v for v in _prod(c, _col(action[x], y), _col(psi, z))],
            [-v for v in _prod(c, _col(psi, y), _col(action[x], z))],
            [-v for v in _act(action, _col(back[z], x), _col(psi, y))],
            _act(action, _col(back[y], x), _col(psi, z))))
    return out


def _pre_lie_cross_ref(side, alpha, c, beta, left, right, back_left, back_right):
    nx, ny = len(alpha), len(beta)
    out = []
    for x in range(nx):
        for y in range(ny):
            for z in range(ny):
                _put(out, "cross-right-" + side, (x, y, z), _add(
                    _act(right, _col(alpha, x), _sub(c[y][z], c[z][y])),
                    [-v for v in _act(right, _col(back_left[z], x), _col(beta, y))],
                    _act(right, _col(back_left[y], x), _col(beta, z)),
                    [-v for v in _prod(c, _col(beta, y), _col(right[x], z))],
                    _prod(c, _col(beta, z), _col(right[x], y))))
    for x in range(nx):
        for y in range(ny):
            for z in range(ny):
                _put(out, "cross-left-" + side, (x, y, z), _add(
                    _act(left, _col(alpha, x), c[y][z]),
                    _act(left, _sub(_col(back_left[y], x), _col(back_right[y], x)), _col(beta, z)),
                    [-v for v in _prod(c, _sub(_col(left[x], y), _col(right[x], y)), _col(beta, z))],
                    [-v for v in _act(right, _col(back_right[z], x), _col(beta, y))],
                    [-v for v in _prod(c, _col(beta, y), _col(left[x], z))]))
    return out


def _lie_pair_ref(mp):
    g, h = mp.first, mp.second
    n, m = g.dim, h.dim
    phi, psi = _m(g.twist), _m(h.twist)
    first, second = [_m(a) for a in mp.first_action], [_m(a) for a in mp.second_action]
    order = [((i, j, k), (k, i, j)) for i in range(n) for j in range(n) for k in range(m)]
    out = _lie_cross_ref("cross-first", psi, _t(g.bracket), phi, second, first, order)
    order = [((i, j, k), (i, j, k)) for i in range(n) for j in range(m) for k in range(m)]
    return out + _lie_cross_ref("cross-second", phi, _t(h.bracket), psi, first, second, order)


def _pre_lie_pair_ref(mp):
    a, b = mp.first, mp.second
    fl, fr = [_m(x) for x in mp.first_left], [_m(x) for x in mp.first_right]
    sl, sr = [_m(x) for x in mp.second_left], [_m(x) for x in mp.second_right]
    return (_pre_lie_cross_ref("second", _m(a.twist), _t(b.product), _m(b.twist), fl, fr, sl, sr)
            + _pre_lie_cross_ref("first", _m(b.twist), _t(a.product), _m(a.twist), sl, sr, fl, fr))


def _report(report, cross_only=False):
    return [(f.identity, f.witness, f.residual) for f in report.failures
            if not cross_only or f.identity.startswith("cross-")]


# ---- inputs ----

def _bumped_map(a, i, j, by):
    rows = [list(row) for row in a.entries]
    rows[i][j] += by
    return LinearMap(rows, rows=a.rows, cols=a.cols)


def _bumped_table(t, i, j, k, by):
    planes = [[list(v) for v in plane] for plane in t.entries]
    planes[i][j][k] += by
    return Tensor3(planes, dims=t.dims)


def _block(m, extra):
    """The map m (+) (extra) on a space one larger, as lists."""
    return [list(row) + [0] for row in m] + [[0] * len(m) + [extra]]


def _moved(q, q_inv, m):
    return O.matmul(O.matmul(q, m), q_inv)


class Base:
    """A Yau-twisted algebra from bench/inputs.py at one scale, as library objects."""

    def __init__(self, name, items, weights, lam, scale, rng):
        n = len(weights)
        alg = I.Algebra(items, weights, lam, I.with_rational_inverse(rng, n, 2 * n))
        self.name = name
        self.n = n
        self.graded = HomPreLieAlgebra(Tensor3(_scaled3(alg.sparse_table, scale)), LinearMap(alg.sparse_twist))
        self.pre_lie = HomPreLieAlgebra(Tensor3(_scaled3(alg.table, scale)), LinearMap(alg.twist))
        self.lie = HomLieAlgebra(Tensor3(_scaled3(I.commutator(alg.table), scale)), LinearMap(alg.twist))
        self.p = alg.p
        self.q = I.with_rational_inverse(rng, n + 1, 2 * n + 2)        # a basis of the space one larger
        self.q_inv = O.inverse(self.q)
        self.line = lam ** 2                                             # the trivial line's twist

    def widened(self, maps, twist):
        """The action family maps (+) 0 and the twist (+) line, on the space one
        larger, moved by the basis change q."""
        moved = [LinearMap(_moved(self.q, self.q_inv, _block(_m(a), 0))) for a in maps]
        return moved, LinearMap(_moved(self.q, self.q_inv, _block(_m(twist), self.line)))


def _bases(scale, lams, seed):
    """A Base for each family of dims 3-4, the i-th at lams[i % len(lams)]."""
    rng = random.Random(seed)
    families = [("novikov3", I.novikov(3)), ("upper3", I.upper(3)), ("two_step3", I.two_step(rng, [1, 2], [3])),
                ("novikov4", I.novikov(4))]
    return [Base("%s-%s" % (name, "big" if scale != 1 else "lam%s" % lams[t % len(lams)]), items, weights,
                 lams[t % len(lams)], scale, rng)
            for t, (name, (items, weights)) in enumerate(families)]


BIG = _bases(SIZE, [LAM], 20)
SMALL = _bases(1, LAMBDAS, 21)


# ---- large inputs against the oracle and the recomputation ----

def _hom_lie_cases():
    rng = random.Random(22)
    out = []
    for base in BIG:
        g = base.lie
        n = base.n
        out.append((base.name, g))
        for _ in range(2):
            i, j, k = (rng.randrange(n) for _ in range(3))
            out.append(("%s-bump%d%d%d" % (base.name, i, j, k),
                        HomLieAlgebra(_bumped_table(g.bracket, i, j, k, SIZE), g.twist)))
        i, j = rng.randrange(n), rng.randrange(n)
        out.append(("%s-twist-bump%d%d" % (base.name, i, j),
                    HomLieAlgebra(g.bracket, _bumped_map(g.twist, i, j, LAM ** 3))))
    return out


HOM_LIE = _hom_lie_cases()


@pytest.mark.parametrize("name, g", HOM_LIE, ids=[case[0] for case in HOM_LIE])
def test_big_hom_lie_report_matches_oracle(name, g):
    report = validate_hom_lie(g)
    expected = O.hom_lie_failures([[list(v) for v in plane] for plane in g.bracket.entries],
                                  [list(row) for row in g.twist.entries])
    triples = [(f.identity, f.witness, f.residual) for f in report.failures]
    assert len(set(triples)) == len(triples) and set(triples) == expected


def _rep_cases():
    """(name, kind, value): representations, cocycles, morphisms and O-operators
    on the large bases, valid ones and one-entry bumps of them."""
    rng = random.Random(23)
    out = []
    for base in BIG:
        n, a, g = base.n, base.pre_lie, base.lie
        ad = adjoint_rep(g)
        maps, twist = base.widened(ad.maps, g.twist)
        lie_reps = [("adjoint", ad), ("adjoint-widened", HomLieRep(g, n + 1, twist, maps))]
        for label, rep in lie_reps:
            out.append(("%s-%s" % (base.name, label), "lie_rep", rep))
            p, i, j = rng.randrange(n), rng.randrange(rep.space_dim), rng.randrange(rep.space_dim)
            maps = list(rep.maps)
            maps[p] = _bumped_map(maps[p], i, j, SIZE)
            out.append(("%s-%s-bump%d%d%d" % (base.name, label, p, i, j), "lie_rep",
                        HomLieRep(g, rep.space_dim, rep.twist, maps)))
        regular = regular_rep(a)
        left, twist = base.widened(regular.left, a.twist)
        right, _ = base.widened(regular.right, a.twist)
        pre_reps = [("regular", regular), ("coadjoint", coadjoint_pre_lie_rep(a)),
                    ("regular-widened", HomPreLieRep(a, n + 1, twist, left, right))]
        for label, rep in pre_reps:
            out.append(("%s-%s" % (base.name, label), "pre_lie_rep", rep))
            for side in ("left", "right"):
                p, i, j = rng.randrange(n), rng.randrange(rep.space_dim), rng.randrange(rep.space_dim)
                maps = list(getattr(rep, side))
                maps[p] = _bumped_map(maps[p], i, j, SIZE)
                bumped = dict(left=rep.left, right=rep.right)
                bumped[side] = maps
                out.append(("%s-%s-%s-bump%d%d%d" % (base.name, label, side, p, i, j), "pre_lie_rep",
                            HomPreLieRep(a, rep.space_dim, rep.twist, bumped["left"], bumped["right"])))
        # cocycles: zero and a dense large map into the adjoint representation; a
        # functional killing [g, g] into a trivial line, and its one-entry bump
        out.append(("%s-zero-cocycle" % base.name, "cocycle", (ad, LinearMap.zero(n, n))))
        dense = LinearMap([[SIZE * rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        out.append(("%s-dense-cocycle" % base.name, "cocycle", (ad, dense)))
        line = HomLieRep(g, 1, LinearMap([[LAM]]), [LinearMap.zero(1, 1)] * n)
        killing = _derived_annihilator(base)
        out.append(("%s-line-cocycle" % base.name, "cocycle", (line, killing)))
        j = rng.randrange(n)
        out.append(("%s-line-cocycle-bump%d" % (base.name, j), "cocycle", (line, _bumped_map(killing, 0, j, SIZE))))
        # morphisms: the twist, the basis change from the graded basis, and their bumps
        for label, f, src, dst in (("twist", a.twist, a, a), ("lie-twist", g.twist, g, g),
                                   ("basis", LinearMap(base.p), base.graded, a)):
            out.append(("%s-morphism-%s" % (base.name, label), "morphism", (f, src, dst)))
            i, j = rng.randrange(n), rng.randrange(n)
            out.append(("%s-morphism-%s-bump%d%d" % (base.name, label, i, j), "morphism",
                        (_bumped_map(f, i, j, SIZE), src, dst)))
        # O-operators: the identity over half the once-shifted regular actions,
        # and the projection over their widening by a trivial line
        half = shifted_rep(a, 1)
        half = HomPreLieRep(a, n, a.twist, [x.scale(Fraction(1, 2)) for x in half.left],
                            [x.scale(Fraction(1, 2)) for x in half.right])
        left, twist = base.widened(half.left, a.twist)
        right, _ = base.widened(half.right, a.twist)
        wide = HomPreLieRep(a, n + 1, twist, left, right)
        projection = LinearMap(O.matmul([[int(i == j) for j in range(n + 1)] for i in range(n)], base.q_inv))
        for label, o in (("identity", OOperator(half, LinearMap.identity(n))),
                         ("projection", OOperator(wide, projection))):
            out.append(("%s-o-%s" % (base.name, label), "o_operator", o))
            i, j = rng.randrange(n), rng.randrange(o.rep.space_dim)
            out.append(("%s-o-%s-bump%d%d" % (base.name, label, i, j), "o_operator",
                        OOperator(o.rep, _bumped_map(o.matrix, i, j, SIZE))))
            p, i, j = rng.randrange(n), rng.randrange(o.rep.space_dim), rng.randrange(o.rep.space_dim)
            maps = list(o.rep.right)
            maps[p] = _bumped_map(maps[p], i, j, SIZE)
            out.append(("%s-o-%s-right-bump%d%d%d" % (base.name, label, p, i, j), "o_operator",
                        OOperator(HomPreLieRep(a, o.rep.space_dim, o.rep.twist, o.rep.left, maps), o.matrix)))
    return out


def _derived_annihilator(base):
    """A 1 x n functional vanishing on every bracket of the base's Lie algebra."""
    c = _t(base.lie.bracket)
    n = base.n
    rows = [c[i][j] for i in range(n) for j in range(n)]
    # a kernel vector u of the rows v (u . v = 0), by Gauss-Jordan elimination:
    # 1 at the first free column, minus that column of each pivot row at its pivot
    work = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(n):
        pivot = next((r for r in range(len(pivots), len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        top = len(pivots)
        work[top], work[pivot] = work[pivot], work[top]
        lead = work[top]
        work[top] = [x / lead[col] for x in lead]
        for r in range(len(work)):
            if r != top and work[r][col]:
                work[r] = [x - work[r][col] * y for x, y in zip(work[r], work[top])]
        pivots.append(col)
    free = next(col for col in range(n) if col not in pivots)
    u = [Fraction(0)] * n
    u[free] = Fraction(1)
    for r, col in enumerate(pivots):
        u[col] = -work[r][free]
    # u must pair to zero with every bracket: u . v = sum_k u_k v_k
    assert all(sum(x * y for x, y in zip(u, v)) == 0 for v in rows)
    return LinearMap([[x * SIZE for x in u]])


REPS = _rep_cases()


def _reference(kind, value):
    if kind == "lie_rep":
        rep = value
        return _lie_rep_ref(_t(rep.algebra.bracket), _m(rep.algebra.twist), _m(rep.twist),
                            [_m(x) for x in rep.maps])
    if kind == "pre_lie_rep":
        rep = value
        return _pre_lie_rep_ref(_t(rep.algebra.product), _m(rep.algebra.twist), _m(rep.twist),
                                [_m(x) for x in rep.left], [_m(x) for x in rep.right])
    if kind == "cocycle":
        rep, delta = value
        return _cocycle_ref(_t(rep.algebra.bracket), _m(rep.algebra.twist), [_m(x) for x in rep.maps], _m(delta))
    if kind == "morphism":
        f, src, dst = value
        return _morphism_ref(_m(f), _t(src.operation()), _m(src.twist), _t(dst.operation()), _m(dst.twist))
    o = value
    rep = o.rep
    return _o_operator_ref(_t(rep.algebra.product), _m(rep.algebra.twist), _m(rep.twist),
                           [_m(x) for x in rep.left], [_m(x) for x in rep.right], _m(o.matrix))


VALIDATORS = {"lie_rep": validate_lie_rep, "pre_lie_rep": validate_pre_lie_rep,
              "cocycle": lambda v: check_one_cocycle(*v), "morphism": lambda v: check_morphism(*v),
              "o_operator": validate_o_operator}


@pytest.mark.parametrize("name, kind, value", REPS, ids=[case[0] for case in REPS])
def test_big_report_matches_fraction_recomputation(name, kind, value):
    assert _report(VALIDATORS[kind](value)) == _reference(kind, value)


def test_big_cases_are_large_valid_and_failing_in_single_slots():
    reports = [validate_hom_lie(g) for _, g in HOM_LIE] + [VALIDATORS[kind](v) for _, kind, v in REPS]
    for _, kind, value in REPS:
        if kind == "pre_lie_rep":
            entries = [Fraction(x) for plane in value.algebra.product.entries for v in plane for x in v]
            assert max(abs(x.numerator) for x in entries) > 10 ** 30
            assert any(x.denominator % (10 ** 12 + 39) == 0 for x in entries)
            assert any(Fraction(x).denominator % (10 ** 12 + 61) == 0
                       for row in value.algebra.twist.entries for x in row)
    valid = {name.split("-", 2)[2] for (name, _, _), r in zip(REPS, reports[len(HOM_LIE):]) if r.valid}
    assert {"adjoint", "adjoint-widened", "regular", "coadjoint", "regular-widened", "zero-cocycle",
            "line-cocycle", "morphism-twist", "morphism-lie-twist", "morphism-basis", "o-identity",
            "o-projection"} <= valid
    failures = [f for r in reports for f in r.failures]
    assert any(sum(1 for x in f.residual if x) == 1 for f in failures)
    assert any(sum(1 for x in f.residual if x) > 1 for f in failures)
    for kind in VALIDATORS:
        assert any(not r.valid for (_, k, _), r in zip(REPS, reports[len(HOM_LIE):]) if k == kind)


def _sign_cases():
    """(name, kind, value): each validator on inputs whose entries are all
    +-SIZE with seeded signs, so every int of the validator's family has the
    size its slot width is computed from and a failing instance's residual
    slots come within a bit or two of the width's limit."""
    rng = random.Random(24)

    def entries(*shape):
        if len(shape) == 1:
            return [rng.choice((-1, 1)) * SIZE for _ in range(shape[0])]
        return [entries(*shape[1:]) for _ in range(shape[0])]

    def twist(n):
        while True:
            t = LinearMap(entries(n, n))
            if t.is_invertible():
                return t

    def maps(count, size):
        return [LinearMap(entries(size, size)) for _ in range(count)]

    out = []
    for n, m in ((2, 3), (3, 2), (3, 3), (4, 2)):
        for copy in range(2):
            g, h = (HomLieAlgebra(Tensor3(entries(k, k, k)), twist(k)) for k in (n, m))
            a, b = (HomPreLieAlgebra(Tensor3(entries(k, k, k)), twist(k)) for k in (n, m))
            beta = twist(m)
            for kind, value in (
                    ("hom_lie", g),
                    ("lie_rep", HomLieRep(g, m, beta, maps(n, m))),
                    ("pre_lie_rep", HomPreLieRep(a, m, beta, maps(n, m), maps(n, m))),
                    ("cocycle", (HomLieRep(g, m, beta, maps(n, m)), LinearMap(entries(m, n)))),
                    ("morphism", (LinearMap(entries(m, n)), a, b)),
                    ("o_operator", OOperator(HomPreLieRep(a, m, beta, maps(n, m), maps(n, m)),
                                             LinearMap(entries(n, m)))),
                    ("lie_pair", LieMatchedPair(g, h, maps(n, m), maps(m, n))),
                    ("pre_lie_pair", PreLieMatchedPair(a, b, maps(n, m), maps(n, m), maps(m, n), maps(m, n)))):
                out.append(("%s-%d%d-%d" % (kind, n, m, copy), kind, value))
    return out


SIGNS = _sign_cases()


@pytest.mark.parametrize("name, kind, value", SIGNS, ids=[case[0] for case in SIGNS])
def test_sign_saturated_report_matches_recomputation(name, kind, value):
    if kind == "hom_lie":
        report = validate_hom_lie(value)
        expected = O.hom_lie_failures(_t(value.bracket), _m(value.twist))
        assert set(_report(report)) == expected and len(expected) == len(report.failures)
    elif kind == "lie_pair":
        assert _report(validate_matched_pair_lie(value), cross_only=True) == _lie_pair_ref(value)
    elif kind == "pre_lie_pair":
        assert _report(validate_matched_pair_pre_lie(value), cross_only=True) == _pre_lie_pair_ref(value)
    else:
        assert _report(VALIDATORS[kind](value)) == _reference(kind, value)


# ---- matched pairs: verdicts against doubles, doubles against the oracle ----

def _abelian(twist):
    n = twist.rows
    return Tensor3.zero(n, n, n), twist


def _pre_lie_pairs(base, big):
    """Equal- and unequal-dimension pre-Lie matched pairs on one base, with a
    one-entry bump of an action of each."""
    a, n = base.pre_lie, base.n
    regular = regular_rep(a)
    zero = [LinearMap.zero(n, n)] * n
    left, twist = base.widened(regular.left, a.twist)
    right, _ = base.widened(regular.right, a.twist)
    line = HomPreLieAlgebra(*_abelian(twist))
    none = [LinearMap.zero(n, n)] * (n + 1)
    pairs = [("regular", PreLieMatchedPair(a, HomPreLieAlgebra(*_abelian(a.twist)), regular.left, regular.right,
                                           zero, zero)),
             ("coadjoint", coadjoint_matched_pair(a, fixtures.zero_dual_partner(a))),
             ("widened", PreLieMatchedPair(a, line, left, right, none, none)),
             ("widened-first", PreLieMatchedPair(line, a, none, none, left, right))]
    rng = random.Random(len(pairs) * base.n + big)
    out = []
    for label, mp in pairs:
        out.append(("%s-%s" % (base.name, label), mp))
        family = "second_right" if label == "widened-first" else "first_left"
        maps = list(getattr(mp, family))
        size = maps[0].rows
        p, i, j = rng.randrange(len(maps)), rng.randrange(size), rng.randrange(size)
        maps[p] = _bumped_map(maps[p], i, j, SIZE if big else 1)
        fields = dict(first_left=mp.first_left, first_right=mp.first_right,
                      second_left=mp.second_left, second_right=mp.second_right)
        fields[family] = maps
        out.append(("%s-%s-%s-bump%d%d%d" % (base.name, label, family, p, i, j),
                    PreLieMatchedPair(mp.first, mp.second, **fields)))
    return out


def _lie_pairs(base, big):
    g, n = base.lie, base.n
    ad = adjoint_rep(g).maps
    maps, twist = base.widened(ad, g.twist)
    line = HomLieAlgebra(*_abelian(twist))
    pairs = [("adjoint", LieMatchedPair(g, HomLieAlgebra(*_abelian(g.twist)), ad, [LinearMap.zero(n, n)] * n)),
             ("coadjoint", coadjoint_lie_matched_pair(base.pre_lie, fixtures.zero_dual_partner(base.pre_lie))),
             ("widened", LieMatchedPair(g, line, maps, [LinearMap.zero(n, n)] * (n + 1))),
             ("widened-first", LieMatchedPair(line, g, [LinearMap.zero(n, n)] * (n + 1), maps))]
    rng = random.Random(len(pairs) * base.n + 7 + big)
    out = []
    for label, mp in pairs:
        out.append(("%s-%s" % (base.name, label), mp))
        family = "second_action" if label == "widened-first" else "first_action"
        acts = list(getattr(mp, family))
        size = acts[0].rows
        p, i, j = rng.randrange(len(acts)), rng.randrange(size), rng.randrange(size)
        acts[p] = _bumped_map(acts[p], i, j, SIZE if big else 1)
        fields = dict(first_action=mp.first_action, second_action=mp.second_action)
        fields[family] = acts
        out.append(("%s-%s-%s-bump%d%d%d" % (base.name, label, family, p, i, j),
                    LieMatchedPair(mp.first, mp.second, **fields)))
    return out


PRE_LIE_PAIRS = [case for base in SMALL for case in _pre_lie_pairs(base, False)]
PRE_LIE_PAIRS += [case for base in BIG[:2] for case in _pre_lie_pairs(base, True)]
LIE_PAIRS = [case for base in SMALL for case in _lie_pairs(base, False)]
LIE_PAIRS += [case for base in BIG[:2] for case in _lie_pairs(base, True)]


def _double_table(first, second, blocks):
    """The double's table in lists, placed from the entries: the two tables on
    their diagonal blocks, then each action map's entry (k, j) of maps[i] at
    (acting + i, acted + j, acted + k), or at (acted + j, acting + i, acted + k)
    when swapped, negated when asked."""
    n, m = len(first), len(second)
    size = n + m
    c = O.zeros3(size, size, size)
    for offset, t in ((0, first), (n, second)):
        for i, plane in enumerate(t):
            for j, v in enumerate(plane):
                for k, x in enumerate(v):
                    c[offset + i][offset + j][offset + k] = x
    for maps, acting, acted, swap, negate in blocks:
        for i, a in enumerate(maps):
            for k, row in enumerate(a):
                for j, x in enumerate(row):
                    if x:
                        at = (acted + j, acting + i) if swap else (acting + i, acted + j)
                        c[at[0]][at[1]][acted + k] = -x if negate else x
    return c


@pytest.mark.parametrize("name, mp", PRE_LIE_PAIRS, ids=[case[0] for case in PRE_LIE_PAIRS])
def test_pre_lie_pair_agrees_with_its_double_and_the_oracle(name, mp):
    n = mp.first.dim
    double = double_pre_lie(mp)
    pair = validate_matched_pair_pre_lie(mp)
    report = validate_hom_pre_lie(double)
    assert pair.valid == report.valid
    expected_table = _double_table(_t(mp.first.product), _t(mp.second.product), [
        ([_m(x) for x in mp.first_left], 0, n, False, False), ([_m(x) for x in mp.first_right], 0, n, True, False),
        ([_m(x) for x in mp.second_left], n, 0, False, False), ([_m(x) for x in mp.second_right], n, 0, True, False)])
    assert _t(double.product) == expected_table
    triples = [(f.identity, f.witness, f.residual) for f in report.failures]
    assert set(triples) == O.hom_pre_lie_failures(expected_table, _m(double.twist))
    assert _report(pair, cross_only=True) == _pre_lie_pair_ref(mp)


@pytest.mark.parametrize("name, mp", LIE_PAIRS, ids=[case[0] for case in LIE_PAIRS])
def test_lie_pair_agrees_with_its_double_and_the_oracle(name, mp):
    n = mp.first.dim
    double = double_lie(mp)
    pair = validate_matched_pair_lie(mp)
    report = validate_hom_lie(double)
    assert pair.valid == report.valid
    first, second = [_m(x) for x in mp.first_action], [_m(x) for x in mp.second_action]
    expected_table = _double_table(_t(mp.first.bracket), _t(mp.second.bracket), [
        (first, 0, n, False, False), (first, 0, n, True, True),
        (second, n, 0, False, False), (second, n, 0, True, True)])
    assert _t(double.bracket) == expected_table
    triples = [(f.identity, f.witness, f.residual) for f in report.failures]
    assert set(triples) == O.hom_lie_failures(expected_table, _m(double.twist))
    assert _report(pair, cross_only=True) == _lie_pair_ref(mp)


def test_pairs_cover_twists_dims_and_both_verdicts():
    for pairs, validate in ((PRE_LIE_PAIRS, validate_matched_pair_pre_lie),
                            (LIE_PAIRS, validate_matched_pair_lie)):
        dims = {(mp.first.dim, mp.second.dim) for _, mp in pairs}
        assert {(3, 3), (4, 4), (3, 4), (4, 3), (4, 5), (5, 4)} <= dims
        assert all(mp.first.twist != LinearMap.identity(mp.first.dim) for _, mp in pairs)
        verdicts = [validate(mp).valid for _, mp in pairs]
        assert 0 < sum(verdicts) < len(verdicts)


def test_zero_dimensional_targets_give_valid_reports():
    """A map into the zero algebra, and an operator into it, satisfy every
    identity: there is no slot to fail."""
    zero = HomPreLieAlgebra(Tensor3.zero(0, 0, 0), LinearMap.identity(0))
    a = fixtures.nilpotent_algebra()
    assert check_morphism(LinearMap((), rows=0, cols=a.dim), a, zero).to_dict() == {"valid": True, "failures": []}
    rep = HomPreLieRep(zero, 2, LinearMap.identity(2), [], [])
    report = validate_o_operator(OOperator(rep, LinearMap((), rows=0, cols=2)))
    assert report.to_dict() == {"valid": True, "failures": []}


# ---- the action-table store and the twisted dual, from .entries only ----

def _table_of(maps, size):
    """The action table of a family, placed from the maps' entries: slice (p, q)
    is column q of map p."""
    return Tensor3([[_col(_m(x), q) for q in range(size)] for x in maps], dims=(len(maps), size, size))


# each container's family views, and the size of the space each family acts on
VIEWS = {HomLieRep: (("maps", "space"),), HomPreLieRep: (("left", "space"), ("right", "space")),
         LieMatchedPair: (("first_action", "second"), ("second_action", "first")),
         PreLieMatchedPair: (("first_left", "second"), ("first_right", "second"),
                             ("second_left", "first"), ("second_right", "first"))}


def _rebuilt(value, families):
    """The container rebuilt from the given families, one per view in order."""
    if isinstance(value, (HomLieRep, HomPreLieRep)):
        return type(value)(value.algebra, value.space_dim, value.twist, *families)
    return type(value)(value.first, value.second, *families)


def _acted_dim(value, owner):
    return value.space_dim if owner == "space" else getattr(value, owner).dim


STORE_CASES = [(name, value) for name, kind, value in REPS if kind in ("lie_rep", "pre_lie_rep")
               and "widened" in name] + [case for case in PRE_LIE_PAIRS + LIE_PAIRS if "widened" in case[0]]


@pytest.mark.parametrize("name, value", STORE_CASES, ids=[case[0] for case in STORE_CASES])
def test_a_container_stores_each_family_as_its_table(name, value):
    """Built from maps or from the equal tables placed from their entries, a
    container is the same value, its views give back the maps it was given,
    and its document has the same bytes."""
    views = VIEWS[type(value)]
    given = [list(getattr(value, view)) for view, _ in views]
    tables = [_table_of(maps, _acted_dim(value, owner)) for maps, (_, owner) in zip(given, views)]
    from_maps, from_tables = _rebuilt(value, given), _rebuilt(value, tables)
    assert from_maps == from_tables == value
    for built in (from_maps, from_tables):
        for maps, (view, _) in zip(given, views):
            assert getattr(built, view) == tuple(maps)
    assert serialize_document(document_for(from_maps)) == serialize_document(document_for(from_tables))


def _star_ref(maps, alpha, beta):
    """The twisted dual family from entries: at i, minus the transpose of the
    action at alpha(e_i), times the square of (beta^-1)^T."""
    inv_t = O.transpose(O.inverse(beta))
    square = O.matmul(inv_t, inv_t)
    size = len(beta)
    out = []
    for i in range(len(alpha)):
        rows = [_lin(size, [(alpha[r][i], a[k]) for r, a in enumerate(maps)]) for k in range(size)]
        out.append([[-x for x in row] for row in O.matmul(O.transpose(rows), square)])
    return out


def _wide_pre_lie_reps():
    """The regular action plus a trivial line, on the space one larger, for
    each base: algebra and space dims differ, and so do their twists."""
    out = []
    for base in SMALL + BIG[:2]:
        a = base.pre_lie
        regular = regular_rep(a)
        left, twist = base.widened(regular.left, a.twist)
        right, _ = base.widened(regular.right, a.twist)
        out.append((base.name, HomPreLieRep(a, base.n + 1, twist, left, right)))
    return out


WIDE = _wide_pre_lie_reps()


@pytest.mark.parametrize("name, rep", WIDE, ids=[case[0] for case in WIDE])
def test_star_maps_and_dual_rep_match_an_entries_recomputation(name, rep):
    a = rep.algebra
    alpha, beta = _m(a.twist), _m(rep.twist)
    assert len(alpha) != len(beta) and a.twist != LinearMap.identity(a.dim)
    left, right = [_m(x) for x in rep.left], [_m(x) for x in rep.right]
    star_left, star_right = _star_ref(left, alpha, beta), _star_ref(right, alpha, beta)
    starred = star_maps(rep.left_table, a.twist, rep.twist)
    assert starred.dims == (a.dim, rep.space_dim, rep.space_dim)
    assert [_m(x) for x in starred.left_maps()] == star_left
    assert star_maps(rep.left, a.twist, rep.twist) == starred
    dual = dual_pre_lie_rep(a, rep)
    assert [_m(x) for x in dual.left] == [[_sub(p, q) for p, q in zip(sl, sr)]
                                          for sl, sr in zip(star_left, star_right)]
    assert [_m(x) for x in dual.right] == [[[-x for x in row] for row in sr] for sr in star_right]
    assert _m(dual.twist) == O.transpose(O.inverse(beta))
