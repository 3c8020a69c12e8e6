import random
from fractions import Fraction

import pytest

import sweeps
from hombench import (BilinearForm, DimensionMismatch, HomLieAlgebra, HomPreLieAlgebra,
                      HomPreLieRep, LieMatchedPair, LinearMap, ManinTriple, PreLieMatchedPair,
                      Tensor3, TwistMismatch, adjoint_rep, apply_bilinear,
                      check_pre_lie_matched_equiv,
                      coadjoint_lie_matched_pair, coadjoint_matched_pair, double_lie,
                      double_pre_lie, dual_pre_lie_rep, map_direct_sum, shifted_rep,
                      standard_manin_triple, standardize_manin_triple, sub_adjacent,
                      validate_hom_lie, validate_hom_pre_lie, validate_manin_triple,
                      validate_matched_pair_lie, validate_matched_pair_pre_lie)
from hombench import fixtures
from hombench.representations import semidirect_product_raw

TWISTED = (fixtures.scaling_algebra, fixtures.scaled_nilpotent_algebra)
SCALARS = (Fraction(2), Fraction(-1), Fraction(1, 3))


def _padded(maps, twist, scalar):
    """The action padded by one zero block, whose space twist is the scalar."""
    zero = LinearMap.zero(1, 1)
    return ([map_direct_sum(m, zero) for m in maps],
            map_direct_sum(twist, LinearMap.diagonal([scalar])))


def _bumps(maps, count, ordinal):
    """count one-entry bumps of a padded action family, at spread-out entries."""
    size = maps[0].rows
    out = []
    for t in range(count):
        which = (ordinal + t) % len(maps)
        bumped = list(maps)
        bumped[which] = sweeps._bump(maps[which], (ordinal + 2 * t) % size, (ordinal + t + 1) % size)
        out.append(bumped)
    return out


def unequal_pre_lie_pairs():
    """(pair, expected) at dims (2, 3) and (3, 2): the dual of a shifted action of
    a twisted fixture, padded by a zero block with a scalar twist, acting on a
    zero-product partner that acts back by zero (expected valid), and one-entry
    bumps of the left and of the right action (expected None: not known)."""
    out = []
    ordinal = 0
    for make in TWISTED:
        a = make()
        for s in range(-2, 3):
            rep = dual_pre_lie_rep(a, shifted_rep(a, s))
            for scalar in SCALARS[:2]:
                left, twist = _padded(rep.left, rep.twist, scalar)
                right, _ = _padded(rep.right, rep.twist, scalar)
                b = HomPreLieAlgebra(Tensor3.zero(3, 3, 3), twist)
                back = [LinearMap.zero(2, 2)] * 3
                families = [(left, right, True)]
                families += [(bumped, right, None) for bumped in _bumps(left, 1, ordinal)]
                families += [(left, bumped, None) for bumped in _bumps(right, 1, ordinal + 1)]
                for l_fam, r_fam, expected in families:
                    out.append((PreLieMatchedPair(a, b, l_fam, r_fam, back, back), expected))
                    out.append((PreLieMatchedPair(b, a, back, back, l_fam, r_fam), expected))
                ordinal += 1
    return out


def unequal_lie_pairs():
    """The Lie-side counterpart: the adjoint action of a twisted commutator
    algebra, padded, on an abelian partner, and two one-entry bumps of it."""
    out = []
    ordinal = 0
    for make in TWISTED:
        g = sub_adjacent(make())
        rep = adjoint_rep(g)
        for scalar in SCALARS:
            maps, twist = _padded(rep.maps, rep.twist, scalar)
            h = HomLieAlgebra(Tensor3.zero(3, 3, 3), twist)
            back = [LinearMap.zero(2, 2)] * 3
            families = [(maps, True)] + [(bumped, None) for bumped in _bumps(maps, 2, ordinal)]
            for fam, expected in families:
                out.append((LieMatchedPair(g, h, fam, back), expected))
                out.append((LieMatchedPair(h, g, back, fam), expected))
            ordinal += 1
    return out


def test_coadjoint_pair_with_zero_dual_is_matched():
    a = fixtures.nilpotent_algebra()
    pair = coadjoint_matched_pair(a, fixtures.zero_dual_partner(a))
    assert validate_matched_pair_pre_lie(pair).valid
    assert validate_hom_pre_lie(double_pre_lie(pair)).valid


def test_coadjoint_lie_pair_with_zero_dual_is_matched():
    a = fixtures.nilpotent_algebra()
    pair = coadjoint_lie_matched_pair(a, fixtures.zero_dual_partner(a))
    assert validate_matched_pair_lie(pair).valid
    assert validate_hom_lie(double_lie(pair)).valid


def test_matched_equiv_agrees_on_fixture():
    a = fixtures.nilpotent_algebra()
    report = check_pre_lie_matched_equiv(a, fixtures.zero_dual_partner(a))
    assert report.valid
    assert report.details["agree"]
    assert report.details["lie"].valid
    assert report.details["pre_lie"].valid


def test_matched_equiv_requires_dual_twists():
    a = fixtures.nilpotent_algebra()
    with pytest.raises(TwistMismatch):
        check_pre_lie_matched_equiv(a, fixtures.scaling_algebra())
    with pytest.raises(DimensionMismatch):
        coadjoint_matched_pair(a, HomPreLieAlgebra(
            Tensor3.from_entries((1, 1, 1), {}), LinearMap.identity(1)))


def test_standard_manin_product_oracle():
    a = fixtures.nilpotent_algebra()
    mt = standard_manin_triple(a, fixtures.zero_dual_partner(a))
    # the second covector multiplied onto the first base vector lands on the first covector
    assert mt.total.basis_product(3, 0) == (0, 0, 1, 0)
    assert mt.form.matrix.entries[0][2] == -1
    assert mt.form.matrix.entries[2][0] == 1
    assert validate_manin_triple(mt).valid


def test_double_lie_equivalence_sweep():
    hits = 0
    for pair in sweeps.lie_pair_candidates(7, 60):
        mv = validate_matched_pair_lie(pair).valid
        dv = validate_hom_lie(double_lie(pair)).valid
        assert mv == dv
        hits += mv
    assert 0 < hits < 60


def test_double_pre_lie_equivalence_sweep():
    pool = sweeps.pre_lie_pool(limit=80)
    pairs = sweeps.smatrix_dual_pairs(pool, max_bases=12, per_base=6)
    hits = 0
    for pair in sweeps.pre_lie_pair_candidates(13, 60, pool, pairs):
        mv = validate_matched_pair_pre_lie(pair).valid
        dv = validate_hom_pre_lie(double_pre_lie(pair)).valid
        assert mv == dv
        hits += mv
    assert 0 < hits < 60


def test_standardize_standard_triple_gives_identity():
    a = fixtures.nilpotent_algebra()
    mt = standard_manin_triple(a, fixtures.zero_dual_partner(a))
    st = standardize_manin_triple(mt)
    assert st.iso == LinearMap.identity(4)
    assert st.standard == mt


def _conjugate_triple(mt, s):
    """Pull the triple back along an invertible block map fixing the split."""
    dim = mt.total.dim
    s_inv = s.inverse()
    items = {}
    for i in range(dim):
        for j in range(dim):
            vec = s_inv.apply(mt.total.product_of(s.column(i), s.column(j)))
            for k, c in enumerate(vec):
                if c != 0:
                    items[(i, j, k)] = c
    product = Tensor3.from_entries((dim, dim, dim), items)
    twist = s_inv @ mt.total.twist @ s
    rows = tuple(tuple(mt.form.apply(s.column(i), s.column(j)) for j in range(dim))
                 for i in range(dim))
    form = BilinearForm(rows, mt.form.symmetry)
    return ManinTriple(HomPreLieAlgebra(product, twist), form, mt.first_dim, mt.second_dim)


def test_standardize_scrambled_triple():
    a = fixtures.nilpotent_algebra()
    mt = standard_manin_triple(a, fixtures.zero_dual_partner(a))
    q = LinearMap(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1)))
    scrambled = _conjugate_triple(mt, q)
    assert validate_manin_triple(scrambled).valid
    st = standardize_manin_triple(scrambled)
    assert st.iso != LinearMap.identity(4)
    assert validate_manin_triple(st.standard).valid
    total = scrambled.total
    for i in range(4):
        ei = tuple(1 if k == i else 0 for k in range(4))
        for j in range(4):
            ej = tuple(1 if k == j else 0 for k in range(4))
            left = st.iso.apply(total.product_of(ei, ej))
            right = st.standard.total.product_of(st.iso.apply(ei), st.iso.apply(ej))
            assert left == right
            assert scrambled.form.apply(ei, ej) == st.standard.form.apply(
                st.iso.apply(ei), st.iso.apply(ej))


def test_manin_validator_flags_non_isotropic_form():
    a = fixtures.nilpotent_algebra()
    mt = standard_manin_triple(a, fixtures.zero_dual_partner(a))
    rows = [list(row) for row in mt.form.matrix.entries]
    rows[0][1] += 1
    rows[1][0] -= 1
    bad = ManinTriple(mt.total, BilinearForm(tuple(tuple(r) for r in rows), "skew"), 2, 2)
    report = validate_manin_triple(bad)
    assert not report.valid
    idents = {f.identity for f in report.failures}
    assert "first-isotropic" in idents


def test_fixture_manin_triple_is_valid():
    docs = dict(fixtures.fixture_documents())
    assert validate_manin_triple(docs["nilpotent_manin"].value).valid


def test_unequal_dims_pre_lie_matched_pair_agrees_with_double():
    verdicts = []
    dims = set()
    for pair, expected in unequal_pre_lie_pairs():
        mv = validate_matched_pair_pre_lie(pair).valid
        assert mv == validate_hom_pre_lie(double_pre_lie(pair)).valid, pair
        if expected is not None:
            assert mv == expected
        verdicts.append(mv)
        dims.add((pair.first.dim, pair.second.dim))
    assert dims == {(2, 3), (3, 2)}
    # 40 padded actions, and 16 of the 80 bumps that happen to stay matched pairs
    assert len(verdicts) == 120
    assert verdicts.count(True) == 56


def test_unequal_dims_lie_matched_pair_agrees_with_double():
    verdicts = []
    for pair, expected in unequal_lie_pairs():
        mv = validate_matched_pair_lie(pair).valid
        assert mv == validate_hom_lie(double_lie(pair)).valid, pair
        if expected is not None:
            assert mv == expected
        verdicts.append(mv)
    # every bump of the 12 padded adjoint actions breaks the pair
    assert len(verdicts) == 36
    assert verdicts.count(True) == 12


def test_pinned_failures_of_an_unequal_pre_lie_pair():
    # the padded dual of the (-2)-shifted scaling action at dims (2, 3), with
    # the zero back-action bumped once in its left and once in its right family
    pair = unequal_pre_lie_pairs()[0][0]
    back_left = list(pair.second_left)
    back_left[0] = sweeps._bump(back_left[0], 1, 0)
    back_right = list(pair.second_right)
    back_right[0] = sweeps._bump(back_right[0], 0, 1)
    bad = PreLieMatchedPair(pair.first, pair.second, pair.first_left, pair.first_right,
                            back_left, back_right)
    assert (bad.first.dim, bad.second.dim) == (2, 3)
    report = validate_matched_pair_pre_lie(bad)
    assert [(f.identity, f.witness, f.residual) for f in report.failures] == [
        ("second-action.left-action-twist-compatibility", (0, 0), (0, -1)),
        ("second-action.right-twist-compatibility", (0, 1), (-1, 0)),
        ("second-action.left-right-compatibility", (0, 0, 0), (-1, 0)),
        ("second-action.left-right-compatibility", (0, 0, 1), (0, 1)),
        ("cross-right-second", (0, 0, 1), (Fraction(1, 16), 0, 0)),
        ("cross-right-second", (0, 1, 0), (Fraction(-1, 16), 0, 0)),
        ("cross-left-second", (0, 0, 1), (Fraction(1, 16), 0, 0)),
        ("cross-left-second", (1, 0, 1), (0, Fraction(1, 8), 0)),
        ("cross-right-first", (0, 0, 1), (1, 0)),
        ("cross-right-first", (0, 1, 0), (-1, 0)),
        ("cross-left-first", (0, 0, 0), (0, -1)),
        ("cross-left-first", (0, 1, 1), (0, 2)),
        ("cross-left-first", (1, 1, 1), (Fraction(-1, 4), 0)),
    ]
    assert not validate_hom_pre_lie(double_pre_lie(bad)).valid


def test_pinned_failures_of_an_unequal_lie_pair():
    # an abelian dim-3 algebra acting by two one-entry bumps of the zero action
    # on the twisted scaling commutator algebra, whose padded adjoint acts back
    pair = unequal_lie_pairs()[1][0]
    action = list(pair.first_action)
    action[0] = sweeps._bump(action[0], 0, 0)
    action[2] = sweeps._bump(action[2], 0, 1)
    bad = LieMatchedPair(pair.first, pair.second, action, pair.second_action)
    assert (bad.first.dim, bad.second.dim) == (3, 2)
    report = validate_matched_pair_lie(bad)
    # cross-first puts the acting index last in its witness
    assert [(f.identity, f.witness, f.residual) for f in report.failures] == [
        ("first-action.action-twist-compatibility", (2, 1), (3, 0)),
        ("first-action.action-bracket-compatibility", (0, 2, 1), (-1, 0)),
        ("first-action.action-bracket-compatibility", (2, 0, 1), (1, 0)),
        ("cross-first", (0, 1, 0), (0, 2, 0)),
        ("cross-first", (1, 0, 0), (0, -2, 0)),
        ("cross-first", (1, 2, 1), (0, -2, 0)),
        ("cross-first", (2, 1, 1), (0, 2, 0)),
        ("cross-second", (0, 0, 1), (0, -2)),
        ("cross-second", (0, 1, 0), (0, 2)),
        ("cross-second", (2, 0, 1), (2, 0)),
        ("cross-second", (2, 1, 0), (-2, 0)),
    ]
    assert not validate_hom_lie(double_lie(bad)).valid


def _random_map(rng, rows, cols):
    return LinearMap(tuple(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols))
                           for _ in range(rows)), rows=rows, cols=cols)


def _random_table(rng, n):
    return Tensor3.from_entries((n, n, n), {(i, j, k): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                            for i in range(n) for j in range(n) for k in range(n)})


def test_direct_sums_multiply_by_their_defining_formulas():
    """Each direct sum table, read back on split vectors x + u and y + v:
    double_lie gives [x,y] + rho'(u)y - rho'(v)x + [u,v] + rho(x)v - rho(y)u,
    double_pre_lie gives x.y + l'(u)y + r'(v)x + u.v + l(x)v + r(y)u, and the
    semidirect product gives x.y + rho(x)v + mu(y)u."""
    def at(maps, x):
        total = LinearMap.zero(maps[0].rows, maps[0].cols)
        for c, m in zip(x, maps):
            total = total + m.scale(c)
        return total

    def add(*vectors):
        return tuple(sum(parts) for parts in zip(*vectors))

    def neg(v):
        return tuple(-c for c in v)

    rng = random.Random(5)
    for n, m in ((1, 3), (3, 2), (2, 2)):
        g, h = _random_table(rng, n), _random_table(rng, m)
        twist_g, twist_h = _random_map(rng, n, n), _random_map(rng, m, m)
        x, y = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)) for _ in range(2)]
        u, v = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(m)) for _ in range(2)]
        rho, mu = [[_random_map(rng, m, m) for _ in range(n)] for _ in range(2)]
        back, back_mu = [[_random_map(rng, n, n) for _ in range(m)] for _ in range(2)]

        lie = double_lie(LieMatchedPair(HomLieAlgebra(g, twist_g), HomLieAlgebra(h, twist_h), rho, back))
        got = apply_bilinear(lie.bracket, x + u, y + v)
        assert got[:n] == add(apply_bilinear(g, x, y), at(back, u).apply(y), neg(at(back, v).apply(x)))
        assert got[n:] == add(apply_bilinear(h, u, v), at(rho, x).apply(v), neg(at(rho, y).apply(u)))

        a, b = HomPreLieAlgebra(g, twist_g), HomPreLieAlgebra(h, twist_h)
        pre = double_pre_lie(PreLieMatchedPair(a, b, rho, mu, back, back_mu))
        got = apply_bilinear(pre.product, x + u, y + v)
        assert got[:n] == add(apply_bilinear(g, x, y), at(back, u).apply(y), at(back_mu, v).apply(x))
        assert got[n:] == add(apply_bilinear(h, u, v), at(rho, x).apply(v), at(mu, y).apply(u))

        semi = semidirect_product_raw(a, HomPreLieRep(a, m, twist_h, rho, mu))
        got = apply_bilinear(semi.product, x + u, y + v)
        assert got == apply_bilinear(g, x, y) + add(at(rho, x).apply(v), at(mu, y).apply(u))
        assert semi.twist == pre.twist == lie.twist == map_direct_sum(twist_g, twist_h)
