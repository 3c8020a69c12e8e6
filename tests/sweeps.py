"""Seeded candidate generators shared by the unit tests and the acceptance
sweeps. Every candidate comes from an ordinal substream, so a run is
reproducible and a prefix of a longer run."""

from fractions import Fraction

from hombench import (HomLieAlgebra, HomPreLieAlgebra, LieMatchedPair, LinearMap,
                      PreLieMatchedPair, SearchSpec, Tensor3,
                      coadjoint_matched_pair, coadjoint_pre_lie_rep,
                      dual_pre_lie_rep, dual_product_from_r, regular_rep,
                      run_search, shifted_rep, substream)

COEFFS = (Fraction(-1), Fraction(0), Fraction(1))


def _coeff(stream):
    return COEFFS[stream.below(3)]


def _matrix(stream, n):
    return LinearMap(tuple(tuple(_coeff(stream) for _ in range(n)) for _ in range(n)))


def _bump(m, i, j):
    rows = [list(row) for row in m.entries]
    rows[i][j] += 1
    return LinearMap(tuple(tuple(row) for row in rows))


def _skew_bracket(stream, n):
    items = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                c = _coeff(stream)
                if c != 0:
                    items[(i, j, k)] = c
                    items[(j, i, k)] = -c
    return Tensor3.from_entries((n, n, n), items)


def _random_lie(stream, n):
    return HomLieAlgebra(_skew_bracket(stream, n), LinearMap.identity(n))


def _abelian_lie(n):
    return HomLieAlgebra(Tensor3.from_entries((n, n, n), {}), LinearMap.identity(n))


def lie_pair_candidates(seed, count, dim=2):
    """Four interleaved families: fully random actions, zero actions, the
    adjoint action on an abelian partner, and one-entry bumps of the latter."""
    out = []
    for ordinal in range(count):
        s = substream(seed, ordinal)
        kind = ordinal % 4
        if kind == 0:
            g = _random_lie(s, dim)
            h = _random_lie(s, dim)
            first = [_matrix(s, dim) for _ in range(dim)]
            second = [_matrix(s, dim) for _ in range(dim)]
        elif kind == 1:
            g = _random_lie(s, dim)
            h = _random_lie(s, dim)
            zero = LinearMap.zero(dim, dim)
            first = [zero] * dim
            second = [zero] * dim
        else:
            g = _random_lie(s, dim)
            h = _abelian_lie(dim)
            first = g.bracket.left_maps()
            second = [LinearMap.zero(dim, dim)] * dim
            if kind == 3:
                which = s.below(dim)
                first = list(first)
                first[which] = _bump(first[which], s.below(dim), s.below(dim))
        out.append(LieMatchedPair(g, h, tuple(first), tuple(second)))
    return out


def pre_lie_pool(limit=200, dim=2):
    spec = SearchSpec(target="hom_pre_lie", dim=dim, coefficients=COEFFS,
                      mode="exhaustive", limit=limit, budget=3 ** (dim ** 3))
    return [doc.value for doc in run_search(spec)]


def smatrix_dual_pairs(pool, max_bases=40, per_base=10):
    """Pairs (algebra, dual algebra) where the dual product comes from a
    symmetric solution of the twisted classical equation."""
    pairs = []
    for a in pool[:max_bases]:
        spec = SearchSpec(target="s_matrix", dim=a.dim, coefficients=COEFFS,
                          mode="exhaustive", limit=per_base, base=a)
        for doc in run_search(spec):
            pairs.append((a, dual_product_from_r(a, doc.value)))
    return pairs


def pre_lie_pair_candidates(seed, count, pool, dual_pairs):
    """Random actions, zero actions, canonical coadjoint pairs from dual
    products, and one-entry bumps of those coadjoint pairs."""
    out = []
    for ordinal in range(count):
        s = substream(seed, ordinal)
        kind = ordinal % 4
        if kind == 0:
            a = s.pick(pool)
            b = s.pick(pool)
            n = a.dim
            fams = [tuple(_matrix(s, n) for _ in range(n)) for _ in range(4)]
            pair = PreLieMatchedPair(a, b, *fams)
        elif kind == 1:
            a = s.pick(pool)
            b = s.pick(pool)
            zero = (LinearMap.zero(a.dim, a.dim),) * a.dim
            pair = PreLieMatchedPair(a, b, zero, zero, zero, zero)
        else:
            a, adual = s.pick(dual_pairs)
            pair = coadjoint_matched_pair(a, adual)
            if kind == 3:
                fams = [list(pair.first_left), list(pair.first_right),
                        list(pair.second_left), list(pair.second_right)]
                fam = s.below(4)
                which = s.below(a.dim)
                fams[fam][which] = _bump(fams[fam][which], s.below(a.dim), s.below(a.dim))
                pair = PreLieMatchedPair(pair.first, pair.second,
                                         tuple(fams[0]), tuple(fams[1]),
                                         tuple(fams[2]), tuple(fams[3]))
        out.append(pair)
    return out


def _random_tensor3(stream, n):
    items = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = _coeff(stream)
                if c != 0:
                    items[(i, j, k)] = c
    return Tensor3.from_entries((n, n, n), items)


def dual_algebra_candidates(seed, count, a, smatrices):
    """Candidate dual products over a fixed base: a third from symmetric
    solutions of the twisted classical equation, the rest random tables."""
    dual_twist = a.twist.inverse().transpose()
    out = []
    for ordinal in range(count):
        s = substream(seed, ordinal)
        if ordinal % 3 == 0 and smatrices:
            out.append(dual_product_from_r(a, s.pick(smatrices)))
        else:
            out.append(HomPreLieAlgebra(_random_tensor3(s, a.dim), dual_twist))
    return out


def semidirect_candidates(seed, count, pool):
    """(algebra, representation, operator) triples whose operator intertwines
    the twists, drawn over the searched pool with varied representation kinds."""
    out = []
    ordinal = 0
    while len(out) < count:
        s = substream(seed, ordinal)
        ordinal += 1
        a = s.pick(pool)
        kind = s.below(4)
        if kind == 0:
            rep = regular_rep(a)
        elif kind == 1:
            rep = coadjoint_pre_lie_rep(a)
        elif kind == 2:
            rep = dual_pre_lie_rep(a, regular_rep(a))
        else:
            rep = shifted_rep(a, s.below(5) - 2)
        t = _matrix(s, a.dim)
        if t @ rep.twist != a.twist @ t:
            continue
        out.append((a, rep, t))
    return out
