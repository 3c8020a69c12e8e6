import random
from fractions import Fraction
from pathlib import Path

import pytest

import sweeps
from hombench import (Bialgebra, HomPreLieAlgebra, LinearMap, NotAnSMatrix, Pro1Violation,
                      SearchSpec, Tensor2, Tensor3, TwistMismatch, check_P_condition,
                      check_equivalence_theorem, check_one_cocycle, check_pro1,
                      check_pro3, coboundary_cocycle, coboundary_rep,
                      dual_product_from_r, dualize_product, hom_s_bracket,
                      is_hom_s_matrix, r_sharp, run_search,
                      triangular_bialgebra, validate_bialgebra)
from hombench import fixtures

COEFFS = (Fraction(-1), Fraction(0), Fraction(1))


def symmetric_tensors(dim=2, coeffs=COEFFS):
    """All symmetric 2x2 tables with entries drawn from the coefficient set."""
    out = []
    for ca in coeffs:
        for cb in coeffs:
            for cd in coeffs:
                items = {}
                if ca:
                    items[(0, 0)] = ca
                if cb:
                    items[(0, 1)] = cb
                    items[(1, 0)] = cb
                if cd:
                    items[(1, 1)] = cd
                out.append(Tensor2.from_entries(dim, dim, items))
    return out


def test_r_sharp_is_the_transpose_map():
    r = Tensor2.from_entries(2, 2, {(0, 1): 2, (1, 0): 3})
    m = r_sharp(r)
    assert m.apply((1, 0)) == (0, 2)
    assert m.apply((0, 1)) == (3, 0)


def test_pro1_verdicts():
    r11 = Tensor2.from_entries(2, 2, {(0, 0): 1})
    r22 = Tensor2.from_entries(2, 2, {(1, 1): 1})
    assert check_pro1(fixtures.nilpotent_algebra(), r11)
    assert not check_pro1(fixtures.scaling_algebra(), r22)
    assert not check_pro1(fixtures.scaled_nilpotent_algebra(), r11)


def test_dual_product_table():
    a = fixtures.nilpotent_algebra()
    r11 = Tensor2.from_entries(2, 2, {(0, 0): 1})
    d = dual_product_from_r(a, r11)
    # the only nonzero product of dual covectors: e2* acting on e1* gives e1*
    assert dict(d.product.nonzero_items()) == {(1, 0, 0): Fraction(1)}
    assert d.twist == LinearMap.identity(2)


def test_dual_product_needs_pro1():
    with pytest.raises(Pro1Violation):
        dual_product_from_r(fixtures.scaling_algebra(),
                            Tensor2.from_entries(2, 2, {(1, 1): 1}))


def test_coboundary_cocycle_columns():
    a = fixtures.nilpotent_algebra()
    r11 = Tensor2.from_entries(2, 2, {(0, 0): 1})
    cc = coboundary_cocycle(a, r11)
    assert cc.column(0) == (0, 0, 1, 0)
    assert cc.column(1) == (0, 0, 0, 0)
    report = check_one_cocycle(coboundary_rep(a), cc)
    assert report.valid


def test_hom_s_bracket_items():
    a = fixtures.nilpotent_algebra()
    r11 = Tensor2.from_entries(2, 2, {(0, 0): 1})
    br = hom_s_bracket(a, r11)
    assert dict(br.nonzero_items()) == {(0, 0, 1): Fraction(1), (1, 0, 0): Fraction(-1)}
    assert not br.is_zero()
    assert hom_s_bracket(a, fixtures.nilpotent_smatrix()).is_zero()


ORACLE = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"


def _oracle_s_bracket():
    """s_bracket of bench/oracle.py, loaded by path: the closed form from B = A r
    and C = r A^T, in plain nested lists and with no hombench code."""
    namespace = {"__name__": "bench_oracle"}
    exec(compile(ORACLE.read_text(encoding="utf-8"), str(ORACLE), "exec"), namespace)
    return namespace["s_bracket"]


def pairwise_s_bracket(a, r):
    """The twisted square bracket expanded over every pair of nonzero tensor
    entries r_pq, r_st in plain Fraction arithmetic:
    alpha(e_p) (x) alpha(e_s) (x) e_q e_t - alpha(e_p) (x) [e_s, e_q] (x) alpha(e_t)
    - e_p e_s (x) alpha(e_t) (x) alpha(e_q)."""
    n = a.dim
    c = a.product.entries
    alpha = [[Fraction(a.twist.entries[i][p]) for i in range(n)] for p in range(n)]   # alpha(e_p)
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]

    def add(coeff, u, v, w):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    out[i][j][k] += coeff * u[i] * v[j] * w[k]

    items = [((p, q), Fraction(x)) for p, row in enumerate(r.entries) for q, x in enumerate(row) if x]
    for (p, q), c1 in items:
        for (s, t), c2 in items:
            commutator = [c[s][q][k] - c[q][s][k] for k in range(n)]
            add(c1 * c2, alpha[p], alpha[s], c[q][t])
            add(-c1 * c2, alpha[p], commutator, alpha[t])
            add(-c1 * c2, c[p][s], alpha[t], alpha[q])
    return out


def _random_inputs():
    """Rational inputs at dims 1-5: a dense product table and a dense twist that
    is not the identity, with a non-symmetric r, a symmetric r (neither
    intertwines a generic twist), an intertwining r (up to dim 4) and r = 0.
    The pairwise reference is quartic in the entries of r, so r is sparse at
    dim 5. At dims 2 and 3, inputs whose entries all have numerators near
    10^30 over a denominator near 10^12 test the packed width."""
    rng = random.Random(20191231)

    def q():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))

    def dense(n):
        return [[q() for _ in range(n)] for _ in range(n)]

    out = []
    for n in range(1, 6):
        for case in ("non-symmetric", "symmetric", "zero") + (("intertwining",) if n < 5 else ()):
            product = Tensor3([[[q() for _ in range(n)] for _ in range(n)] for _ in range(n)])
            twist = LinearMap(dense(n))
            while not twist.is_invertible() or twist == LinearMap.identity(n):
                twist = LinearMap(dense(n))
            rows = dense(n) if n < 5 else [[q() if rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(n)]
            if case == "symmetric":
                rows = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
            elif case == "intertwining":
                # twist = P diag(d) P^-1 and r = P r0 P^T with r0_ij = 0 unless d_i d_j = 1
                scales = [rng.choice((1, -1))] + [rng.choice((1, -1, 2, Fraction(1, 2))) for _ in range(n - 1)]
                change = twist
                twist = change @ LinearMap.diagonal(scales) @ change.inverse()
                r0 = [[rows[i][j] if scales[i] * scales[j] == 1 else 0 for j in range(n)] for i in range(n)]
                r0[0][0] = 1
                rows = (change @ LinearMap(r0) @ change.transpose()).entries
            elif case == "zero":
                rows = [[0] * n for _ in range(n)]
            out.append((n, case, HomPreLieAlgebra(product, twist), Tensor2(rows)))
    for n in (2, 3):
        # every entry +-(3 10^30 + 1)/(10^12 + 39), so the packed products come near their slot width
        def signed(*shape):
            if len(shape) == 1:
                return [rng.choice((-1, 1)) * Fraction(3 * 10 ** 30 + 1, 10 ** 12 + 39) for _ in range(shape[0])]
            return [signed(*shape[1:]) for _ in range(shape[0])]

        for copy in range(2):
            out.append((n, "signed%d" % copy, HomPreLieAlgebra(Tensor3(signed(n, n, n)), LinearMap(signed(n, n))),
                        Tensor2(signed(n, n))))
    return out


RANDOM_INPUTS = _random_inputs()


@pytest.mark.parametrize("n, case, a, r", RANDOM_INPUTS,
                         ids=["dim%d-%s" % (n, case) for n, case, _, _ in RANDOM_INPUTS])
def test_hom_s_bracket_matches_both_references(n, case, a, r):
    if case == "intertwining":
        assert check_pro1(a, r)
    square = hom_s_bracket(a, r)
    assert square.dims == (n, n, n)
    assert square.entries == tuple(tuple(tuple(vec) for vec in plane) for plane in pairwise_s_bracket(a, r))
    oracle = _oracle_s_bracket()([[list(vec) for vec in plane] for plane in a.product.entries],
                                 [list(row) for row in a.twist.entries], [list(row) for row in r.entries])
    assert square.entries == tuple(tuple(tuple(vec) for vec in plane) for plane in oracle)
    # at dim 1 every bracket vanishes: (A_0 A_0)_0 = (B_0 B_0)_0 and [B_0, A_0] = 0
    assert square.is_zero() == (case == "zero" or n == 1)


def test_pro3_holds_for_all_pro1_tensors():
    a = fixtures.nilpotent_algebra()
    checked = 0
    for r in symmetric_tensors():
        if not check_pro1(a, r):
            continue
        report = check_pro3(a, r)
        assert report.valid, dict(r.nonzero_items())
        checked += 1
    assert checked == 27


def test_s_matrix_census():
    a = fixtures.nilpotent_algebra()
    verdicts = [is_hom_s_matrix(a, r) for r in symmetric_tensors()]
    assert sum(verdicts) == 9
    assert is_hom_s_matrix(a, fixtures.nilpotent_smatrix())
    assert not is_hom_s_matrix(a, Tensor2.from_entries(2, 2, {(0, 0): 1}))


def test_p_condition_matches_cocycle_condition():
    a = fixtures.nilpotent_algebra()
    agreements = 0
    for r in symmetric_tensors():
        if not check_pro1(a, r):
            continue
        adual = dual_product_from_r(a, r)
        direct = check_P_condition(a, r).valid
        via_cocycle = check_one_cocycle(coboundary_rep(adual), dualize_product(a)).valid
        assert direct == via_cocycle, dict(r.nonzero_items())
        agreements += 1
    assert agreements == 27


def test_dualize_product_columns():
    assert dualize_product(fixtures.nilpotent_algebra()).column(1) == (1, 0, 0, 0)
    assert dualize_product(fixtures.scaling_algebra()).column(1) == (0, 1, 0, 0)


def test_bialgebra_constructor_enforces_dual_twist():
    a = fixtures.nilpotent_algebra()
    with pytest.raises(TwistMismatch):
        Bialgebra(a, fixtures.scaling_algebra())


def test_triangular_bialgebra_instance():
    a = fixtures.nilpotent_algebra()
    b = triangular_bialgebra(a, fixtures.nilpotent_smatrix())
    assert validate_bialgebra(b).valid
    assert b.phi_star == coboundary_cocycle(a, fixtures.nilpotent_smatrix())
    assert b.dual.product.is_zero()


def test_triangular_rejects_non_solutions():
    with pytest.raises(NotAnSMatrix):
        triangular_bialgebra(fixtures.nilpotent_algebra(),
                             Tensor2.from_entries(2, 2, {(0, 0): 1}))


def test_equivalence_theorem_valid_case():
    a = fixtures.nilpotent_algebra()
    b = triangular_bialgebra(a, fixtures.nilpotent_smatrix())
    report = check_equivalence_theorem(a, b.dual)
    assert report.valid
    assert report.details["agree"]
    assert report.details["bialgebra"].valid
    assert report.details["matched_pair"].valid
    assert report.details["manin_triple"].valid


def test_equivalence_theorem_mini_sweep():
    a = fixtures.nilpotent_algebra()
    spec = SearchSpec(target="s_matrix", dim=2, coefficients=COEFFS,
                      mode="exhaustive", limit=30, base=a)
    smats = [doc.value for doc in run_search(spec)]
    seen_valid = seen_invalid = 0
    for adual in sweeps.dual_algebra_candidates(21, 40, a, smats):
        report = check_equivalence_theorem(a, adual)
        assert report.details["agree"]
        if report.details["bialgebra"].valid:
            seen_valid += 1
        else:
            seen_invalid += 1
    assert seen_valid and seen_invalid
