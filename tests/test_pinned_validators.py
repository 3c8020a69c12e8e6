"""The single-structure validators against their defining formulas.

validate_hom_pre_lie, validate_hom_lie and validate_l_dendriform read every
product with a twisted basis vector from a multiplication operator built once
per call. The references below evaluate each identity instance directly with
apply_bilinear, in the same loop order, and must give the same report:
verdict, identity names, witnesses and residuals, in order.

The inputs are twisted and dense: the truncated Novikov algebra
x^i o x^j = j x^(i+j) on x^1..x^4, Yau-twisted by alpha = diag(lam^i) into
(alpha o product, alpha), then moved to the basis x' = P x by a P whose inverse
has thirds. On top of it sit its commutator Hom-Lie algebra, the L-dendriform
(product, 0) and the split (product / 2, -(y o x) / 2), plus one-entry bumps
of every table and twist.
"""

from fractions import Fraction

import pytest

from hombench import (Failure, HomLDendriform, HomLieAlgebra, HomPreLieAlgebra, LinearMap,
                      Tensor3, ValidationReport, apply_bilinear, validate_hom_lie,
                      validate_hom_pre_lie, validate_l_dendriform)

HALF = Fraction(1, 2)
DIM = 4
P = LinearMap(((1, 1, 0, 0), (0, 1, 0, -1), (1, 0, 2, 0), (0, 0, 1, 1)))


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _record(failures, identity, witness, residual):
    if any(c != 0 for c in residual):
        failures.append(Failure(identity, witness, residual))


def reference_hom_lie(cand):
    n, phi, c = cand.dim, cand.twist, cand.bracket
    failures = []
    for i in range(n):
        for j in range(i, n):
            _record(failures, "skew-symmetry", (i, j), _add(c.slice12(i, j), c.slice12(j, i)))
    if not phi.is_invertible():
        failures.append(Failure("twist-invertible", (), ()))
    phis = [phi.column(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            _record(failures, "twist-bracket-morphism", (i, j),
                    _sub(phi.apply(c.slice12(i, j)), apply_bilinear(c, phis[i], phis[j])))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = (0,) * n
                for (a, b, d) in ((i, j, k), (j, k, i), (k, i, j)):
                    total = _add(total, apply_bilinear(c, phis[a], c.slice12(b, d)))
                _record(failures, "hom-jacobi", (i, j, k), total)
    return ValidationReport(failures)


def reference_hom_pre_lie(cand):
    n, alpha, c = cand.dim, cand.twist, cand.product
    failures = []
    if not alpha.is_invertible():
        failures.append(Failure("twist-invertible", (), ()))
    alphas = [alpha.column(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            _record(failures, "twist-product-morphism", (i, j),
                    _sub(alpha.apply(c.slice12(i, j)), apply_bilinear(c, alphas[i], alphas[j])))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                lhs = _sub(apply_bilinear(c, c.slice12(i, j), alphas[k]),
                           apply_bilinear(c, alphas[i], c.slice12(j, k)))
                rhs = _sub(apply_bilinear(c, c.slice12(j, i), alphas[k]),
                           apply_bilinear(c, alphas[j], c.slice12(i, k)))
                _record(failures, "twisted-associator-symmetry", (i, j, k), _sub(lhs, rhs))
    return ValidationReport(failures)


def reference_l_dendriform(cand):
    n, alpha, lt, rt = cand.dim, cand.twist, cand.left, cand.right
    failures = []
    if not alpha.is_invertible():
        failures.append(Failure("twist-invertible", (), ()))
    alphas = [alpha.column(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            _record(failures, "twist-left-morphism", (i, j),
                    _sub(alpha.apply(lt.slice12(i, j)), apply_bilinear(lt, alphas[i], alphas[j])))
            _record(failures, "twist-right-morphism", (i, j),
                    _sub(alpha.apply(rt.slice12(i, j)), apply_bilinear(rt, alphas[i], alphas[j])))

    def half(i, j, k):
        total = _add(apply_bilinear(lt, lt.slice12(i, j), alphas[k]),
                     apply_bilinear(lt, rt.slice12(i, j), alphas[k]))
        return _add(total, apply_bilinear(lt, alphas[j], lt.slice12(i, k)))

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                _record(failures, "left-axiom", (i, j, k), _sub(half(i, j, k), half(j, i, k)))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = apply_bilinear(rt, lt.slice12(i, j), alphas[k])
                total = _add(total, apply_bilinear(rt, alphas[j], lt.slice12(i, k)))
                total = _add(total, apply_bilinear(rt, alphas[j], rt.slice12(i, k)))
                total = _sub(total, apply_bilinear(rt, rt.slice12(j, i), alphas[k]))
                total = _sub(total, apply_bilinear(lt, alphas[i], rt.slice12(j, k)))
                _record(failures, "right-axiom", (i, j, k), total)
    return ValidationReport(failures)


def twisted_novikov(lam):
    """(alpha o product, alpha) for alpha = diag(lam^i), in the basis x' = P x."""
    lam = Fraction(lam)
    items = {(i - 1, j - 1, i + j - 1): j * lam ** (i + j)
             for i in range(1, DIM + 1) for j in range(1, DIM + 1) if i + j <= DIM}
    table = Tensor3.from_entries((DIM, DIM, DIM), items)
    alpha = LinearMap.diagonal([lam ** i for i in range(1, DIM + 1)])
    p_inv = P.inverse()
    moved = Tensor3.from_slices(DIM, DIM, DIM, lambda i, j: P.apply(
        apply_bilinear(table, p_inv.column(i), p_inv.column(j))))
    return HomPreLieAlgebra(moved, P @ alpha @ p_inv)


def _scaled(table, c, opposite=False):
    n = table.dims[0]
    return Tensor3.from_slices(n, n, n, lambda i, j: tuple(
        c * x for x in (table.slice12(j, i) if opposite else table.slice12(i, j))))


def _bump_table(table, i, j, k):
    n = table.dims[0]
    return table + Tensor3.from_entries((n, n, n), {(i, j, k): 1})


def _bump_twist(twist, i, j):
    rows = [list(row) for row in twist.entries]
    rows[i][j] += 1
    return LinearMap(rows)


def _structures(lam):
    a = twisted_novikov(lam)
    zero = Tensor3.zero(DIM, DIM, DIM)
    return {
        "pre-lie": (validate_hom_pre_lie, reference_hom_pre_lie, a),
        "lie": (validate_hom_lie, reference_hom_lie, HomLieAlgebra(a.commutator_tensor(), a.twist)),
        "dendriform": (validate_l_dendriform, reference_l_dendriform,
                       HomLDendriform(a.product, zero, a.twist)),
        "split": (validate_l_dendriform, reference_l_dendriform,
                  HomLDendriform(_scaled(a.product, HALF), _scaled(a.product, -HALF, True), a.twist)),
    }


def _bumps(cand):
    """One-entry bumps of each table and of the twist."""
    if isinstance(cand, HomPreLieAlgebra):
        yield HomPreLieAlgebra(_bump_table(cand.product, 1, 2, 3), cand.twist)
        yield HomPreLieAlgebra(cand.product, _bump_twist(cand.twist, 3, 0))
    elif isinstance(cand, HomLieAlgebra):
        yield HomLieAlgebra(_bump_table(cand.bracket, 0, 2, 1), cand.twist)
        yield HomLieAlgebra(cand.bracket, _bump_twist(cand.twist, 1, 1))
    else:
        yield HomLDendriform(_bump_table(cand.left, 2, 0, 3), cand.right, cand.twist)
        yield HomLDendriform(cand.left, _bump_table(cand.right, 3, 1, 0), cand.twist)
        yield HomLDendriform(cand.left, cand.right, _bump_twist(cand.twist, 0, 2))


LAMS = (HALF, -1)


@pytest.mark.parametrize("lam", LAMS)
def test_inputs_are_twisted_dense_and_as_described(lam):
    s = _structures(lam)
    a = s["pre-lie"][2]
    assert any(a.twist.entries[i][j] != 0 for i in range(DIM) for j in range(DIM) if i != j)
    assert len(a.product.nonzero_items()) >= 48
    assert any(isinstance(c, Fraction) for _, c in a.product.nonzero_items())
    for name in ("pre-lie", "lie", "dendriform"):
        assert s[name][0](s[name][2]).valid
    assert not validate_l_dendriform(s["split"][2]).valid


@pytest.mark.parametrize("lam", LAMS)
@pytest.mark.parametrize("name", ("pre-lie", "lie", "dendriform", "split"))
def test_validator_matches_the_apply_bilinear_formula(lam, name):
    validate, reference, cand = _structures(lam)[name]
    cases = [cand] + list(_bumps(cand))
    for case in cases:
        assert validate(case).to_dict() == reference(case).to_dict()
    assert all(not validate(case).valid for case in cases[1:])
