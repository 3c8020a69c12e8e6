"""Coboundary structures: solution tensors, induced dual products, and bialgebras.

A bialgebra candidate is a product on A together with a product on the dual
space whose twist is the inverse dual twist; validity asks that each product's
dualization is a one-cocycle for the other side's coboundary action. A
solution tensor (symmetric, twist-intertwining, vanishing twisted bracket
square) induces such a dual product and always yields a valid bialgebra.
"""

from .errors import (DimensionMismatch, InvalidInput, NotAnSMatrix, Pro1Violation,
                     TwistMismatch)
from .foundation import (LinearMap, Tensor3, basis_vector, sub_vectors,
                         tensor2_to_map, tensor_product_map, zero_vector)
from .algebras import (HomPreLieAlgebra, ValidationReport, agreement_report, combine_reports,
                       sub_adjacent, validate_hom_pre_lie, _record)
from .representations import (_combination, act, check_one_cocycle, coboundary_maps,
                              coboundary_rep, star_maps)
from .matched import (coadjoint_matched_pair, require_dual_twists, standard_manin_triple,
                      validate_manin_triple, validate_matched_pair_pre_lie)


def r_sharp(r):
    """View an element of A (x) A as a map from covectors to vectors."""
    if r.dim_left != r.dim_right:
        raise DimensionMismatch("tensor is %dx%d" % (r.dim_left, r.dim_right))
    return tensor2_to_map(r)


def check_pro1(a, r):
    """Does the tensor intertwine the inverse dual twist with the twist?"""
    if r.dim_left != a.dim or r.dim_right != a.dim:
        raise DimensionMismatch("tensor is %dx%d on dimension %d" % (r.dim_left, r.dim_right, a.dim))
    sharp = r_sharp(r)
    inv_dual = a.twist.inverse().transpose()
    return sharp @ inv_dual == a.twist @ sharp


def _vec(r):
    """Flatten a square 2-tensor lexicographically (left factor major)."""
    return tuple(c for row in r.entries for c in row)


def coboundary_cocycle(a, r):
    """The candidate cocycle x -> (coboundary action of x) applied to the tensor,
    one flattened tensor-square column per basis vector."""
    if r.dim_left != a.dim or r.dim_right != a.dim:
        raise DimensionMismatch("tensor is %dx%d on dimension %d" % (r.dim_left, r.dim_right, a.dim))
    maps = coboundary_maps(a)
    flat = _vec(r)
    return LinearMap.from_columns([m.apply(flat) for m in maps], rows=a.dim * a.dim)


def dual_product_from_r(a, r):
    """The induced product on the dual space; requires the intertwining condition."""
    if not check_pro1(a, r):
        raise Pro1Violation("tensor does not intertwine the twists")
    n = a.dim
    left_maps = a.product.left_maps()
    right_maps = a.product.right_maps()
    ad_star = star_maps([lm - rm for lm, rm in zip(left_maps, right_maps)], a.twist, a.twist)
    right_star = star_maps(right_maps, a.twist, a.twist)
    sharp = r_sharp(r)
    flip_sharp = r_sharp(r.flip())

    def product(i, j):
        vec = zero_vector(n)
        for p, c in enumerate(sharp.column(i)):
            if c != 0:
                vec = tuple(v + c * w for v, w in zip(vec, ad_star[p].column(j)))
        for q, c in enumerate(flip_sharp.column(j)):
            if c != 0:
                vec = tuple(v - c * w for v, w in zip(vec, right_star[q].column(i)))
        return vec

    return HomPreLieAlgebra(Tensor3.from_slices(n, n, n, product), a.twist.inverse().transpose())


def hom_s_bracket(a, r):
    """The twisted square bracket of the tensor with itself, expanded over the
    nonzero tensor entries; vanishing is the third solution condition."""
    if r.dim_left != a.dim or r.dim_right != a.dim:
        raise DimensionMismatch("tensor is %dx%d on dimension %d" % (r.dim_left, r.dim_right, a.dim))
    n = a.dim
    e = [basis_vector(n, i) for i in range(n)]
    alphas = [a.twist.apply(v) for v in e]
    out = [[[0] * n for _ in range(n)] for _ in range(n)]

    def accumulate(coeff, u, v, w):
        for i, ui in enumerate(u):
            if ui == 0:
                continue
            for j, vj in enumerate(v):
                if vj == 0:
                    continue
                partial = coeff * ui * vj
                for k, wk in enumerate(w):
                    if wk != 0:
                        out[i][j][k] += partial * wk

    items = r.nonzero_items()
    firsts = {s for (s, _), _ in items}
    seconds = {q for (_, q), _ in items}
    commutators = {(s, q): a.commutator_of(e[s], e[q]) for s in firsts for q in seconds}
    for (p, q), c1 in items:
        for (s, t), c2 in items:
            coeff = c1 * c2
            accumulate(coeff, alphas[p], alphas[s], a.basis_product(q, t))
            accumulate(-coeff, alphas[p], commutators[(s, q)], alphas[t])
            accumulate(-coeff, a.basis_product(p, s), alphas[t], alphas[q])
    return Tensor3.from_slices(n, n, n, lambda i, j: out[i][j])


def check_pro3(a, r):
    """Compare the induced dual product against the coboundary formula: for all
    dual basis pairs, the product of sharp images minus the sharp image of the
    product must equal the twisted bracket square contracted with inverse-square
    twisted covectors."""
    if not check_pro1(a, r):
        raise Pro1Violation("tensor does not intertwine the twists")
    n = a.dim
    dual = dual_product_from_r(a, r)
    square = hom_s_bracket(a, r)
    sharp = r_sharp(r)
    alpha_dual = a.twist.transpose()
    inv_sq_dual = a.twist.power(-2).transpose()
    failures = []
    for i in range(n):
        for j in range(n):
            left_vec = sharp.apply(alpha_dual.column(i))
            right_vec = sharp.apply(alpha_dual.column(j))
            lhs = a.product_of(left_vec, right_vec)
            lhs = sub_vectors(lhs, sharp.apply(alpha_dual.apply(dual.basis_product(i, j))))
            xi = inv_sq_dual.column(i)
            eta = inv_sq_dual.column(j)
            rhs = zero_vector(n)
            for p, cp in enumerate(xi):
                if cp == 0:
                    continue
                for q, cq in enumerate(eta):
                    if cq == 0:
                        continue
                    coeff = cp * cq
                    rhs = tuple(v + coeff * w for v, w in zip(rhs, square.slice12(p, q)))
            _record(failures, "s-identity", (i, j), sub_vectors(lhs, rhs))
    return ValidationReport(failures)


def check_P_condition(a, r):
    """The twisted left-multiplication square condition on the skew part of the tensor."""
    if r.dim_left != a.dim or r.dim_right != a.dim:
        raise DimensionMismatch("tensor is %dx%d on dimension %d" % (r.dim_left, r.dim_right, a.dim))
    n = a.dim
    alpha = a.twist
    inv_sq = alpha.power(-2)
    left_maps = a.product.left_maps()
    p_maps = []
    for k in range(n):
        left = _combination(left_maps, inv_sq.column(k), n)
        p_maps.append(tensor_product_map(left, alpha) + tensor_product_map(alpha, left))

    skew_part = _vec(r - r.flip())
    p_skew = [p.apply(skew_part) for p in p_maps]
    failures = []
    for i in range(n):
        for j in range(n):
            _record(failures, "p-condition", (i, j),
                    sub_vectors(act(p_maps, a.basis_product(i, j), skew_part),
                                act(p_maps, alpha.column(i), p_skew[j])))
    return ValidationReport(failures)


def solves_s_equation(a, r):
    """Twist-intertwining with a vanishing twisted bracket square. The algebra is
    taken as valid and the tensor as square of its dimension; neither is checked."""
    return check_pro1(a, r) and hom_s_bracket(a, r).is_zero()


def is_hom_s_matrix(a, r):
    """Symmetric, twist-intertwining, and vanishing twisted bracket square."""
    if not validate_hom_pre_lie(a).valid:
        raise InvalidInput("is_hom_s_matrix needs a valid twisted pre-Lie algebra")
    if r.dim_left != a.dim or r.dim_right != a.dim:
        raise DimensionMismatch("tensor is %dx%d on dimension %d" % (r.dim_left, r.dim_right, a.dim))
    return r.is_symmetric() and solves_s_equation(a, r)


def dualize_product(p):
    """The structure table read as a map into the tensor square of the dual:
    column k lists the pairings of basis products against the k-th dual vector."""
    n = p.dim
    rows = [p.product.slice12(i, j) for i in range(n) for j in range(n)]
    return LinearMap(rows, rows=n * n, cols=n)


class Bialgebra:
    """A product on a space and a product on its dual, twists mutually inverse-dual.

    The two dualized products are derived in the constructor: phi_star dualizes
    the dual product (a map from the space to its tensor square) and psi_star
    dualizes the primal one.
    """

    __slots__ = ("primal", "dual", "phi_star", "psi_star")

    def __init__(self, primal, dual):
        if primal.dim != dual.dim:
            raise DimensionMismatch("dims %d and %d" % (primal.dim, dual.dim))
        if dual.twist != primal.twist.inverse().transpose():
            raise TwistMismatch("dual twist is not the inverse dual of the primal twist")
        self.primal = primal
        self.dual = dual
        self.phi_star = dualize_product(dual)
        self.psi_star = dualize_product(primal)

    def __eq__(self, other):
        if not isinstance(other, Bialgebra):
            return NotImplemented
        return (self.primal, self.dual) == (other.primal, other.dual)

    def __repr__(self):
        return "Bialgebra(dim=%d)" % self.primal.dim


def validate_bialgebra(b):
    """Both products must be valid and each dualized product must be a one-cocycle
    for the other side's coboundary action."""
    named = [("primal", validate_hom_pre_lie(b.primal)), ("dual", validate_hom_pre_lie(b.dual))]
    if named[0][1].valid and named[1][1].valid:
        named.append(("product-cocycle",
                      check_one_cocycle(sub_adjacent(b.primal), coboundary_rep(b.primal), b.phi_star)))
        named.append(("coproduct-cocycle",
                      check_one_cocycle(sub_adjacent(b.dual), coboundary_rep(b.dual), b.psi_star)))
    return combine_reports(named)


def check_equivalence_theorem(a, adual):
    """The bialgebra verdict, the canonical matched-pair verdict, and the standard
    Manin-triple verdict must coincide."""
    require_dual_twists(a, adual)
    bi = validate_bialgebra(Bialgebra(a, adual))
    mp = validate_matched_pair_pre_lie(coadjoint_matched_pair(a, adual))
    manin = validate_manin_triple(standard_manin_triple(a, adual))
    return agreement_report({"bialgebra": bi, "matched_pair": mp, "manin_triple": manin})


def triangular_bialgebra(a, r):
    """The bialgebra induced by a solution tensor."""
    if not is_hom_s_matrix(a, r):
        raise NotAnSMatrix("tensor is not a symmetric solution")
    return Bialgebra(a, dual_product_from_r(a, r))
