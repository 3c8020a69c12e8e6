"""Coboundary structures: solution tensors, induced dual products, and bialgebras.

A bialgebra candidate is a product on A together with a product on the dual
space whose twist is the inverse dual twist; validity asks that each product's
dualization is a one-cocycle for the other side's coboundary action. A
solution tensor (symmetric, twist-intertwining, vanishing twisted bracket
square) induces such a dual product and always yields a valid bialgebra.

The twisted bracket square of r is the sum over pairs of entries r_pq r_st of
alpha(e_p) (x) alpha(e_s) (x) e_q e_t - alpha(e_p) (x) [e_s, e_q] (x) alpha(e_t)
- e_p e_s (x) alpha(e_t) (x) alpha(e_q). Summing the twists into the tensor
first gives its closed form: with R[p][q] = r_pq, A = alpha R and
B = alpha R^T, and A_i, B_k their rows, entry (i, j, k) is
(A_i A_j)_k - [B_k, A_i]_j - (B_k B_j)_i.
"""

from itertools import chain
from operator import mul

from .errors import (DimensionMismatch, InvalidInput, NotAnSMatrix, Pro1Violation,
                     TwistMismatch)
from .foundation import (LinearMap, Tensor3, _integer_family, _pack, _packed_family, _packed_operators,
                         _quotients, _slot_bits, _transposed, _unpack)
from .algebras import (HomPreLieAlgebra, ValidationReport, agreement_report, combine_reports,
                       validate_hom_pre_lie, _Stored, _record)
from .representations import check_one_cocycle, coboundary_maps, coboundary_rep, _dual_actions
from .matched import (coadjoint_matched_pair, require_dual_twists, standard_manin_triple,
                      validate_manin_triple, validate_matched_pair_pre_lie)


def r_sharp(r):
    """View an element of A (x) A as a map from covectors to vectors: the
    transpose of its matrix, a plain LinearMap."""
    if r.dim_left != r.dim_right:
        raise DimensionMismatch("tensor is %dx%d" % (r.dim_left, r.dim_right))
    return r.transpose()


def _tensor_on(a, r):
    """Check that the tensor lies in A (x) A for the algebra a."""
    if r.dim_left != a.dim or r.dim_right != a.dim:
        raise DimensionMismatch("tensor is %dx%d on dimension %d" % (r.dim_left, r.dim_right, a.dim))


def check_pro1(a, r):
    """Does the tensor intertwine the inverse dual twist with the twist?"""
    _tensor_on(a, r)
    sharp = r_sharp(r)
    inv_dual = a.twist.inverse().transpose()
    return sharp @ inv_dual == a.twist @ sharp


def _vec(r):
    """Flatten a square 2-tensor lexicographically (left factor major)."""
    return tuple(c for row in r.entries for c in row)


def coboundary_cocycle(a, r):
    """The candidate cocycle x -> (coboundary action of x) applied to the tensor,
    one flattened tensor-square column per basis vector."""
    _tensor_on(a, r)
    maps = coboundary_maps(a)
    flat = _vec(r)
    return LinearMap.from_columns([m.apply(flat) for m in maps], rows=a.dim * a.dim)


def dual_product_from_r(a, r):
    """The induced product on the dual space; requires the intertwining condition."""
    if not check_pro1(a, r):
        raise Pro1Violation("tensor does not intertwine the twists")
    rho, mu = _dual_actions(a.product, a.product.swapped(), a.twist, a.twist)
    # slice (i, j) is rho*(r# e_i) e_j + mu*(r#^T e_j) e_i, and r#^T is r itself
    product = rho.first_through(r_sharp(r)) + mu.first_through(r).swapped()
    return HomPreLieAlgebra(product, a.twist.inverse().transpose())


def hom_s_bracket(a, r):
    """The twisted square bracket of the tensor with itself, in the closed form
    of the module docstring; vanishing is the third solution condition. The
    products are read from the left multiplication operators at A_i and B_k
    (foundation._packed_operators): A_i A_j, B_k B_j and the commutator
    A_i B_k - B_k A_i are each one packed int, unpacked into its n entries."""
    _tensor_on(a, r)
    n = a.dim
    D, (planes, ints_a, ints_b) = _integer_family([a.product, a.twist @ r, a.twist @ r.transpose()])
    table_max = max((abs(x) for plane in planes for v in plane for x in v), default=0)
    rows_max = max((abs(x) for v in (*ints_a, *ints_b) for x in v), default=0)
    w = _slot_bits(2 * n * n, rows_max, rows_max, table_max)      # the commutator: 2 n^2 products
    at, _ = _packed_operators(planes, w, [*ints_a, *ints_b], ())      # A_i . - at i, B_k . - at n + k
    # aa[i][j] = A_i A_j, ab[i][k] = A_i B_k - B_k A_i, bb[k][j] = B_k B_j, times D^3
    aa = [[_unpack(sum(map(mul, at[i], v)), w, n) for v in ints_a] for i in range(n)]
    ab = [[_unpack(sum(map(mul, at[i], v)) - sum(map(mul, at[n + k], ints_a[i])), w, n)
           for k, v in enumerate(ints_b)] for i in range(n)]
    bb = [[_unpack(sum(map(mul, at[n + k], v)), w, n) for v in ints_b] for k in range(n)]
    return Tensor3.from_slices(n, n, n, lambda i, j: _quotients(
        [aa[i][j][k] + ab[i][k][j] - bb[k][j][i] for k in range(n)], D ** 3))


def check_pro3(a, r):
    """Compare the induced dual product against the coboundary formula: for all
    dual basis pairs, the product of sharp images minus the sharp image of the
    product must equal the twisted bracket square contracted with inverse-square
    twisted covectors. Each instance is summed in ints from operators built once
    per call.

    On valid algebras the identity held for every intertwining tensor tried
    (one-entry bumps of solutions, dense random tensors, several twists), so the
    verdict adds nothing to check_pro1 there: the check fails only on products
    that are not twisted pre-Lie."""
    if not check_pro1(a, r):
        raise Pro1Violation("tensor does not intertwine the twists")
    n = a.dim
    dual = dual_product_from_r(a, r)
    square = hom_s_bracket(a, r)
    moved = r_sharp(r) @ a.twist.transpose()          # column i: sharp(alpha* e_i)
    inv_sq = a.twist.power(-2)                         # row i: (alpha^-2)* e_i
    D, (planes, moved_rows, dual_planes, square_planes, inv_sq_rows), size = _packed_family(
        [a.product, moved, dual.product, square, inv_sq])
    w = _slot_bits(2 * n * n + n, size, size, size)     # s-identity: 2 n^2 + n products
    moved_cols = _transposed(moved_rows, n)
    at_moved, _ = _packed_operators(planes, w, moved_cols, ())
    at_square, _ = _packed_operators(square_planes, w, inv_sq_rows, ())
    moved_op = [D * _pack(c, w) for c in moved_cols]
    scale = D ** 3
    failures = []
    for i in range(n):
        for j in range(n):
            total = (sum(map(mul, at_moved[i], moved_cols[j])) - sum(map(mul, moved_op, dual_planes[i][j]))
                     - sum(map(mul, at_square[i], inv_sq_rows[j])))
            if total:
                _record(failures, "s-identity", (i, j), _unpack(total, w, n), scale)
    return ValidationReport(failures)


def check_P_condition(a, r):
    """The twisted left-multiplication square condition on the skew part S of the
    tensor, each instance summed in ints.

    P(x) is L (x) alpha + alpha (x) L for L the left multiplication by
    alpha^-2(x), acting on S flattened in tensor_product_map's lexicographic
    order. There (A (x) B) vec(S) = vec(A S B^T), so P(x) vec(S) is
    vec(L S alpha^T + alpha S L^T), made of n x n products. As S is skew, the
    second term is minus the transpose of the first, and the result is skew
    again. Instance (i, j) is P(e_i e_j) vec(S) - P(alpha(e_i)) P(e_j) vec(S),
    and P(alpha(e_i)) takes its L at alpha^-1(e_i)."""
    _tensor_on(a, r)
    n = a.dim
    alpha = a.twist
    alpha_t = alpha.transpose()
    skew = r - r.flip()

    def p_on(lm, s):
        m = lm @ s @ alpha_t
        return m - m.transpose()

    on_skew = [p_on(lm, skew) for lm in a.product.first_through(alpha.power(-2)).left_maps()]     # P(e_j) vec(S)
    twice = [p_on(lm, q) for lm in a.product.first_through(alpha.inverse()).left_maps() for q in on_skew]
    D, (planes, *forms) = _integer_family([a.product] + on_skew + twice)
    flat = [[x for row in form for x in row] for form in forms]
    table_max, skew_max, twice_max = (max((abs(x) for v in vectors for x in v), default=0)
                                      for vectors in (chain.from_iterable(planes), flat[:n], flat[n:]))
    # p-condition: n products of a table int and a P(e_m) vec(S) int, and D times a twice-applied int
    w = _slot_bits(n + 1, max(table_max * skew_max, D * twice_max))
    flat = [_pack(v, w) for v in flat]
    on_skew = flat[:n]                    # P(e_m) vec(S), packed
    failures = []
    for i in range(n):
        for j in range(n):
            total = sum(map(mul, planes[i][j], on_skew)) - D * flat[n + i * n + j]
            if total:
                _record(failures, "p-condition", (i, j), _unpack(total, w, n * n), D * D)
    return ValidationReport(failures)


def solves_s_equation(a, r):
    """Twist-intertwining with a vanishing twisted bracket square. The algebra is
    taken as valid and the tensor as square of its dimension; neither is checked."""
    return check_pro1(a, r) and hom_s_bracket(a, r).is_zero()


def is_hom_s_matrix(a, r):
    """Symmetric, twist-intertwining, and vanishing twisted bracket square."""
    if not validate_hom_pre_lie(a).valid:
        raise InvalidInput("is_hom_s_matrix needs a valid twisted pre-Lie algebra")
    _tensor_on(a, r)
    return r.is_symmetric() and solves_s_equation(a, r)


def dualize_product(p):
    """The structure table read as a map into the tensor square of the dual:
    column k lists the pairings of basis products against the k-th dual vector."""
    n = p.dim
    rows = [p.product.slice12(i, j) for i in range(n) for j in range(n)]
    return LinearMap(rows, rows=n * n, cols=n)


class Bialgebra(_Stored):
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

    def __repr__(self):
        return "Bialgebra(dim=%d)" % self.primal.dim


def validate_bialgebra(b):
    """Both products must be valid and each dualized product must be a one-cocycle
    for the other side's coboundary action."""
    named = [("primal", validate_hom_pre_lie(b.primal)), ("dual", validate_hom_pre_lie(b.dual))]
    if named[0][1].valid and named[1][1].valid:
        named.append(("product-cocycle", check_one_cocycle(coboundary_rep(b.primal), b.phi_star)))
        named.append(("coproduct-cocycle", check_one_cocycle(coboundary_rep(b.dual), b.psi_star)))
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
