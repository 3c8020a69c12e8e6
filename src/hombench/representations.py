"""Representations of twisted algebras and the constructions between them.

A Lie-side representation is (V, beta, rho) with beta invertible,
rho(phi(x)) beta = beta rho(x), and rho([x,y]) beta = rho(phi(x)) rho(y) -
rho(phi(y)) rho(x). A pre-Lie-side representation is (V, beta, rho, mu)
where rho is a Lie-side representation of the commutator algebra and mu
satisfies the twisted right-action compatibilities. Actions are stored as
one matrix per algebra basis vector and extended linearly.

The action at a basis vector is its stored matrix. The action at a general
vector x is reached in one of two ways: act(maps, x, v) applies it to one
vector v without building a matrix, and _combination(maps, x, size) builds
its matrix. _combination serves where that matrix is composed with another
(_lie_action_failures, validate_pre_lie_rep, star_maps) and where a
multiplication operator is needed at a non-basis vector: the left and right
maps of a structure table (Tensor3.left_maps, Tensor3.right_maps) combined at
a twisted basis vector in shifted_rep, coboundary_maps and
bialgebras.check_P_condition.
"""

from .errors import DimensionMismatch, InvalidInput, SingularMap
from .foundation import (ZERO, LinearMap, map_direct_sum, sub_vectors,
                         tensor_product_map, Tensor3)
from .algebras import (HomLieAlgebra, HomPreLieAlgebra, ValidationReport,
                       validate_hom_lie, validate_hom_pre_lie, _record)


def act(maps, x, v):
    """The action at the vector x applied to the vector v: the sum of
    x_p maps[p] v over the nonzero coefficients x_p."""
    support = [(j, w) for j, w in enumerate(v) if w != 0]
    out = [ZERO] * len(v)
    for c, m in zip(x, maps):
        if c != 0:
            for k, row in enumerate(m.entries):
                for j, w in support:
                    if row[j] != 0:
                        out[k] += c * row[j] * w
    return tuple(out)


def _combination(maps, coeffs, size):
    """Linear combination of size x size action matrices, summed entry by entry
    into one table: the matrix of the action at a general vector."""
    for m in maps:
        if m.rows != size or m.cols != size:
            raise DimensionMismatch("combining a %dx%d map as %dx%d" % (m.rows, m.cols, size, size))
    table = [[ZERO] * size for _ in range(size)]
    for c, m in zip(coeffs, maps):
        if c != 0:
            for row, src in zip(table, m.entries):
                for j, x in enumerate(src):
                    if x != 0:
                        row[j] += c * x
    return LinearMap(table, rows=size, cols=size)


class HomLieRep:
    """An action of a twisted Lie algebra on a space with its own twist."""

    __slots__ = ("algebra", "space_dim", "twist", "maps")

    def __init__(self, algebra, space_dim, twist, maps):
        maps = tuple(maps)
        if len(maps) != algebra.dim:
            raise DimensionMismatch("%d action matrices for dimension %d" % (len(maps), algebra.dim))
        if twist.rows != space_dim or twist.cols != space_dim:
            raise DimensionMismatch("space twist is %dx%d for space dim %d" % (twist.rows, twist.cols, space_dim))
        for m in maps:
            if m.rows != space_dim or m.cols != space_dim:
                raise DimensionMismatch("action matrix is %dx%d on space dim %d" % (m.rows, m.cols, space_dim))
        self.algebra = algebra
        self.space_dim = space_dim
        self.twist = twist
        self.maps = maps

    def __eq__(self, other):
        if not isinstance(other, HomLieRep):
            return NotImplemented
        return (self.algebra, self.space_dim, self.twist, self.maps) == \
               (other.algebra, other.space_dim, other.twist, other.maps)

    def __repr__(self):
        return "HomLieRep(algebra_dim=%d, space_dim=%d)" % (self.algebra.dim, self.space_dim)


class HomPreLieRep:
    """A left/right action pair of a twisted pre-Lie algebra on a space with its own twist."""

    __slots__ = ("algebra", "space_dim", "twist", "left", "right")

    def __init__(self, algebra, space_dim, twist, left, right):
        left = tuple(left)
        right = tuple(right)
        if len(left) != algebra.dim or len(right) != algebra.dim:
            raise DimensionMismatch("%d/%d action matrices for dimension %d"
                                    % (len(left), len(right), algebra.dim))
        if twist.rows != space_dim or twist.cols != space_dim:
            raise DimensionMismatch("space twist is %dx%d for space dim %d" % (twist.rows, twist.cols, space_dim))
        for m in left + right:
            if m.rows != space_dim or m.cols != space_dim:
                raise DimensionMismatch("action matrix is %dx%d on space dim %d" % (m.rows, m.cols, space_dim))
        self.algebra = algebra
        self.space_dim = space_dim
        self.twist = twist
        self.left = left
        self.right = right

    def __eq__(self, other):
        if not isinstance(other, HomPreLieRep):
            return NotImplemented
        return (self.algebra, self.space_dim, self.twist, self.left, self.right) == \
               (other.algebra, other.space_dim, other.twist, other.left, other.right)

    def __repr__(self):
        return "HomPreLieRep(algebra_dim=%d, space_dim=%d)" % (self.algebra.dim, self.space_dim)


def _lie_action_failures(algebra, twist, maps, space_dim, failures, prefix=""):
    """Record the two Lie-side representation identities against the given bracket table."""
    n = algebra.dim
    at_phi = [_combination(maps, algebra.twist.column(i), space_dim) for i in range(n)]
    for i in range(n):
        lhs = at_phi[i] @ twist
        rhs = twist @ maps[i]
        diff = lhs - rhs
        for j in range(space_dim):
            _record(failures, prefix + "action-twist-compatibility", (i, j), diff.column(j))
    for i in range(n):
        for j in range(n):
            lhs = _combination(maps, algebra.basis_bracket(i, j), space_dim) @ twist
            rhs = at_phi[i] @ maps[j] - at_phi[j] @ maps[i]
            diff = lhs - rhs
            for k in range(space_dim):
                _record(failures, prefix + "action-bracket-compatibility", (i, j, k), diff.column(k))


def validate_lie_rep(rep):
    """Check the Lie-side representation identities; the space twist must be invertible."""
    if not rep.twist.is_invertible():
        raise SingularMap("representation space twist is singular")
    failures = []
    _lie_action_failures(rep.algebra, rep.twist, rep.maps, rep.space_dim, failures)
    return ValidationReport(failures)


def validate_pre_lie_rep(rep):
    """Check the pre-Lie-side identities: left action represents the commutator algebra,
    the right action intertwines the twists, and the mixed compatibility holds."""
    if not rep.twist.is_invertible():
        raise SingularMap("representation space twist is singular")
    a = rep.algebra
    n = a.dim
    m = rep.space_dim
    beta = rep.twist
    failures = []
    commutator = HomLieAlgebra(a.commutator_tensor(), a.twist)
    _lie_action_failures(commutator, beta, rep.left, m, failures, prefix="left-")
    alphas = [a.twist.column(i) for i in range(n)]
    mu_at_alpha = [_combination(rep.right, x, m) for x in alphas]
    rho_at_alpha = [_combination(rep.left, x, m) for x in alphas]
    for i in range(n):
        diff = beta @ rep.right[i] - mu_at_alpha[i] @ beta
        for j in range(m):
            _record(failures, "right-twist-compatibility", (i, j), diff.column(j))
    for i in range(n):
        for j in range(n):
            mu_at_product = _combination(rep.right, a.basis_product(i, j), m)
            lhs = mu_at_alpha[j] @ rep.right[i] - mu_at_product @ beta
            rhs = mu_at_alpha[j] @ rep.left[i] - rho_at_alpha[i] @ rep.right[j]
            diff = lhs - rhs
            for k in range(m):
                _record(failures, "left-right-compatibility", (i, j, k), diff.column(k))
    return ValidationReport(failures)


def adjoint_rep(g):
    """The bracket acting on the algebra itself, with the twist as space twist."""
    if not validate_hom_lie(g).valid:
        raise InvalidInput("adjoint_rep needs a valid twisted Lie algebra")
    return HomLieRep(g, g.dim, g.twist, g.bracket.left_maps())


def shifted_rep(a, s):
    """The regular action family L^s_x y = alpha^s(x) . y, R^s_x y = y . alpha^s(x)."""
    if not validate_hom_pre_lie(a).valid:
        raise InvalidInput("shifted_rep needs a valid twisted pre-Lie algebra")
    n = a.dim
    power = a.twist.power(s)
    left_maps = a.product.left_maps()
    right_maps = a.product.right_maps()
    left = [_combination(left_maps, power.column(i), n) for i in range(n)]
    right = [_combination(right_maps, power.column(i), n) for i in range(n)]
    return HomPreLieRep(a, n, a.twist, left, right)


def regular_rep(a):
    """The unshifted regular action (left and right multiplication)."""
    return shifted_rep(a, 0)


def tensor_rep(g, r1, r2):
    """The action on the tensor product of two representation spaces."""
    if r1.algebra != g or r2.algebra != g:
        raise InvalidInput("tensor_rep components must represent the given algebra")
    if not (validate_lie_rep(r1).valid and validate_lie_rep(r2).valid):
        raise InvalidInput("tensor_rep needs valid representations")
    twist = tensor_product_map(r1.twist, r2.twist)
    maps = [tensor_product_map(r1.maps[i], r2.twist) + tensor_product_map(r1.twist, r2.maps[i])
            for i in range(g.dim)]
    return HomLieRep(g, r1.space_dim * r2.space_dim, twist, maps)


def star_maps(maps, algebra_twist, space_twist):
    """The twisted dual action family: at basis vector i, minus the transpose of the
    action at twist(e_i), composed with the inverse-square dual of the space twist."""
    n = algebra_twist.rows
    inv_t = space_twist.inverse().transpose()
    sq = inv_t @ inv_t
    return tuple((-_combination(maps, algebra_twist.column(i), space_twist.rows).transpose()) @ sq
                 for i in range(n))


def dual_pre_lie_rep(a, r):
    """The representation on the dual space induced by a pre-Lie-side representation."""
    if r.algebra != a:
        raise InvalidInput("representation does not belong to the given algebra")
    star_left = star_maps(r.left, a.twist, r.twist)
    star_right = star_maps(r.right, a.twist, r.twist)
    twist = r.twist.inverse().transpose()
    left = [star_left[i] - star_right[i] for i in range(a.dim)]
    right = [-star_right[i] for i in range(a.dim)]
    return HomPreLieRep(a, r.space_dim, twist, left, right)


def coadjoint_pre_lie_rep(a):
    """The dual of the regular action: the coadjoint pre-Lie-side representation."""
    return dual_pre_lie_rep(a, regular_rep(a))


def coboundary_maps(a):
    """The per-basis coboundary action matrices on the tensor square, without
    validating the algebra; the twist must be invertible."""
    n = a.dim
    alpha = a.twist
    inv_sq = alpha.power(-2)
    left_maps = a.product.left_maps()
    right_maps = a.product.right_maps()
    maps = []
    for i in range(n):
        shifted = inv_sq.column(i)
        left = _combination(left_maps, shifted, n)
        ad = left - _combination(right_maps, shifted, n)
        maps.append(tensor_product_map(left, alpha) + tensor_product_map(alpha, ad))
    return maps


def coboundary_rep(a):
    """The Lie-side action of the commutator algebra on the twofold tensor square,
    twisting the acting element by the inverse-square of the algebra twist."""
    if not validate_hom_pre_lie(a).valid:
        raise InvalidInput("coboundary_rep needs a valid twisted pre-Lie algebra")
    lie = HomLieAlgebra(a.commutator_tensor(), a.twist)
    return HomLieRep(lie, a.dim * a.dim, tensor_product_map(a.twist, a.twist), coboundary_maps(a))


def check_one_cocycle(g, rep, delta):
    """Check delta([x,y]) = rho(phi(x)) delta(y) - rho(phi(y)) delta(x) on basis pairs."""
    if rep.algebra.dim != g.dim:
        raise DimensionMismatch("representation algebra dim %d, algebra dim %d" % (rep.algebra.dim, g.dim))
    if delta.cols != g.dim or delta.rows != rep.space_dim:
        raise DimensionMismatch("cocycle candidate is %dx%d for dims %d -> %d"
                                % (delta.rows, delta.cols, g.dim, rep.space_dim))
    n = g.dim
    phis = [g.twist.column(i) for i in range(n)]
    images = [delta.column(i) for i in range(n)]
    failures = []
    for i in range(n):
        for j in range(n):
            lhs = delta.apply(g.basis_bracket(i, j))
            rhs = sub_vectors(act(rep.maps, phis[i], images[j]), act(rep.maps, phis[j], images[i]))
            _record(failures, "cocycle", (i, j), sub_vectors(lhs, rhs))
    return ValidationReport(failures)


def semidirect_product_raw(a, rep):
    """Build the semidirect product table without validating the action pair."""
    n = a.dim
    m = rep.space_dim
    total = n + m
    items = {}
    for (i, j, k), c in a.product.nonzero_items():
        items[(i, j, k)] = c
    for i in range(n):
        for j in range(m):
            col = rep.left[i].column(j)
            for k, c in enumerate(col):
                if c != 0:
                    items[(i, n + j, n + k)] = c
            col = rep.right[i].column(j)
            for k, c in enumerate(col):
                if c != 0:
                    items[(n + j, i, n + k)] = c
    table = Tensor3.from_entries((total, total, total), items)
    return HomPreLieAlgebra(table, map_direct_sum(a.twist, rep.twist))


def semidirect_pre_lie(a, rep):
    """The semidirect product algebra (x+u).(y+v) = x.y + rho(x)v + mu(y)u."""
    if rep.algebra != a:
        raise InvalidInput("representation does not belong to the given algebra")
    if not validate_hom_pre_lie(a).valid:
        raise InvalidInput("semidirect_pre_lie needs a valid twisted pre-Lie algebra")
    if not validate_pre_lie_rep(rep).valid:
        raise InvalidInput("semidirect_pre_lie needs a valid representation")
    return semidirect_product_raw(a, rep)
