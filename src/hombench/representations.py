"""Representations of twisted algebras and the constructions between them.

A Lie-side representation is (V, beta, rho) with beta invertible,
rho(phi(x)) beta = beta rho(x), and rho([x,y]) beta = rho(phi(x)) rho(y) -
rho(phi(y)) rho(x). A pre-Lie-side representation is (V, beta, rho, mu)
where rho is a Lie-side representation of the commutator algebra and mu
satisfies the twisted right-action compatibilities. A family of n actions on
a space of dimension m is stored as one (n, m, m) action table, whose slice
(p, q) is column q of the action at basis vector p.

_action_family(family, n, m) is the one place a family enters: n m x m maps,
placed by Tensor3.from_left_maps, or a Tensor3 of dims (n, m, m). The
representation and matched-pair containers store only tables, and their map
tuples (maps, left, first_action and the like) are views derived on every
read. Validators, duals and direct sums read the stored tables. A
right-multiplication family is a table with its input slots swapped
(Tensor3.swapped), and the family at the images of the basis under a map M
is the table with its first slot moved through M (Tensor3.first_through).

The twisted dual of a left/right action pair (rho, mu) on V is the pair
(rho*, mu*) = (star(rho) - star(mu), -star(mu)) on the dual space, where
star_maps, one contraction of the table's int planes, is the twisted dual of
one family. _dual_actions is its one home: dual_pre_lie_rep (hence the
coadjoint representation), the coadjoint matched pair and the dual product
induced by a tensor all read it. The coboundary and cocycle side does not, so
the two sides of each equivalence keep separate code.

The validators test each identity instance as one packed int, as those of
algebras do: a matrix identity is checked one column at a time, each column a
sum of dot products of packed operators (foundation._packed_operators on the
action tables and the algebra's table) with table slices or map columns, and
only a nonzero column is unpacked into an exact residual.
"""

from operator import mul, sub

from .errors import DimensionMismatch, InvalidInput, SingularMap
from .foundation import (Tensor3, direct_sum_table, map_direct_sum, tensor_product_map, _integer_family,
                         _pack, _packed_family, _packed_operators, _slot_bits, _transposed, _unpack)
from .algebras import (HomLieAlgebra, HomPreLieAlgebra, ValidationReport,
                       validate_hom_lie, validate_hom_pre_lie, _record)


def _action_family(family, count, size):
    """The action family as its (count, size, size) action table, whose slice
    (p, q) is maps[p].column(q): a Tensor3 of those dims as it is, or count
    size x size maps placed by Tensor3.from_left_maps."""
    if isinstance(family, Tensor3):
        if family.dims != (count, size, size):
            raise DimensionMismatch("action table dims %r, expected %r" % (family.dims, (count, size, size)))
        return family
    maps = tuple(family)
    if len(maps) != count:
        raise DimensionMismatch("%d action matrices for %d basis vectors" % (len(maps), count))
    for m in maps:
        if m.rows != size or m.cols != size:
            raise DimensionMismatch("action matrix is %dx%d, expected %dx%d" % (m.rows, m.cols, size, size))
    return Tensor3.from_left_maps(maps, size, size)


def action_table(maps, size):
    """The family of size x size action matrices as one (len(maps), size, size)
    table whose slice (p, q) is maps[p].column(q)."""
    maps = tuple(maps)
    return _action_family(maps, len(maps), size)


def _maps_view(name):
    """A read-only view of the action table stored at name: its tuple of maps,
    Tensor3.left_maps(), derived on every read and cached nowhere."""
    return property(lambda self: getattr(self, name).left_maps())


class _Stored:
    """A container whose slots hold what it stores, its action tables among
    them; two are equal when they have one type and equal slots."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


class HomLieRep(_Stored):
    """An action of a twisted Lie algebra on a space with its own twist, stored as
    its action table; maps is a view of it."""

    __slots__ = ("algebra", "space_dim", "twist", "table")

    maps = _maps_view("table")

    def __init__(self, algebra, space_dim, twist, maps):
        if twist.rows != space_dim or twist.cols != space_dim:
            raise DimensionMismatch("space twist is %dx%d for space dim %d" % (twist.rows, twist.cols, space_dim))
        self.algebra = algebra
        self.space_dim = space_dim
        self.twist = twist
        self.table = _action_family(maps, algebra.dim, space_dim)

    def __repr__(self):
        return "HomLieRep(algebra_dim=%d, space_dim=%d)" % (self.algebra.dim, self.space_dim)


class HomPreLieRep(_Stored):
    """A left/right action pair of a twisted pre-Lie algebra on a space with its
    own twist, stored as two action tables; left and right are views of them."""

    __slots__ = ("algebra", "space_dim", "twist", "left_table", "right_table")

    left = _maps_view("left_table")
    right = _maps_view("right_table")

    def __init__(self, algebra, space_dim, twist, left, right):
        if twist.rows != space_dim or twist.cols != space_dim:
            raise DimensionMismatch("space twist is %dx%d for space dim %d" % (twist.rows, twist.cols, space_dim))
        self.algebra = algebra
        self.space_dim = space_dim
        self.twist = twist
        self.left_table = _action_family(left, algebra.dim, space_dim)
        self.right_table = _action_family(right, algebra.dim, space_dim)

    def __repr__(self):
        return "HomPreLieRep(algebra_dim=%d, space_dim=%d)" % (self.algebra.dim, self.space_dim)


def _lie_action_failures(bracket, phi, beta, table, failures, prefix=""):
    """Record the two Lie-side representation identities of the (n, m, m) action
    table on a space with twist beta, against the bracket table with twist phi."""
    n, m, _ = table.dims
    D, (brackets, phi_rows, acts, beta_rows), size = _packed_family([bracket, phi, table, beta])
    w = _slot_bits(3 * n * m, size, size, size)     # action-bracket: 3 n m products (action-twist: m + n m)
    betas = list(zip(*beta_rows))
    # rho(phi(e_i)) and x -> rho(x)beta(v_k)
    at_phi, on_beta = _packed_operators(acts, w, list(zip(*phi_rows)), betas)
    beta_op = [D * _pack(c, w) for c in betas]
    scale = D ** 3
    for i in range(n):
        for j in range(m):
            # rho(phi(e_i)) beta(v_j) - beta rho(e_i) v_j
            total = sum(map(mul, at_phi[i], betas[j])) - sum(map(mul, beta_op, acts[i][j]))
            if total:
                _record(failures, prefix + "action-twist-compatibility", (i, j), _unpack(total, w, m), scale)
    # twice_acted[i][j][k] = rho(phi(e_i)) rho(e_j) v_k, computed once for the two
    # instances (i, j, k) and (j, i, k) that use it
    twice_acted = [[[sum(map(mul, at_phi[i], acts[j][k])) for k in range(m)] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            bracket_ij, p, q = brackets[i][j], twice_acted[i][j], twice_acted[j][i]
            for k in range(m):
                # rho([e_i, e_j]) beta(v_k) - rho(phi(e_i)) rho(e_j) v_k + rho(phi(e_j)) rho(e_i) v_k
                total = sum(map(mul, on_beta[k], bracket_ij)) - p[k] + q[k]
                if total:
                    _record(failures, prefix + "action-bracket-compatibility", (i, j, k),
                            _unpack(total, w, m), scale)


def validate_lie_rep(rep):
    """Check the Lie-side representation identities; the space twist must be invertible."""
    if not rep.twist.is_invertible():
        raise SingularMap("representation space twist is singular")
    failures = []
    g = rep.algebra
    _lie_action_failures(g.bracket, g.twist, rep.twist, rep.table, failures)
    return ValidationReport(failures)


def validate_pre_lie_rep(rep):
    """Check the pre-Lie-side identities: left action represents the commutator algebra,
    the right action intertwines the twists, and the mixed compatibility holds."""
    if not rep.twist.is_invertible():
        raise SingularMap("representation space twist is singular")
    a = rep.algebra
    n = a.dim
    m = rep.space_dim
    failures = []
    _lie_action_failures(a.commutator_tensor(), a.twist, rep.twist, rep.left_table, failures, prefix="left-")
    D, (planes, alpha_rows, rho, mu, beta_rows), size = _packed_family(
        [a.product, a.twist, rep.left_table, rep.right_table, rep.twist])
    w = _slot_bits(4 * n * m, size, size, size)     # left-right: 4 n m products (right-twist: m + n m)
    alphas = list(zip(*alpha_rows))
    betas = list(zip(*beta_rows))
    mu_at_alpha, mu_on_beta = _packed_operators(mu, w, alphas, betas)   # mu(alpha(e_i)); x -> mu(x)beta(v_k)
    rho_at_alpha, _ = _packed_operators(rho, w, alphas, ())            # rho(alpha(e_i))
    beta_op = [D * _pack(c, w) for c in betas]
    scale = D ** 3
    for i in range(n):
        for j in range(m):
            # beta mu(e_i) v_j - mu(alpha(e_i)) beta(v_j)
            total = sum(map(mul, beta_op, mu[i][j])) - sum(map(mul, mu_at_alpha[i], betas[j]))
            if total:
                _record(failures, "right-twist-compatibility", (i, j), _unpack(total, w, m), scale)
    differences = [[list(map(sub, mu[i][k], rho[i][k])) for k in range(m)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            product, ma, ra = planes[i][j], mu_at_alpha[j], rho_at_alpha[i]
            for k in range(m):
                # mu(alpha(e_j)) (mu(e_i) - rho(e_i)) v_k - mu(e_i e_j) beta(v_k)
                #   + rho(alpha(e_i)) mu(e_j) v_k
                total = (sum(map(mul, ma, differences[i][k])) - sum(map(mul, mu_on_beta[k], product))
                         + sum(map(mul, ra, mu[j][k])))
                if total:
                    _record(failures, "left-right-compatibility", (i, j, k), _unpack(total, w, m), scale)
    return ValidationReport(failures)


def adjoint_rep(g):
    """The bracket acting on the algebra itself, with the twist as space twist."""
    if not validate_hom_lie(g).valid:
        raise InvalidInput("adjoint_rep needs a valid twisted Lie algebra")
    return HomLieRep(g, g.dim, g.twist, g.bracket)


def shifted_rep(a, s):
    """The regular action family L^s_x y = alpha^s(x) . y, R^s_x y = y . alpha^s(x)."""
    if not validate_hom_pre_lie(a).valid:
        raise InvalidInput("shifted_rep needs a valid twisted pre-Lie algebra")
    power = a.twist.power(s)
    return HomPreLieRep(a, a.dim, a.twist, a.product.first_through(power),
                        a.product.swapped().first_through(power))


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
    maps = [tensor_product_map(m1, r2.twist) + tensor_product_map(r1.twist, m2) for m1, m2 in zip(r1.maps, r2.maps)]
    return HomLieRep(g, r1.space_dim * r2.space_dim, twist, maps)


def star_maps(family, algebra_twist, space_twist):
    """The twisted dual of an action family, given as maps or as its action
    table, returned as an action table: at basis vector
    i, minus the transpose of the action at twist(e_i), composed with the
    inverse-square dual of the space twist. On int planes this is
    S[i][q][p] = -sum_{r,s} alpha[r][i] (beta^-2)[q][s] T[r][p][s]: the table's
    first slot moved through the algebra twist (Tensor3.first_through), then
    each plane contracted with the rows of beta^-2."""
    table = family if isinstance(family, Tensor3) else action_table(family, space_twist.rows)
    inv = space_twist.inverse()
    moved = _action_family(table, table.dims[0], space_twist.rows).first_through(algebra_twist)
    D, (planes, sq_rows) = _integer_family([moved, inv @ inv])
    return Tensor3.from_integers([[[-sum(map(mul, row, vec)) for vec in plane] for row in sq_rows]
                                  for plane in planes], D * D, moved.dims)


def _dual_actions(left, right, algebra_twist, space_twist):
    """The twisted dual (rho*, mu*) = (star(left) - star(right), -star(right)) of
    the action tables of a left/right pair: the action tables of its left and
    right actions on the dual space."""
    star_left = star_maps(left, algebra_twist, space_twist)
    star_right = star_maps(right, algebra_twist, space_twist)
    return star_left - star_right, -star_right


def dual_pre_lie_rep(a, r):
    """The representation on the dual space induced by a pre-Lie-side representation."""
    if r.algebra != a:
        raise InvalidInput("representation does not belong to the given algebra")
    return HomPreLieRep(a, r.space_dim, r.twist.inverse().transpose(),
                        *_dual_actions(r.left_table, r.right_table, a.twist, r.twist))


def coadjoint_pre_lie_rep(a):
    """The dual of the regular action: the coadjoint pre-Lie-side representation."""
    return dual_pre_lie_rep(a, regular_rep(a))


def coboundary_maps(a):
    """The per-basis coboundary action matrices on the tensor square, without
    validating the algebra; the twist must be invertible."""
    alpha = a.twist
    inv_sq = alpha.power(-2)
    # left multiplication and the commutator at alpha^-2(e_i)
    lefts = a.product.first_through(inv_sq).left_maps()
    ads = a.commutator_tensor().first_through(inv_sq).left_maps()
    return [tensor_product_map(left, alpha) + tensor_product_map(alpha, ad) for left, ad in zip(lefts, ads)]


def coboundary_rep(a):
    """The Lie-side action of the commutator algebra on the twofold tensor square,
    twisting the acting element by the inverse-square of the algebra twist."""
    if not validate_hom_pre_lie(a).valid:
        raise InvalidInput("coboundary_rep needs a valid twisted pre-Lie algebra")
    lie = HomLieAlgebra(a.commutator_tensor(), a.twist)
    return HomLieRep(lie, a.dim * a.dim, tensor_product_map(a.twist, a.twist), coboundary_maps(a))


def check_one_cocycle(rep, delta):
    """Check delta([x,y]) = rho(phi(x)) delta(y) - rho(phi(y)) delta(x) on basis
    pairs of the represented algebra."""
    g = rep.algebra
    if delta.cols != g.dim or delta.rows != rep.space_dim:
        raise DimensionMismatch("cocycle candidate is %dx%d for dims %d -> %d"
                                % (delta.rows, delta.cols, g.dim, rep.space_dim))
    n = g.dim
    m = rep.space_dim
    D, (brackets, phi_rows, acts, delta_ints), size = _packed_family(
        [g.bracket, g.twist, rep.table, delta])
    w = _slot_bits(n + 2 * n * m, size, size, size)     # cocycle: n + 2 n m products
    at_phi, _ = _packed_operators(acts, w, list(zip(*phi_rows)), ())     # rho(phi(e_i))
    images = _transposed(delta_ints, n)
    delta_op = [D * _pack(c, w) for c in images]
    acted = [[sum(map(mul, at_phi[i], images[j])) for j in range(n)] for i in range(n)]
    scale = D ** 3
    failures = []
    for i in range(n):
        for j in range(n):
            # delta([e_i, e_j]) - rho(phi(e_i)) delta(e_j) + rho(phi(e_j)) delta(e_i)
            total = sum(map(mul, delta_op, brackets[i][j])) - acted[i][j] + acted[j][i]
            if total:
                _record(failures, "cocycle", (i, j), _unpack(total, w, m), scale)
    return ValidationReport(failures)


def semidirect_product_raw(a, rep):
    """Build the semidirect product table without validating the action pair."""
    n = a.dim
    table = direct_sum_table(n + rep.space_dim, [(0, a.product)],
                             [(rep.left_table, 0, n, False, False), (rep.right_table, 0, n, True, False)])
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
