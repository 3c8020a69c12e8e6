"""Representations of twisted algebras and the constructions between them.

A Lie-side representation is (V, beta, rho) with beta invertible,
rho(phi(x)) beta = beta rho(x), and rho([x,y]) beta = rho(phi(x)) rho(y) -
rho(phi(y)) rho(x). A pre-Lie-side representation is (V, beta, rho, mu)
where rho is a Lie-side representation of the commutator algebra and mu
satisfies the twisted right-action compatibilities. Actions are stored as
one matrix per algebra basis vector and extended linearly.

The action at a basis vector is its stored matrix. _action_family(maps, n, m)
is the one shape check of a family: n matrices, each m x m; the representation
and matched-pair containers and action_table call it. A family of n actions on
a space of dimension m holds the same data as an (n, m, m) structure table, and
action_table(maps, m) is the one converter: slice (p, q) is maps[p].column(q),
so Tensor3.left_maps() gives the family back. Every action at a general vector
is then read through the table primitives of foundation: table.left_at(x) is
the matrix of the action at x, table.right_at(v) sends x to the action at x
applied to v, and apply_bilinear(table, x, v) is one such value. The
multiplication operators of an algebra at a general vector come straight from
its own table (Tensor3.left_at, Tensor3.right_at).

The twisted dual of a left/right action pair (rho, mu) on V is the pair
(rho*, mu*) = (star(rho) - star(mu), -star(mu)) on the dual space, where
star_maps is the twisted dual of one family. _dual_actions is its one home:
dual_pre_lie_rep (hence the coadjoint representation), the coadjoint matched
pair and the dual product induced by a tensor all read it. The coboundary and
cocycle side does not, so the two sides of each equivalence keep separate code.

The validators sum each identity instance in ints, as those of algebras do: a
matrix identity is checked one column at a time, each column a sum of operators
applied to table slices or map columns, and only a nonzero column becomes an
exact residual.
"""

from operator import mul, sub

from .errors import DimensionMismatch, InvalidInput, SingularMap
from .foundation import (Tensor3, direct_sum_table, map_direct_sum, tensor_product_map,
                         _integer_family)
from .algebras import (HomLieAlgebra, HomPreLieAlgebra, ValidationReport,
                       validate_hom_lie, validate_hom_pre_lie, _record)


def _action_family(maps, count, size):
    """The maps as a tuple, after checking that they are count size x size matrices."""
    maps = tuple(maps)
    if len(maps) != count:
        raise DimensionMismatch("%d action matrices for %d basis vectors" % (len(maps), count))
    for m in maps:
        if m.rows != size or m.cols != size:
            raise DimensionMismatch("action matrix is %dx%d, expected %dx%d" % (m.rows, m.cols, size, size))
    return maps


def action_table(maps, size):
    """The family of size x size action matrices as one (len(maps), size, size)
    table whose slice (p, q) is maps[p].column(q)."""
    maps = _action_family(maps, len(maps), size)
    return Tensor3.from_slices(len(maps), size, size, lambda p, q: maps[p].column(q))


class HomLieRep:
    """An action of a twisted Lie algebra on a space with its own twist."""

    __slots__ = ("algebra", "space_dim", "twist", "maps")

    def __init__(self, algebra, space_dim, twist, maps):
        if twist.rows != space_dim or twist.cols != space_dim:
            raise DimensionMismatch("space twist is %dx%d for space dim %d" % (twist.rows, twist.cols, space_dim))
        self.algebra = algebra
        self.space_dim = space_dim
        self.twist = twist
        self.maps = _action_family(maps, algebra.dim, space_dim)

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
        if twist.rows != space_dim or twist.cols != space_dim:
            raise DimensionMismatch("space twist is %dx%d for space dim %d" % (twist.rows, twist.cols, space_dim))
        self.algebra = algebra
        self.space_dim = space_dim
        self.twist = twist
        self.left = _action_family(left, algebra.dim, space_dim)
        self.right = _action_family(right, algebra.dim, space_dim)

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
    m = space_dim
    table = action_table(maps, m)
    at_phi = [table.left_at(algebra.twist.column(i)) for i in range(n)]     # rho(phi(e_i))
    on_beta = [table.right_at(twist.column(k)) for k in range(m)]          # x -> rho(x)beta(v_k)
    D, (beta_rows, *ops) = _integer_family([twist] + at_phi + on_beta)
    at_phi, on_beta = ops[:n], ops[n:]
    d, (brackets, acts, beta_ints) = _integer_family([algebra.bracket, table, twist])
    betas = list(zip(*beta_ints))
    scale = D * d
    for i in range(n):
        for j in range(m):
            # rho(phi(e_i)) beta(v_j) - beta rho(e_i) v_j
            moved, acted = betas[j], acts[i][j]
            _record(failures, prefix + "action-twist-compatibility", (i, j),
                    [sum(map(mul, pr, moved)) - sum(map(mul, br, acted))
                     for pr, br in zip(at_phi[i], beta_rows)], scale)
    # twice_acted[i][j][k] = rho(phi(e_i)) rho(e_j) v_k, computed once for the two
    # instances (i, j, k) and (j, i, k) that use it
    twice_acted = [[[[sum(map(mul, row, acts[j][k])) for row in at_phi[i]] for k in range(m)]
                    for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            bracket = brackets[i][j]
            for k in range(m):
                # rho([e_i, e_j]) beta(v_k) - rho(phi(e_i)) rho(e_j) v_k + rho(phi(e_j)) rho(e_i) v_k
                _record(failures, prefix + "action-bracket-compatibility", (i, j, k),
                        [sum(map(mul, bk, bracket)) - p + q
                         for bk, p, q in zip(on_beta[k], twice_acted[i][j][k], twice_acted[j][i][k])], scale)


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
    left = action_table(rep.left, m)
    right = action_table(rep.right, m)
    mu_at_alpha = [right.left_at(x) for x in alphas]                       # mu(alpha(e_i))
    rho_at_alpha = [left.left_at(x) for x in alphas]                       # rho(alpha(e_i))
    mu_on_beta = [right.right_at(beta.column(k)) for k in range(m)]        # x -> mu(x)beta(v_k)
    D, (beta_rows, *ops) = _integer_family([beta] + mu_at_alpha + rho_at_alpha + mu_on_beta)
    mu_at_alpha, rho_at_alpha, mu_on_beta = ops[:n], ops[n:2 * n], ops[2 * n:]
    d, (planes, rho, mu, beta_ints) = _integer_family([a.product, left, right, beta])
    betas = list(zip(*beta_ints))
    scale = D * d
    for i in range(n):
        for j in range(m):
            # beta mu(e_i) v_j - mu(alpha(e_i)) beta(v_j)
            acted, moved = mu[i][j], betas[j]
            _record(failures, "right-twist-compatibility", (i, j),
                    [sum(map(mul, br, acted)) - sum(map(mul, mr, moved))
                     for br, mr in zip(beta_rows, mu_at_alpha[i])], scale)
    differences = [[list(map(sub, mu[i][k], rho[i][k])) for k in range(m)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            product = planes[i][j]
            for k in range(m):
                # mu(alpha(e_j)) (mu(e_i) - rho(e_i)) v_k - mu(e_i e_j) beta(v_k)
                #   + rho(alpha(e_i)) mu(e_j) v_k
                difference, acted = differences[i][k], mu[j][k]
                _record(failures, "left-right-compatibility", (i, j, k),
                        [sum(map(mul, ma, difference)) - sum(map(mul, mb, product)) + sum(map(mul, ra, acted))
                         for ma, mb, ra in zip(mu_at_alpha[j], mu_on_beta[k], rho_at_alpha[i])], scale)
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
    left = [a.product.left_at(power.column(i)) for i in range(n)]
    right = [a.product.right_at(power.column(i)) for i in range(n)]
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
    table = action_table(maps, space_twist.rows)
    inv_t = space_twist.inverse().transpose()
    sq = inv_t @ inv_t
    return tuple((-table.left_at(algebra_twist.column(i)).transpose()) @ sq
                 for i in range(algebra_twist.rows))


def _dual_actions(left, right, algebra_twist, space_twist):
    """The twisted dual (rho*, mu*) = (star(left) - star(right), -star(right)) of
    a left/right action pair: its left and right actions on the dual space."""
    star_left = star_maps(left, algebra_twist, space_twist)
    star_right = star_maps(right, algebra_twist, space_twist)
    return (tuple(sl - sr for sl, sr in zip(star_left, star_right)),
            tuple(-sr for sr in star_right))


def dual_pre_lie_rep(a, r):
    """The representation on the dual space induced by a pre-Lie-side representation."""
    if r.algebra != a:
        raise InvalidInput("representation does not belong to the given algebra")
    return HomPreLieRep(a, r.space_dim, r.twist.inverse().transpose(),
                        *_dual_actions(r.left, r.right, a.twist, r.twist))


def coadjoint_pre_lie_rep(a):
    """The dual of the regular action: the coadjoint pre-Lie-side representation."""
    return dual_pre_lie_rep(a, regular_rep(a))


def coboundary_maps(a):
    """The per-basis coboundary action matrices on the tensor square, without
    validating the algebra; the twist must be invertible."""
    n = a.dim
    alpha = a.twist
    inv_sq = alpha.power(-2)
    maps = []
    for i in range(n):
        shifted = inv_sq.column(i)
        left = a.product.left_at(shifted)
        ad = left - a.product.right_at(shifted)
        maps.append(tensor_product_map(left, alpha) + tensor_product_map(alpha, ad))
    return maps


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
    table = action_table(rep.maps, rep.space_dim)
    D, (delta_rows, *at_phi) = _integer_family([delta] + [table.left_at(g.twist.column(i)) for i in range(n)])
    d, (brackets, delta_ints) = _integer_family([g.bracket, delta])
    images = list(zip(*delta_ints))
    scale = D * d
    acted = [[[sum(map(mul, row, images[j])) for row in at_phi[i]] for j in range(n)] for i in range(n)]
    failures = []
    for i in range(n):
        for j in range(n):
            # delta([e_i, e_j]) - rho(phi(e_i)) delta(e_j) + rho(phi(e_j)) delta(e_i)
            bracket = brackets[i][j]
            _record(failures, "cocycle", (i, j),
                    [sum(map(mul, dr, bracket)) - p + q
                     for dr, p, q in zip(delta_rows, acted[i][j], acted[j][i])], scale)
    return ValidationReport(failures)


def semidirect_product_raw(a, rep):
    """Build the semidirect product table without validating the action pair."""
    n = a.dim
    table = direct_sum_table(n + rep.space_dim, [(0, a.product)],
                             [(rep.left, 0, n, False, False), (rep.right, 0, n, True, False)])
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
