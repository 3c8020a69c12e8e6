"""Relative operators and twisted L-dendriform algebras.

A relative operator T maps a representation space into the algebra so that
T-images multiply through the action of twisted preimages. Such operators
split products into dendriform pairs; invertible ones characterize compatible
dendriform structures, and nondegenerate cocycle-symmetric forms produce them.
The semidirect construction turns an intertwining map into a symmetric tensor
on algebra-plus-dual-space whose solution property mirrors the operator one.
"""

from collections import namedtuple
from operator import add, mul, sub

from .errors import (AsymmetricInput, DimensionMismatch, IntertwinerViolation, InvalidInput,
                     SingularMap)
from .foundation import (LinearMap, Tensor2, Tensor3, apply_bilinear, row_reduce,
                         _operators_on_demand, _pack, _packed_family, _packed_operators,
                         _slot_bits, _transposed, _unpack)
from .algebras import (HomPreLieAlgebra, ValidationReport, agreement_report, combine_reports,
                       validate_hessian, validate_hom_pre_lie, _Stored, _core_report, _record)
from .representations import (HomPreLieRep, action_table, coadjoint_pre_lie_rep,
                              dual_pre_lie_rep, semidirect_product_raw, star_maps,
                              validate_pre_lie_rep)
from .bialgebras import is_hom_s_matrix, r_sharp, solves_s_equation


class HomLDendriform(_Stored):
    """Two product tables (wedge-left and wedge-right) sharing one twist."""

    __slots__ = ("dim", "left", "right", "twist")

    def __init__(self, left, right, twist):
        for name, table in (("left", left), ("right", right)):
            d1, d2, d3 = table.dims
            if not (d1 == d2 == d3):
                raise DimensionMismatch("%s tensor dims %r are not cubical" % (name, table.dims))
        if left.dims != right.dims:
            raise DimensionMismatch("left dims %r, right dims %r" % (left.dims, right.dims))
        n = left.dims[0]
        if not (twist.rows == twist.cols == n):
            raise DimensionMismatch("twist is %dx%d for dimension %d" % (twist.rows, twist.cols, n))
        self.dim = n
        self.left = left
        self.right = right
        self.twist = twist

    def right_of(self, x, y):
        return apply_bilinear(self.right, x, y)

    def __repr__(self):
        return "HomLDendriform(dim=%d)" % self.dim


def _l_dendriform_failures(lt, rt, alpha_cols, D, w):
    """Yield (identity, witness, total) for each failing splitting-axiom and
    multiplicativity instance of the products |> and <| with int planes lt / D
    and rt / D under the twist with int columns alpha_cols / D, as
    algebras._hom_pre_lie_failures does: each instance one int, times D^3,
    packed at width w, the left- and right-axiom instances before
    multiplicativity. Every term is a twist int times two ints that are each a
    table int, a twist int or D: at most 6 n^2 of them (the left axiom's
    commutator of x |> y + x <| y counts four times). Both tables are packed
    once, each operator is built the first time an instance reads it, and the
    twist is packed only when the multiplicativity instances run. Twist
    invertibility is not checked."""
    n = len(lt)
    # left_l[i]: alpha(e_i) |> -, left_r[k]: - |> alpha(e_k), and right_l, right_r likewise for <|
    left_l, left_r = _operators_on_demand(lt, w, alpha_cols)
    right_l, right_r = _operators_on_demand(rt, w, alpha_cols)
    # Products are linear in each slot, so terms that share an operator are
    # applied once to the sum x |> y + x <| y or to the difference x |> y - y <| x.
    both = [[list(map(add, lt[i][j], rt[i][j])) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            # half(x, y, z) = (x|>y)|>a(z) + (x<|y)|>a(z) + a(y)|>(x|>z), for x=e_i, y=e_j, z=e_k;
            # the axiom is half(x, y, z) - half(y, x, z)
            swapped = list(map(sub, both[i][j], both[j][i]))
            at_i, at_j = left_l[i], left_l[j]
            for k in range(n):
                total = (sum(map(mul, left_r[k], swapped)) + sum(map(mul, at_j, lt[i][k]))
                         - sum(map(mul, at_i, lt[j][k])))
                if total:
                    yield "left-axiom", (i, j, k), total
    for i in range(n):
        at_i = left_l[i]
        for j in range(n):
            # (x|>y)<|a(z) - (y<|x)<|a(z) + a(y)<|(x|>z + x<|z) - a(x)|>(y<|z)
            difference = list(map(sub, lt[i][j], rt[j][i]))
            at_j = right_l[j]
            for k in range(n):
                total = (sum(map(mul, right_r[k], difference)) + sum(map(mul, at_j, both[i][k]))
                         - sum(map(mul, at_i, rt[j][k])))
                if total:
                    yield "right-axiom", (i, j, k), total
    twist = [D * _pack(a, w) for a in alpha_cols]
    for i in range(n):
        at_l, at_r = left_l[i], right_l[i]
        for j in range(n):
            total = sum(map(mul, twist, lt[i][j])) - sum(map(mul, at_l, alpha_cols[j]))
            if total:
                yield "twist-left-morphism", (i, j), total
            total = sum(map(mul, twist, rt[i][j])) - sum(map(mul, at_r, alpha_cols[j]))
            if total:
                yield "twist-right-morphism", (i, j), total


def validate_l_dendriform(cand):
    """Check twist invertibility, multiplicativity for both products, and the two
    splitting axioms.

    The identity instances are summed by _l_dendriform_failures, the core that
    search runs on its candidates."""
    return _core_report([cand.left, cand.right], cand.twist, _l_dendriform_failures)


def horizontal(d):
    """The sum product x |> y + x <| y, a twisted pre-Lie algebra."""
    if not validate_l_dendriform(d).valid:
        raise InvalidInput("horizontal needs a valid dendriform structure")
    return HomPreLieAlgebra(d.left + d.right, d.twist)


def _vertical_table(d):
    return d.left - d.right.swapped()


def vertical(d):
    """The difference product x |> y - y <| x, a twisted pre-Lie algebra."""
    if not validate_l_dendriform(d).valid:
        raise InvalidInput("vertical needs a valid dendriform structure")
    return HomPreLieAlgebra(_vertical_table(d), d.twist)


def _mixed_rep(d):
    """The mixed action pair on the vertical algebra, without validation: x |> -
    as the left action and -(x <| -) as the right action."""
    vert = HomPreLieAlgebra(_vertical_table(d), d.twist)
    return HomPreLieRep(vert, d.dim, d.twist, d.left, -d.right)


def transpose_dendriform(d):
    """Keep the left product, replace x <| y by -(y <| x); an involution."""
    if not validate_l_dendriform(d).valid:
        raise InvalidInput("transpose_dendriform needs a valid dendriform structure")
    return HomLDendriform(d.left, -d.right.swapped(), d.twist)


def dendriform_rep_check(d):
    """Both canonical action pairs must represent their associated algebras: the
    regular pair on the horizontal algebra and the mixed pair on the vertical one."""
    if not validate_l_dendriform(d).valid:
        raise InvalidInput("dendriform_rep_check needs a valid dendriform structure")
    horiz = HomPreLieAlgebra(d.left + d.right, d.twist)
    mixed = _mixed_rep(d)
    named = [
        ("horizontal", validate_hom_pre_lie(horiz)),
        ("horizontal-action", validate_pre_lie_rep(
            HomPreLieRep(horiz, d.dim, d.twist, d.left, d.right.swapped()))),
        ("vertical", validate_hom_pre_lie(mixed.algebra)),
        ("vertical-action", validate_pre_lie_rep(mixed)),
    ]
    return combine_reports(named)


class OOperator(_Stored):
    """A candidate relative operator: a map from a representation space to the algebra."""

    __slots__ = ("rep", "matrix")

    def __init__(self, rep, matrix):
        if matrix.rows != rep.algebra.dim or matrix.cols != rep.space_dim:
            raise DimensionMismatch("operator is %dx%d for dims %d <- %d"
                                    % (matrix.rows, matrix.cols, rep.algebra.dim, rep.space_dim))
        self.rep = rep
        self.matrix = matrix

    @property
    def algebra(self):
        return self.rep.algebra

    def __repr__(self):
        return "OOperator(%dx%d)" % (self.matrix.rows, self.matrix.cols)


def _operator_actions(o):
    """(shifted, left, right): the map T beta^-1, whose column i is the twisted
    preimage T beta^-1(v_i) of a space basis vector, and the stored action
    tables of rho and mu. Raises SingularMap when the space twist beta is
    singular."""
    rep = o.rep
    if not rep.twist.is_invertible():
        raise SingularMap("representation space twist is singular")
    return o.matrix @ rep.twist.inverse(), rep.left_table, rep.right_table


def validate_o_operator(o):
    """Check the twist intertwining and the product-through-action identity.

    The actions are taken as given: whether they form a representation of the
    algebra is not checked (validate_pre_lie_rep does that)."""
    return _o_operator_report(o, *_operator_actions(o))


def _o_operator_report(o, shifted, left, right):
    """validate_o_operator's report, read from _operator_actions(o). Every
    operator is packed from int planes: T rho(x) and T mu(x) at the twisted
    preimages x from the action tables packed through T, and T(v_i) . - from
    the product table. An operator into the zero algebra satisfies both."""
    rep = o.rep
    a = rep.algebra
    n = a.dim
    m = rep.space_dim
    if not n:
        return ValidationReport()
    D, (planes, alpha_rows, t_ints, beta_rows, rho, mu, shifted_ints), size = _packed_family(
        [a.product, a.twist, o.matrix, rep.twist, left, right, shifted])
    w = _slot_bits(n * n + 2 * n * m, size, size, size)     # operator-product: n^2 + 2 n m products
    columns = _transposed(t_ints, m)
    xs = _transposed(shifted_ints, m)
    t_op = [_pack(c, w) for c in columns]
    images, _ = _packed_operators(planes, w, columns, ())     # T(v_i) . -
    t_rho, _ = _packed_operators(rho, w, xs, (), t_op)         # [i][j]: T rho(T beta^-1 v_i) v_j
    t_mu, _ = _packed_operators(mu, w, xs, (), t_op)
    alpha_op = [_pack(c, w) for c in zip(*alpha_rows)]
    betas = list(zip(*beta_rows))
    failures = []
    for j in range(m):
        # T beta(v_j) - alpha T(v_j): m + n products
        total = sum(map(mul, t_op, betas[j])) - sum(map(mul, alpha_op, columns[j]))
        if total:
            _record(failures, "twist-intertwine", (j,), _unpack(total, w, n), D * D)
    scale = D ** 3
    for i in range(m):
        for j in range(m):
            # T(v_i) . T(v_j) - T(rho(T beta^-1 v_i) v_j + mu(T beta^-1 v_j) v_i)
            total = sum(map(mul, images[i], columns[j])) - t_rho[i][j] - t_mu[j][i]
            if total:
                _record(failures, "operator-product", (i, j), _unpack(total, w, n), scale)
    return ValidationReport(failures)


def check_smatrix_ooperator_equiv(a, r):
    """A symmetric tensor is a solution exactly when its sharp map composed with
    the inverse dual twist is a relative operator for the coadjoint actions."""
    if not r.is_symmetric():
        raise AsymmetricInput("equivalence only applies to symmetric tensors")
    s_verdict = is_hom_s_matrix(a, r)
    operator = OOperator(coadjoint_pre_lie_rep(a), r_sharp(r) @ a.twist.inverse().transpose())
    o_report = validate_o_operator(operator)
    return agreement_report({"s_matrix": s_verdict, "o_operator": o_report})


InducedDendriform = namedtuple("InducedDendriform", ["on_space", "on_image"])


def _solve_in_basis(basis_map, target):
    """Exact coordinates of target in the span of the basis columns."""
    cols = basis_map.cols
    work = [list(row) + [x] for row, x in zip(basis_map.entries, target)]
    pivots = row_reduce(work, cols)
    if any(row[cols] != 0 for row in work[len(pivots):]):
        raise InvalidInput("vector leaves the operator image")
    coords = [0] * cols
    for row, col in zip(work, pivots):
        coords[col] = row[cols]
    return tuple(coords)


def dendriform_from_o_operator(o):
    """Split the representation space and the operator image into dendriform
    structures: on the space via twisted-preimage actions, on the image by
    transporting products through the operator."""
    shifted, left, right = _operator_actions(o)
    if not _o_operator_report(o, shifted, left, right).valid:
        raise InvalidInput("dendriform_from_o_operator needs a valid relative operator")
    t = o.matrix
    # the actions at the twisted preimages: the first slot moved through T beta^-1
    on_space = HomLDendriform(left.first_through(shifted), -right.first_through(shifted), o.rep.twist)

    pivots = row_reduce([list(row) for row in t.entries], t.cols)
    image_basis = LinearMap.from_columns([t.column(j) for j in pivots], rows=t.rows)
    r = len(pivots)

    def transported(table):
        return Tensor3.from_slices(r, r, r, lambda s, u: _solve_in_basis(
            image_basis, t.apply(table.slice12(pivots[s], pivots[u]))))

    twist_cols = [_solve_in_basis(image_basis, o.algebra.twist.apply(image_basis.column(s)))
                  for s in range(r)]
    on_image = HomLDendriform(transported(on_space.left), transported(on_space.right),
                              LinearMap.from_columns(twist_cols, rows=r))
    return InducedDendriform(on_space=on_space, on_image=on_image)


def compatible_dendriform_from_invertible(o):
    """An invertible relative operator induces a dendriform splitting of the
    algebra's own product."""
    if o.matrix.rows != o.matrix.cols:
        raise DimensionMismatch("operator is %dx%d" % (o.matrix.rows, o.matrix.cols))
    t_inv = o.matrix.inverse()
    if not validate_o_operator(o).valid:
        raise InvalidInput("compatible_dendriform_from_invertible needs a valid relative operator")
    a = o.algebra
    t = o.matrix

    def conjugated(table):
        # T rho(alpha^-1(e_i)) T^-1 for each i, and likewise for mu
        return action_table([t @ op @ t_inv for op in table.first_through(a.twist.inverse()).left_maps()], a.dim)

    return HomLDendriform(conjugated(o.rep.left_table), -conjugated(o.rep.right_table), a.twist)


def dendriform_from_hessian(a, b):
    """Solve the two displayed pairings against the form to split the product of
    an algebra carrying a nondegenerate cocycle-symmetric form. With M the form's
    matrix and u_i = alpha^-1(e_i), slice (i, j) of each table is column j of
    -sharp^-1 (M C_i alpha^-2)^T, where C_i is y -> [u_i, y] for the left table
    and y -> y u_i for the right one."""
    if not validate_hessian(a, b).valid:
        raise InvalidInput("dendriform_from_hessian needs a valid hessian form")
    sharp = b.sharp()
    minus_inv = -sharp.inverse()
    matrix = sharp.transpose()
    inv_sq = a.twist.power(-2)

    def split(table):
        # C_i for each i: the first slot of the commutator or swapped product moved through alpha^-1
        ops = table.first_through(a.twist.inverse()).left_maps()
        return action_table([minus_inv @ (matrix @ op @ inv_sq).transpose() for op in ops], a.dim)

    return HomLDendriform(split(a.commutator_tensor()), split(a.product.swapped()), a.twist)


SemidirectSolution = namedtuple("SemidirectSolution", ["algebra", "tensor", "verdict"])


def semidirect_smatrix(a, rep, t, variant="dual"):
    """Extend an intertwining map to a symmetric tensor on algebra-plus-dual-space
    and report whether its solution property matches the relative-operator
    property of the map composed with the space twist.

    variant selects the right action used for the ambient semidirect product:
    "dual" takes the induced dual representation's right action, "statement"
    takes the negated twisted-dual of the left action.
    """
    if variant not in ("dual", "statement"):
        raise InvalidInput("unknown variant %r" % (variant,))
    if rep.algebra != a:
        raise InvalidInput("representation does not belong to the given algebra")
    if t.rows != a.dim or t.cols != rep.space_dim:
        raise DimensionMismatch("map is %dx%d for dims %d <- %d"
                                % (t.rows, t.cols, a.dim, rep.space_dim))
    if t @ rep.twist != a.twist @ t:
        raise IntertwinerViolation("map does not intertwine the twists")
    ambient_rep = dual_pre_lie_rep(a, rep)
    if variant == "statement":
        ambient_rep = HomPreLieRep(a, rep.space_dim, ambient_rep.twist, ambient_rep.left_table,
                                   -star_maps(rep.left_table, a.twist, rep.twist))
    big = semidirect_product_raw(a, ambient_rep)
    n = a.dim
    m = rep.space_dim
    items = {}
    for i, row in enumerate(t.entries):
        for j, c in enumerate(row):
            if c != 0:
                items[(i, n + j)] = c
                items[(n + j, i)] = c
    tensor = Tensor2.from_entries(n + m, n + m, items)

    ambient_report = validate_hom_pre_lie(big)
    s_verdict = ambient_report.valid and solves_s_equation(big, tensor)
    o_report = validate_o_operator(OOperator(rep, t @ rep.twist))
    verdict = agreement_report({"s_matrix": s_verdict, "o_operator": o_report},
                               {"ambient": ambient_report})
    return SemidirectSolution(algebra=big, tensor=tensor, verdict=verdict)


CanonicalSolution = namedtuple("CanonicalSolution", ["algebra", "tensor"])


def canonical_smatrix(d):
    """The tautological symmetric solution attached to a dendriform structure:
    identity operator, mixed action pair, vertical base algebra."""
    if not validate_l_dendriform(d).valid:
        raise InvalidInput("canonical_smatrix needs a valid dendriform structure")
    rep = _mixed_rep(d)
    built = semidirect_smatrix(rep.algebra, rep, LinearMap.identity(d.dim))
    return CanonicalSolution(algebra=built.algebra, tensor=built.tensor)
