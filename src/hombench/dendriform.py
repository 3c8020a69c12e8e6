"""Relative operators and twisted L-dendriform algebras.

A relative operator T maps a representation space into the algebra so that
T-images multiply through the action of twisted preimages. Such operators
split products into dendriform pairs; invertible ones characterize compatible
dendriform structures, and nondegenerate cocycle-symmetric forms produce them.
The semidirect construction turns an intertwining map into a symmetric tensor
on algebra-plus-dual-space whose solution property mirrors the operator one.
"""

from collections import namedtuple
from operator import add

from .errors import (AsymmetricInput, DimensionMismatch, IntertwinerViolation, InvalidInput,
                     SingularMap)
from .foundation import (LinearMap, Tensor2, Tensor3, apply_bilinear, basis_vector, row_reduce,
                         sub_vectors)
from .algebras import (Failure, HomPreLieAlgebra, ValidationReport, agreement_report,
                       combine_reports, validate_hessian, validate_hom_pre_lie, _record)
from .representations import (HomPreLieRep, act, coadjoint_pre_lie_rep,
                              dual_pre_lie_rep, semidirect_product_raw, star_maps,
                              validate_pre_lie_rep)
from .bialgebras import is_hom_s_matrix, r_sharp, solves_s_equation


class HomLDendriform:
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

    def left_of(self, x, y):
        return apply_bilinear(self.left, x, y)

    def right_of(self, x, y):
        return apply_bilinear(self.right, x, y)

    def basis_left(self, i, j):
        return self.left.slice12(i, j)

    def basis_right(self, i, j):
        return self.right.slice12(i, j)

    def __eq__(self, other):
        if not isinstance(other, HomLDendriform):
            return NotImplemented
        return (self.left, self.right, self.twist) == (other.left, other.right, other.twist)

    def __hash__(self):
        return hash((self.left, self.right, self.twist))

    def __repr__(self):
        return "HomLDendriform(dim=%d)" % self.dim


def validate_l_dendriform(cand):
    """Check twist invertibility, multiplicativity for both products, and the two
    splitting axioms.

    Every product with a twisted basis vector alpha(e_i) is read from its left
    or right multiplication operator for |> or <|, built once per call."""
    n = cand.dim
    alpha = cand.twist
    failures = []
    if not alpha.is_invertible():
        failures.append(Failure("twist-invertible", (), ()))
    alphas = [alpha.column(i) for i in range(n)]
    left_l = [cand.left.left_at(a) for a in alphas]        # alpha(e_i) |> -
    left_r = [cand.left.right_at(a) for a in alphas]       # - |> alpha(e_k)
    right_l = [cand.right.left_at(a) for a in alphas]      # alpha(e_i) <| -
    right_r = [cand.right.right_at(a) for a in alphas]     # - <| alpha(e_k)
    for i in range(n):
        for j in range(n):
            _record(failures, "twist-left-morphism", (i, j),
                    sub_vectors(alpha.apply(cand.basis_left(i, j)), left_l[i].apply(alphas[j])))
            _record(failures, "twist-right-morphism", (i, j),
                    sub_vectors(alpha.apply(cand.basis_right(i, j)), right_l[i].apply(alphas[j])))

    # Products are linear in each slot, so terms that share an operator are
    # applied once to the sum x |> y + x <| y or to the difference x |> y - y <| x.
    both = [[tuple(map(add, cand.basis_left(i, j), cand.basis_right(i, j))) for j in range(n)]
            for i in range(n)]

    def half(i, j, k):
        # (x|>y)|>a(z) + (x<|y)|>a(z) + a(y)|>(x|>z) for x=e_i, y=e_j, z=e_k
        return tuple(map(add, left_r[k].apply(both[i][j]), left_l[j].apply(cand.basis_left(i, k))))

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                _record(failures, "left-axiom", (i, j, k), sub_vectors(half(i, j, k), half(j, i, k)))
    for i in range(n):
        for j in range(n):
            # (x|>y)<|a(z) - (y<|x)<|a(z)
            difference = sub_vectors(cand.basis_left(i, j), cand.basis_right(j, i))
            for k in range(n):
                total = tuple(map(add, right_r[k].apply(difference), right_l[j].apply(both[i][k])))
                total = sub_vectors(total, left_l[i].apply(cand.basis_right(j, k)))
                _record(failures, "right-axiom", (i, j, k), total)
    return ValidationReport(failures)


def horizontal(d):
    """The sum product x |> y + x <| y, a twisted pre-Lie algebra."""
    if not validate_l_dendriform(d).valid:
        raise InvalidInput("horizontal needs a valid dendriform structure")
    return HomPreLieAlgebra(d.left + d.right, d.twist)


def _vertical_table(d):
    n = d.dim
    return Tensor3.from_slices(n, n, n, lambda i, j: sub_vectors(d.basis_left(i, j), d.basis_right(j, i)))


def vertical(d):
    """The difference product x |> y - y <| x, a twisted pre-Lie algebra."""
    if not validate_l_dendriform(d).valid:
        raise InvalidInput("vertical needs a valid dendriform structure")
    return HomPreLieAlgebra(_vertical_table(d), d.twist)


def transpose_dendriform(d):
    """Keep the left product, replace x <| y by -(y <| x); an involution."""
    if not validate_l_dendriform(d).valid:
        raise InvalidInput("transpose_dendriform needs a valid dendriform structure")
    n = d.dim
    return HomLDendriform(d.left, -Tensor3.from_slices(n, n, n, lambda i, j: d.basis_right(j, i)), d.twist)


def dendriform_rep_check(d):
    """Both canonical action pairs must represent their associated algebras: the
    regular pair on the horizontal algebra and the mixed pair on the vertical one."""
    if not validate_l_dendriform(d).valid:
        raise InvalidInput("dendriform_rep_check needs a valid dendriform structure")
    n = d.dim
    tri = d.left.left_maps()
    angle_right = d.right.right_maps()
    angle_left = d.right.left_maps()
    horiz = HomPreLieAlgebra(d.left + d.right, d.twist)
    vert = HomPreLieAlgebra(_vertical_table(d), d.twist)
    named = [
        ("horizontal", validate_hom_pre_lie(horiz)),
        ("horizontal-action", validate_pre_lie_rep(HomPreLieRep(horiz, n, d.twist, tri, angle_right))),
        ("vertical", validate_hom_pre_lie(vert)),
        ("vertical-action", validate_pre_lie_rep(
            HomPreLieRep(vert, n, d.twist, tri, [-m for m in angle_left]))),
    ]
    return combine_reports(named)


class OOperator:
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

    def __eq__(self, other):
        if not isinstance(other, OOperator):
            return NotImplemented
        return (self.rep, self.matrix) == (other.rep, other.matrix)

    def __repr__(self):
        return "OOperator(%dx%d)" % (self.matrix.rows, self.matrix.cols)


def validate_o_operator(o):
    """Check the twist intertwining and the product-through-action identity."""
    rep = o.rep
    a = rep.algebra
    t = o.matrix
    if not rep.twist.is_invertible():
        raise SingularMap("representation space twist is singular")
    beta_inv = rep.twist.inverse()
    failures = []
    diff = t @ rep.twist - a.twist @ t
    for j in range(rep.space_dim):
        _record(failures, "twist-intertwine", (j,), diff.column(j))
    m = rep.space_dim
    v = [basis_vector(m, i) for i in range(m)]
    shifted = [t.apply(beta_inv.apply(b)) for b in v]
    for i in range(m):
        for j in range(m):
            lhs = a.product_of(t.column(i), t.column(j))
            inner = act(rep.left, shifted[i], v[j])
            inner = tuple(p + q for p, q in zip(inner, act(rep.right, shifted[j], v[i])))
            _record(failures, "operator-product", (i, j), sub_vectors(lhs, t.apply(inner)))
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
    if not validate_o_operator(o).valid:
        raise InvalidInput("dendriform_from_o_operator needs a valid relative operator")
    rep = o.rep
    m = rep.space_dim
    t = o.matrix
    beta_inv = rep.twist.inverse()
    shifted = [t.apply(beta_inv.column(i)) for i in range(m)]
    e = [basis_vector(m, j) for j in range(m)]
    on_space = HomLDendriform(
        Tensor3.from_slices(m, m, m, lambda i, j: act(rep.left, shifted[i], e[j])),
        -Tensor3.from_slices(m, m, m, lambda i, j: act(rep.right, shifted[i], e[j])),
        rep.twist)

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
    rep = o.rep
    n = a.dim
    alpha_inv = a.twist.inverse()
    t = o.matrix
    back = [alpha_inv.column(i) for i in range(n)]
    pre = [t_inv.column(j) for j in range(n)]
    return HomLDendriform(
        Tensor3.from_slices(n, n, n, lambda i, j: t.apply(act(rep.left, back[i], pre[j]))),
        -Tensor3.from_slices(n, n, n, lambda i, j: t.apply(act(rep.right, back[i], pre[j]))),
        a.twist)


def dendriform_from_hessian(a, b):
    """Solve the two displayed pairings against the form to split the product of
    an algebra carrying a nondegenerate cocycle-symmetric form."""
    if not validate_hessian(a, b).valid:
        raise InvalidInput("dendriform_from_hessian needs a valid hessian form")
    n = a.dim
    sharp_inv = b.sharp().inverse()
    alpha_inv = a.twist.inverse()
    alpha_inv_sq = a.twist.power(-2)
    e = [basis_vector(n, i) for i in range(n)]
    back1 = [alpha_inv.apply(v) for v in e]
    back2 = [alpha_inv_sq.apply(v) for v in e]
    return HomLDendriform(
        Tensor3.from_slices(n, n, n, lambda i, j: sharp_inv.apply(
            tuple(-b.apply(e[j], a.commutator_of(back1[i], back2[k])) for k in range(n)))),
        Tensor3.from_slices(n, n, n, lambda i, j: sharp_inv.apply(
            tuple(-b.apply(e[j], a.product_of(back2[k], back1[i])) for k in range(n)))),
        a.twist)


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
        star_left = star_maps(rep.left, a.twist, rep.twist)
        ambient_rep = HomPreLieRep(a, rep.space_dim, ambient_rep.twist,
                                   ambient_rep.left, [-mm for mm in star_left])
    big = semidirect_product_raw(a, ambient_rep)
    n = a.dim
    m = rep.space_dim
    items = {}
    for i in range(n):
        for j in range(m):
            c = t.entries[i][j]
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
    n = d.dim
    vert = HomPreLieAlgebra(_vertical_table(d), d.twist)
    rep = HomPreLieRep(vert, n, d.twist, d.left.left_maps(), [-m for m in d.right.left_maps()])
    built = semidirect_smatrix(vert, rep, LinearMap.identity(n))
    return CanonicalSolution(algebra=built.algebra, tensor=built.tensor)
