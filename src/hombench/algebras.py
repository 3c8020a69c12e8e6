"""Twisted algebras with structure-constant tables, their validators, and bilinear forms.

A Hom-Lie algebra is a bracket table plus a twist map phi satisfying
skew-symmetry, multiplicativity of phi, and the twisted Jacobi identity.
A Hom-pre-Lie algebra is a product table plus a twist alpha satisfying
multiplicativity and symmetry of the twisted associator in its first two
arguments. Validators return reports with exact residual witnesses; they
never raise on mathematically invalid candidates, only on shape errors.

Each validator sums every identity instance in ints: the operators it applies
come from foundation._integer_family at one common denominator D, and the
vectors they apply to (table slices and map columns) at another, d. An
instance is then a list of int dot products, sum(map(mul, row, v)), tested for
zero; only a failing one is divided by D * d into its exact residual (_record).
"""

from operator import add, mul, sub

from .errors import AsymmetricInput, DimensionMismatch, InvalidInput
from .foundation import (Tensor2, Tensor3, apply_bilinear, sub_vectors, tensor2_to_map,
                         _integer_family, _quotients)


class Failure:
    """One violated identity instance: which identity, at which basis tuple, with what residual."""

    __slots__ = ("identity", "witness", "residual")

    def __init__(self, identity, witness, residual):
        self.identity = identity
        self.witness = tuple(witness)
        self.residual = tuple(residual)

    def __eq__(self, other):
        if not isinstance(other, Failure):
            return NotImplemented
        return (self.identity, self.witness, self.residual) == (other.identity, other.witness, other.residual)

    def __repr__(self):
        return "Failure(%r, %r, %r)" % (self.identity, self.witness, self.residual)

    def to_dict(self):
        return {"identity": self.identity,
                "witness": list(self.witness),
                "residual": [str(c) for c in self.residual]}


class ValidationReport:
    """Outcome of a validation run; valid exactly when no failures were recorded.

    details optionally carries named sub-reports (or booleans) for composite
    checks such as equivalence theorems.
    """

    __slots__ = ("failures", "details")

    def __init__(self, failures=(), details=None):
        self.failures = tuple(failures)
        self.details = dict(details) if details else {}

    @property
    def valid(self):
        return not self.failures

    @property
    def failure_count(self):
        return len(self.failures)

    def prefixed(self, prefix):
        return ValidationReport(
            tuple(Failure(prefix + "." + f.identity, f.witness, f.residual) for f in self.failures),
            self.details)

    def to_dict(self):
        out = {"valid": self.valid, "failures": [f.to_dict() for f in self.failures]}
        if self.details:
            rendered = {}
            for name, value in self.details.items():
                rendered[name] = value.to_dict() if isinstance(value, ValidationReport) else value
            out["details"] = rendered
        return out

    def __repr__(self):
        return "ValidationReport(valid=%r, failures=%d)" % (self.valid, len(self.failures))


def agreement_report(verdicts, extra=None):
    """Valid when the named verdicts (booleans or reports) all agree. The details
    hold each verdict, an "agree" flag, and any extra entries."""
    values = [v.valid if isinstance(v, ValidationReport) else v for v in verdicts.values()]
    agree = all(v == values[0] for v in values)
    failures = [] if agree else [Failure("verdict-agreement", (), ())]
    details = dict(verdicts, agree=agree)
    if extra:
        details.update(extra)
    return ValidationReport(failures, details)


def combine_reports(named, details=None):
    """Merge sub-reports, prefixing each failure with its component name."""
    failures = []
    merged_details = dict(details) if details else {}
    for name, report in named:
        failures.extend(report.prefixed(name).failures)
        merged_details[name] = report
    return ValidationReport(tuple(failures), merged_details)


class HomLieAlgebra:
    """A candidate twisted Lie algebra: bracket structure tensor plus twist map."""

    __slots__ = ("dim", "bracket", "twist")

    def __init__(self, bracket, twist):
        d1, d2, d3 = bracket.dims
        if not (d1 == d2 == d3):
            raise DimensionMismatch("bracket tensor dims %r are not cubical" % (bracket.dims,))
        if not (twist.rows == twist.cols == d1):
            raise DimensionMismatch("twist is %dx%d for dimension %d" % (twist.rows, twist.cols, d1))
        self.dim = d1
        self.bracket = bracket
        self.twist = twist

    def operation(self):
        return self.bracket

    def basis_bracket(self, i, j):
        return self.bracket.slice12(i, j)

    def __eq__(self, other):
        if not isinstance(other, HomLieAlgebra):
            return NotImplemented
        return (self.bracket, self.twist) == (other.bracket, other.twist)

    def __hash__(self):
        return hash((self.bracket, self.twist))

    def __repr__(self):
        return "HomLieAlgebra(dim=%d)" % self.dim


class HomPreLieAlgebra:
    """A candidate twisted pre-Lie algebra: product structure tensor plus twist map."""

    __slots__ = ("dim", "product", "twist")

    def __init__(self, product, twist):
        d1, d2, d3 = product.dims
        if not (d1 == d2 == d3):
            raise DimensionMismatch("product tensor dims %r are not cubical" % (product.dims,))
        if not (twist.rows == twist.cols == d1):
            raise DimensionMismatch("twist is %dx%d for dimension %d" % (twist.rows, twist.cols, d1))
        self.dim = d1
        self.product = product
        self.twist = twist

    def operation(self):
        return self.product

    def product_of(self, x, y):
        return apply_bilinear(self.product, x, y)

    def basis_product(self, i, j):
        return self.product.slice12(i, j)

    def commutator_tensor(self):
        """Structure tensor of x . y - y . x, with no validity requirement."""
        n = self.dim
        p = self.product
        return Tensor3.from_slices(n, n, n, lambda i, j: sub_vectors(p.slice12(i, j), p.slice12(j, i)))

    def __eq__(self, other):
        if not isinstance(other, HomPreLieAlgebra):
            return NotImplemented
        return (self.product, self.twist) == (other.product, other.twist)

    def __hash__(self):
        return hash((self.product, self.twist))

    def __repr__(self):
        return "HomPreLieAlgebra(dim=%d)" % self.dim


class BilinearForm:
    """A square bilinear form tagged with its symmetry; the tag must match the matrix."""

    __slots__ = ("dim", "matrix", "symmetry")

    def __init__(self, matrix, symmetry):
        if not isinstance(matrix, Tensor2):
            matrix = Tensor2(matrix)
        if matrix.dim_left != matrix.dim_right:
            raise DimensionMismatch("form matrix is %dx%d" % (matrix.dim_left, matrix.dim_right))
        if symmetry == "symmetric":
            if not matrix.is_symmetric():
                raise AsymmetricInput("matrix is not symmetric")
        elif symmetry == "skew":
            if not matrix.is_skew():
                raise AsymmetricInput("matrix is not skew")
        else:
            raise InvalidInput("unknown symmetry tag %r" % (symmetry,))
        self.dim = matrix.dim_left
        self.matrix = matrix
        self.symmetry = symmetry

    def apply(self, x, y):
        return self.matrix.pair(x, y)

    def sharp(self):
        """The induced map x -> B(x, .) into coordinate covectors."""
        return tensor2_to_map(self.matrix)

    def is_nondegenerate(self):
        return self.sharp().is_invertible()

    def __eq__(self, other):
        if not isinstance(other, BilinearForm):
            return NotImplemented
        return (self.matrix, self.symmetry) == (other.matrix, other.symmetry)

    def __repr__(self):
        return "BilinearForm(dim=%d, %s)" % (self.dim, self.symmetry)


def _record(failures, identity, witness, totals, d=1):
    """Record a failure when the ints (or exact scalars) in totals are not all
    zero; its residual is totals / d, built only then."""
    if any(totals):
        failures.append(Failure(identity, witness, _quotients(totals, d)))


def validate_hom_lie(cand):
    """Check skew-symmetry, twist invertibility, multiplicativity, and the twisted Jacobi identity.

    Every bracket with a twisted basis vector phi(e_i) is read from its operator
    [phi(e_i), -], built once per call, and each Jacobi term
    [phi(e_a), [e_b, e_c]] is computed once and shared by its three rotations."""
    n = cand.dim
    phi = cand.twist
    failures = []
    d, (planes, twist_rows) = _integer_family([cand.bracket, phi])
    for i in range(n):
        for j in range(i, n):
            _record(failures, "skew-symmetry", (i, j), list(map(add, planes[i][j], planes[j][i])), d)
    if not phi.is_invertible():
        failures.append(Failure("twist-invertible", (), ()))
    phis = list(zip(*twist_rows))
    D, (phi_rows, *ad) = _integer_family([phi] + [cand.bracket.left_at(phi.column(i)) for i in range(n)])
    scale = D * d
    for i in range(n):
        for j in range(n):
            bracket, twisted = planes[i][j], phis[j]
            _record(failures, "twist-bracket-morphism", (i, j),
                    [sum(map(mul, pr, bracket)) - sum(map(mul, ar, twisted))
                     for pr, ar in zip(phi_rows, ad[i])], scale)
    terms = [[[[sum(map(mul, row, planes[b][c])) for row in ad[a]] for c in range(n)] for b in range(n)]
             for a in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                cyclic = zip(terms[i][j][k], terms[j][k][i], terms[k][i][j])
                _record(failures, "hom-jacobi", (i, j, k), [p + q + r for p, q, r in cyclic], scale)
    return ValidationReport(failures)


def validate_hom_pre_lie(cand):
    """Check twist invertibility, multiplicativity, and twisted-associator symmetry.

    Every product with a twisted basis vector alpha(e_i) is read from its left
    or right multiplication operator, built once per call."""
    n = cand.dim
    alpha = cand.twist
    failures = []
    if not alpha.is_invertible():
        failures.append(Failure("twist-invertible", (), ()))
    twisted = [alpha.column(i) for i in range(n)]
    D, (alpha_rows, *ops) = _integer_family([alpha] + [cand.product.left_at(a) for a in twisted]
                                            + [cand.product.right_at(a) for a in twisted])
    left, right = ops[:n], ops[n:]
    d, (planes, twist_rows) = _integer_family([cand.product, alpha])
    alphas = list(zip(*twist_rows))
    scale = D * d
    for i in range(n):
        for j in range(n):
            product, aj = planes[i][j], alphas[j]
            _record(failures, "twist-product-morphism", (i, j),
                    [sum(map(mul, ar, product)) - sum(map(mul, lr, aj))
                     for ar, lr in zip(alpha_rows, left[i])], scale)
    for i in range(n):
        for j in range(i + 1, n):
            # (xy)a(z) - a(x)(yz) - (yx)a(z) + a(y)(xz) = [x, y]a(z) - a(x)(yz) + a(y)(xz)
            commutator = list(map(sub, planes[i][j], planes[j][i]))
            for k in range(n):
                u, w = planes[j][k], planes[i][k]
                _record(failures, "twisted-associator-symmetry", (i, j, k),
                        [sum(map(mul, rk, commutator)) - sum(map(mul, li, u)) + sum(map(mul, lj, w))
                         for rk, li, lj in zip(right[k], left[i], left[j])], scale)
    return ValidationReport(failures)


def sub_adjacent(a):
    """The commutator Lie structure of a valid twisted pre-Lie algebra, same twist."""
    if not validate_hom_pre_lie(a).valid:
        raise InvalidInput("sub_adjacent needs a valid twisted pre-Lie algebra")
    return HomLieAlgebra(a.commutator_tensor(), a.twist)


def check_morphism(f, src, dst):
    """Check that f intertwines the twists and preserves the structure operation."""
    if type(src) is not type(dst):
        raise InvalidInput("morphism endpoints must share a structure kind")
    if f.cols != src.dim or f.rows != dst.dim:
        raise DimensionMismatch("map is %dx%d between dims %d -> %d" % (f.rows, f.cols, src.dim, dst.dim))
    failures = []
    src_table = src.operation()
    dst_table = dst.operation()
    D, (f_rows, twist_rows, *at_images) = _integer_family(
        [f, dst.twist] + [dst_table.left_at(f.column(i)) for i in range(src.dim)])     # f(e_i) * -
    d, (planes, src_twist, f_ints) = _integer_family([src_table, src.twist, f])
    src_cols = list(zip(*src_twist))
    f_cols = list(zip(*f_ints))
    scale = D * d
    for j in range(src.dim):
        moved, image = src_cols[j], f_cols[j]
        _record(failures, "twist-intertwine", (j,),
                [sum(map(mul, fr, moved)) - sum(map(mul, tr, image))
                 for fr, tr in zip(f_rows, twist_rows)], scale)
    for i in range(src.dim):
        for j in range(src.dim):
            product, image = planes[i][j], f_cols[j]
            _record(failures, "operation-preserved", (i, j),
                    [sum(map(mul, fr, product)) - sum(map(mul, lr, image))
                     for fr, lr in zip(f_rows, at_images[i])], scale)
    return ValidationReport(failures)


def _form_ints(form, twist):
    """(D, moved, plain, outer, inner): the form's data as ints at one common
    denominator D, with moved[i][j] = form(alpha(e_i), alpha(e_j)) and
    plain[i][j] = form(e_i, e_j) times D, and the covectors outer[k] and
    inner[j] with form(x, alpha(e_k)) = x . outer[k] / D and
    form(alpha(e_j), y) = inner[j] . y / D."""
    sharp = form.sharp()
    matrix = sharp.transpose()
    at_twist = matrix @ twist                  # column k: M alpha(e_k)
    D, (moved, plain, outer, inner) = _integer_family([twist.transpose() @ at_twist, matrix, at_twist,
                                                       sharp @ twist])
    return D, moved, plain, list(zip(*outer)), list(zip(*inner))


def validate_quadratic(a, w):
    """Check that a skew form is twist-invariant and pairs the product against the commutator.

    Each instance is two int dot products against covectors built once per call."""
    if w.symmetry != "skew":
        raise AsymmetricInput("quadratic structures use a skew form")
    if w.dim != a.dim:
        raise DimensionMismatch("form dim %d on algebra dim %d" % (w.dim, a.dim))
    n = a.dim
    failures = []
    if not w.is_nondegenerate():
        failures.append(Failure("nondegenerate", (), ()))
    D, moved, plain, outer, inner = _form_ints(w, a.twist)
    for i in range(n):
        for j in range(n):
            _record(failures, "twist-invariance", (i, j), (moved[i][j] - plain[i][j],), D)
    d, (planes,) = _integer_family([a.product])
    commutators = [[list(map(sub, planes[i][k], planes[k][i])) for k in range(n)] for i in range(n)]
    scale = D * d
    for i in range(n):
        for j in range(n):
            product, covector = planes[i][j], inner[j]
            for k in range(n):
                # w(e_i e_j, alpha(e_k)) + w(alpha(e_j), [e_i, e_k])
                total = sum(map(mul, product, outer[k])) + sum(map(mul, covector, commutators[i][k]))
                _record(failures, "product-invariance", (i, j, k), (total,), scale)
    return ValidationReport(failures)


def validate_hessian(a, b):
    """Check that a symmetric form is twist-invariant and satisfies the product cocycle symmetry.

    Each instance is three int dot products against covectors built once per call."""
    if b.symmetry != "symmetric":
        raise AsymmetricInput("hessian structures use a symmetric form")
    if b.dim != a.dim:
        raise DimensionMismatch("form dim %d on algebra dim %d" % (b.dim, a.dim))
    n = a.dim
    failures = []
    if not b.is_nondegenerate():
        failures.append(Failure("nondegenerate", (), ()))
    D, moved, plain, outer, inner = _form_ints(b, a.twist)
    for i in range(n):
        for j in range(i, n):
            _record(failures, "twist-invariance", (i, j), (moved[i][j] - plain[i][j],), D)
    d, (planes,) = _integer_family([a.product])
    scale = D * d
    for i in range(n):
        for j in range(i + 1, n):
            commutator = list(map(sub, planes[i][j], planes[j][i]))
            for k in range(n):
                # b([e_i, e_j], alpha(e_k)) - b(alpha(e_i), e_j e_k) + b(alpha(e_j), e_i e_k)
                total = (sum(map(mul, commutator, outer[k])) - sum(map(mul, inner[i], planes[j][k]))
                         + sum(map(mul, inner[j], planes[i][k])))
                _record(failures, "cocycle-symmetry", (i, j, k), (total,), scale)
    return ValidationReport(failures)
