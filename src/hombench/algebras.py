"""Twisted algebras with structure-constant tables, their validators, and bilinear forms.

A Hom-Lie algebra is a bracket table plus a twist map phi satisfying
skew-symmetry, multiplicativity of phi, and the twisted Jacobi identity.
A Hom-pre-Lie algebra is a product table plus a twist alpha satisfying
multiplicativity and symmetry of the twisted associator in its first two
arguments. Validators return reports with exact residual witnesses; they
never raise on mathematically invalid candidates, only on shape errors.
"""

from operator import add

from .errors import AsymmetricInput, DimensionMismatch, InvalidInput
from .foundation import (Tensor2, Tensor3, apply_bilinear, basis_vector, is_zero_vector,
                         sub_vectors, tensor2_to_map)


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

    def commutator_of(self, x, y):
        return sub_vectors(self.product_of(x, y), self.product_of(y, x))

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


def _record(failures, identity, witness, residual):
    if not is_zero_vector(residual):
        failures.append(Failure(identity, witness, residual))


def validate_hom_lie(cand):
    """Check skew-symmetry, twist invertibility, multiplicativity, and the twisted Jacobi identity.

    Every bracket with a twisted basis vector phi(e_i) is read from its operator
    [phi(e_i), -], built once per call, and each Jacobi term
    [phi(e_a), [e_b, e_c]] is computed once and shared by its three rotations."""
    n = cand.dim
    phi = cand.twist
    failures = []
    for i in range(n):
        for j in range(i, n):
            residual = tuple(a + b for a, b in zip(cand.basis_bracket(i, j), cand.basis_bracket(j, i)))
            _record(failures, "skew-symmetry", (i, j), residual)
    if not phi.is_invertible():
        failures.append(Failure("twist-invertible", (), ()))
    phis = [phi.column(i) for i in range(n)]
    ad = [cand.bracket.left_at(p) for p in phis]
    for i in range(n):
        for j in range(n):
            lhs = phi.apply(cand.basis_bracket(i, j))
            rhs = ad[i].apply(phis[j])
            _record(failures, "twist-bracket-morphism", (i, j), sub_vectors(lhs, rhs))
    terms = [[[ad[a].apply(cand.basis_bracket(b, c)) for c in range(n)] for b in range(n)]
             for a in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                cyclic = zip(terms[i][j][k], terms[j][k][i], terms[k][i][j])
                _record(failures, "hom-jacobi", (i, j, k), tuple(p + q + r for p, q, r in cyclic))
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
    alphas = [alpha.column(i) for i in range(n)]
    left = [cand.product.left_at(a) for a in alphas]
    right = [cand.product.right_at(a) for a in alphas]
    for i in range(n):
        for j in range(n):
            lhs = alpha.apply(cand.basis_product(i, j))
            rhs = left[i].apply(alphas[j])
            _record(failures, "twist-product-morphism", (i, j), sub_vectors(lhs, rhs))
    for i in range(n):
        for j in range(i + 1, n):
            # (xy)a(z) - a(x)(yz) - (yx)a(z) + a(y)(xz) = [x, y]a(z) - a(x)(yz) + a(y)(xz)
            commutator = sub_vectors(cand.basis_product(i, j), cand.basis_product(j, i))
            for k in range(n):
                residual = sub_vectors(right[k].apply(commutator), left[i].apply(cand.basis_product(j, k)))
                residual = tuple(map(add, residual, left[j].apply(cand.basis_product(i, k))))
                _record(failures, "twisted-associator-symmetry", (i, j, k), residual)
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
    lhs = f @ src.twist
    rhs = dst.twist @ f
    for j in range(src.dim):
        _record(failures, "twist-intertwine", (j,), sub_vectors(lhs.column(j), rhs.column(j)))
    src_table = src.operation()
    dst_table = dst.operation()
    for i in range(src.dim):
        for j in range(src.dim):
            mapped = f.apply(src_table.slice12(i, j))
            recomputed = apply_bilinear(dst_table, f.column(i), f.column(j))
            _record(failures, "operation-preserved", (i, j), sub_vectors(mapped, recomputed))
    return ValidationReport(failures)


def validate_quadratic(a, w):
    """Check that a skew form is twist-invariant and pairs the product against the commutator."""
    if w.symmetry != "skew":
        raise AsymmetricInput("quadratic structures use a skew form")
    if w.dim != a.dim:
        raise DimensionMismatch("form dim %d on algebra dim %d" % (w.dim, a.dim))
    n = a.dim
    failures = []
    if not w.is_nondegenerate():
        failures.append(Failure("nondegenerate", (), ()))
    basis = [basis_vector(n, i) for i in range(n)]
    alphas = [a.twist.apply(b) for b in basis]
    for i in range(n):
        for j in range(n):
            residual = w.apply(alphas[i], alphas[j]) - w.apply(basis[i], basis[j])
            _record(failures, "twist-invariance", (i, j), (residual,))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                residual = (w.apply(a.basis_product(i, j), alphas[k])
                            + w.apply(alphas[j], a.commutator_of(basis[i], basis[k])))
                _record(failures, "product-invariance", (i, j, k), (residual,))
    return ValidationReport(failures)


def validate_hessian(a, b):
    """Check that a symmetric form is twist-invariant and satisfies the product cocycle symmetry."""
    if b.symmetry != "symmetric":
        raise AsymmetricInput("hessian structures use a symmetric form")
    if b.dim != a.dim:
        raise DimensionMismatch("form dim %d on algebra dim %d" % (b.dim, a.dim))
    n = a.dim
    failures = []
    if not b.is_nondegenerate():
        failures.append(Failure("nondegenerate", (), ()))
    basis = [basis_vector(n, i) for i in range(n)]
    alphas = [a.twist.apply(v) for v in basis]
    for i in range(n):
        for j in range(i, n):
            residual = b.apply(alphas[i], alphas[j]) - b.apply(basis[i], basis[j])
            _record(failures, "twist-invariance", (i, j), (residual,))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                lhs = b.apply(a.basis_product(i, j), alphas[k]) - b.apply(alphas[i], a.basis_product(j, k))
                rhs = b.apply(a.basis_product(j, i), alphas[k]) - b.apply(alphas[j], a.basis_product(i, k))
                _record(failures, "cocycle-symmetry", (i, j, k), (lhs - rhs,))
    return ValidationReport(failures)
