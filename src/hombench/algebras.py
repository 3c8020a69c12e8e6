"""Twisted algebras with structure-constant tables, their validators, and bilinear forms.

A Hom-Lie algebra is a bracket table plus a twist map phi satisfying
skew-symmetry, multiplicativity of phi, and the twisted Jacobi identity.
A Hom-pre-Lie algebra is a product table plus a twist alpha satisfying
multiplicativity and symmetry of the twisted associator in its first two
arguments. Validators return reports with exact residual witnesses; they
never raise on mathematically invalid candidates, only on shape errors.

Each validator sums every identity instance as one packed int (foundation):
it reads its tables and maps from one family at a common denominator
(_packed_family), takes each operator at a twisted basis vector from
_packed_operators, so a table's output vectors are packed once per call, and
lets a fixed map act through its packed columns. An instance is a sum of a few
dot products of packed operators with int vectors, tested for zero at a slot
width from _slot_bits (the identity's term count is noted where it is
computed); only a failing one is unpacked and divided into its exact residual
(_record).

validate_hom_pre_lie keeps its sums in a core, _hom_pre_lie_failures, that
needs no objects: it takes the table's int planes and the twist's int columns
over one denominator D, and yields each failing instance as its packed int.
The validator unpacks those into Failures (_core_report), and search runs the
same core on candidates it never builds, asking only whether anything fails
(dendriform's validate_l_dendriform is split the same way). The core builds
each operator the first time an instance reads it, and its caller finds the
width from _slot_bits once per report or per search. The core runs the axiom
instances first and multiplicativity second, since under search's identity
twist multiplicativity always holds and nearly every rejected candidate fails
an early axiom instance; _core_report sorts the failures back into report
order, multiplicativity first.
"""

from operator import add, mul, sub

from .errors import AsymmetricInput, DimensionMismatch, InvalidInput
from .foundation import (Tensor2, apply_bilinear, _integer_family, _pack, _operators_on_demand,
                         _packed_family, _packed_operators, _quotients, _slot_bits, _transposed, _unpack)


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
    """A candidate twisted pre-Lie algebra: product structure tensor plus twist map.
    The report of validate_hom_pre_lie is a cache, built on the first call and
    never compared."""

    __slots__ = ("dim", "product", "twist", "_report")

    def __init__(self, product, twist):
        d1, d2, d3 = product.dims
        if not (d1 == d2 == d3):
            raise DimensionMismatch("product tensor dims %r are not cubical" % (product.dims,))
        if not (twist.rows == twist.cols == d1):
            raise DimensionMismatch("twist is %dx%d for dimension %d" % (twist.rows, twist.cols, d1))
        self.dim = d1
        self.product = product
        self.twist = twist
        self._report = None

    def operation(self):
        return self.product

    def product_of(self, x, y):
        return apply_bilinear(self.product, x, y)

    def basis_product(self, i, j):
        return self.product.slice12(i, j)

    def commutator_tensor(self):
        """Structure tensor of x . y - y . x, with no validity requirement."""
        return self.product - self.product.swapped()

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
        return self.matrix.transpose()

    def is_nondegenerate(self):
        """M and its transpose have one rank, so the verdict is read, and
        cached, on the stored matrix."""
        return self.matrix.is_invertible()

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

    Every bracket with a twisted basis vector phi(e_i) is read from its packed
    operator [phi(e_i), -], built once per call, and each Jacobi term
    [phi(e_a), [e_b, e_c]] is one int computed once and shared by its three
    rotations."""
    n = cand.dim
    phi = cand.twist
    failures = []
    D, (planes, phi_rows), size = _packed_family([cand.bracket, phi])
    for i in range(n):
        for j in range(i, n):
            _record(failures, "skew-symmetry", (i, j), list(map(add, planes[i][j], planes[j][i])), D)
    if not phi.is_invertible():
        failures.append(Failure("twist-invertible", (), ()))
    w = _slot_bits(3 * n * n, size, size, size)     # the Jacobi sum: 3 n^2 products (multiplicativity: n + n^2)
    phis = list(zip(*phi_rows))
    ad, _ = _packed_operators(planes, w, phis, ())
    twist = [D * _pack(c, w) for c in phis]
    scale = D ** 3
    for i in range(n):
        for j in range(n):
            # phi([e_i, e_j]) - [phi(e_i), phi(e_j)]
            total = sum(map(mul, twist, planes[i][j])) - sum(map(mul, ad[i], phis[j]))
            if total:
                _record(failures, "twist-bracket-morphism", (i, j), _unpack(total, w, n), scale)
    terms = [[[sum(map(mul, ad[a], planes[b][c])) for c in range(n)] for b in range(n)] for a in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = terms[i][j][k] + terms[j][k][i] + terms[k][i][j]
                if total:
                    _record(failures, "hom-jacobi", (i, j, k), _unpack(total, w, n), scale)
    return ValidationReport(failures)


def _hom_pre_lie_failures(planes, alpha_cols, D, w):
    """Yield (identity, witness, total) for each failing twisted-associator and
    multiplicativity instance of the product table with int planes / D under
    the twist with int columns alpha_cols / D: total is the instance times D^3,
    packed at width w (foundation._pack), and _unpack gives its slots. The
    associator instances come first and multiplicativity second, the order
    search needs, since it asks only whether any instance fails and nearly every
    candidate it rejects fails an early associator instance.

    Each instance is one int: a sum of dot products of packed operators, the
    twist and alpha(e_i) . - and - . alpha(e_k), with int vectors. Every term
    is a twist int times two ints that are each a table int, a twist int or D:
    4 n^2 of them for the associator (n^2 for each dot, twice for the
    commutator) and n + n^2 for multiplicativity. The table is packed once, each
    operator is built the first time an instance reads it, and the twist is
    packed only when the multiplicativity instances run. Twist invertibility is
    not checked."""
    n = len(planes)
    left, right = _operators_on_demand(planes, w, alpha_cols)     # alpha(e_i) . -, - . alpha(e_k)
    for i in range(n):
        for j in range(i + 1, n):
            # (xy)a(z) - a(x)(yz) - (yx)a(z) + a(y)(xz) = [x, y]a(z) - a(x)(yz) + a(y)(xz)
            commutator = list(map(sub, planes[i][j], planes[j][i]))
            at_i, at_j = left[i], left[j]
            for k in range(n):
                total = (sum(map(mul, right[k], commutator)) - sum(map(mul, at_i, planes[j][k]))
                         + sum(map(mul, at_j, planes[i][k])))
                if total:
                    yield "twisted-associator-symmetry", (i, j, k), total
    twist = [D * _pack(a, w) for a in alpha_cols]
    for i in range(n):
        at = left[i]
        for j in range(n):
            total = sum(map(mul, twist, planes[i][j])) - sum(map(mul, at, alpha_cols[j]))
            if total:
                yield "twist-product-morphism", (i, j), total


def _core_report(tables, twist, core):
    """The report of an identity core run on the tables and the twist, read as
    ints over one denominator D: twist-invertible first, when it fails, then a
    Failure for each failing instance the core yields, its packed total
    unpacked and divided by D^3 into the residual. The core yields its axiom
    instances first; one stable sort by witness length puts the
    multiplicativity pairs back before the axiom triples, each group in core
    order. The width bounds the core's at most 6 n^2 terms by role."""
    failures = [] if twist.is_invertible() else [Failure("twist-invertible", (), ())]
    D, (*planes, rows) = _integer_family([*tables, twist])
    n = twist.rows
    table_max = max((abs(x) for table in planes for plane in table for v in plane for x in v), default=0)
    twist_max = max((abs(x) for row in rows for x in row), default=0)
    w = _slot_bits(6 * n * n, twist_max, table_max, max(table_max, twist_max, D))
    scale = D ** 3
    found = sorted(core(*planes, list(zip(*rows)), D, w), key=lambda item: len(item[1]))
    failures += [Failure(identity, witness, _quotients(_unpack(total, w, n), scale))
                 for identity, witness, total in found]
    return ValidationReport(failures)


def validate_hom_pre_lie(cand):
    """Check twist invertibility, multiplicativity, and twisted-associator symmetry.

    The identity instances are summed by _hom_pre_lie_failures, the core that
    search runs on its candidates. The algebra remembers its report, so
    validating it again returns the same report."""
    if cand._report is None:
        cand._report = _core_report([cand.product], cand.twist, _hom_pre_lie_failures)
    return cand._report


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
    ns, nd = src.dim, dst.dim
    D, (f_ints, src_planes, src_twist, dst_planes, dst_twist), size = _packed_family(
        [f, src.operation(), src.twist, dst.operation(), dst.twist])
    w = _slot_bits(ns + nd * nd, size, size, size)      # operation-preserved: ns + nd^2 products
    f_cols = _transposed(f_ints, ns)
    at_images, _ = _packed_operators(dst_planes, w, f_cols, ())           # f(e_i) * -
    f_op = [_pack(c, w) for c in f_cols]
    dst_op = [_pack(c, w) for c in zip(*dst_twist)]
    src_cols = list(zip(*src_twist))
    for j in range(ns):
        # f(alpha(e_j)) - alpha'(f(e_j)): ns + nd products
        total = sum(map(mul, f_op, src_cols[j])) - sum(map(mul, dst_op, f_cols[j]))
        if total:
            _record(failures, "twist-intertwine", (j,), _unpack(total, w, nd), D * D)
    f_op = [D * x for x in f_op]
    scale = D ** 3
    for i in range(ns):
        for j in range(ns):
            # f(e_i * e_j) - f(e_i) * f(e_j)
            total = sum(map(mul, f_op, src_planes[i][j])) - sum(map(mul, at_images[i], f_cols[j]))
            if total:
                _record(failures, "operation-preserved", (i, j), _unpack(total, w, nd), scale)
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
