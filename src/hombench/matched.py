"""Matched pairs of twisted algebras, their doubles, and Manin triples.

A matched pair is two algebras acting on each other such that the direct sum
carries the same kind of structure (the double). The validators accept
arbitrary candidates and fold the component structures' own validity into the
verdict, so the double-equivalence theorems can be exercised on random input.
The cross identities are summed in ints, as the validators of algebras are.
"""

from collections import namedtuple
from operator import mul, sub

from .errors import AsymmetricInput, DimensionMismatch, InvalidInput, TwistMismatch
from .foundation import (LinearMap, Tensor2, Tensor3, apply_bilinear, basis_vector,
                         direct_sum_table, map_direct_sum, _integer_family)
from .algebras import (BilinearForm, Failure, HomLieAlgebra, HomPreLieAlgebra,
                       ValidationReport, agreement_report, combine_reports, validate_hom_lie,
                       validate_hom_pre_lie, validate_quadratic, _record)
from .representations import (HomLieRep, HomPreLieRep, action_table, star_maps,
                              validate_lie_rep, validate_pre_lie_rep)


class LieMatchedPair:
    """Two twisted Lie algebras with mutual actions; first_action[i] acts on the
    second space, second_action[j] acts on the first space."""

    __slots__ = ("first", "second", "first_action", "second_action")

    def __init__(self, first, second, first_action, second_action):
        first_action = tuple(first_action)
        second_action = tuple(second_action)
        if len(first_action) != first.dim or len(second_action) != second.dim:
            raise DimensionMismatch("action counts %d/%d for dims %d/%d"
                                    % (len(first_action), len(second_action), first.dim, second.dim))
        for m in first_action:
            if m.rows != second.dim or m.cols != second.dim:
                raise DimensionMismatch("first action matrix is %dx%d on dim %d" % (m.rows, m.cols, second.dim))
        for m in second_action:
            if m.rows != first.dim or m.cols != first.dim:
                raise DimensionMismatch("second action matrix is %dx%d on dim %d" % (m.rows, m.cols, first.dim))
        self.first = first
        self.second = second
        self.first_action = first_action
        self.second_action = second_action

    def __eq__(self, other):
        if not isinstance(other, LieMatchedPair):
            return NotImplemented
        return (self.first, self.second, self.first_action, self.second_action) == \
               (other.first, other.second, other.first_action, other.second_action)

    def __repr__(self):
        return "LieMatchedPair(%d, %d)" % (self.first.dim, self.second.dim)


class PreLieMatchedPair:
    """Two twisted pre-Lie algebras with mutual left/right action families."""

    __slots__ = ("first", "second", "first_left", "first_right", "second_left", "second_right")

    def __init__(self, first, second, first_left, first_right, second_left, second_right):
        first_left = tuple(first_left)
        first_right = tuple(first_right)
        second_left = tuple(second_left)
        second_right = tuple(second_right)
        if len(first_left) != first.dim or len(first_right) != first.dim:
            raise DimensionMismatch("first action counts %d/%d for dim %d"
                                    % (len(first_left), len(first_right), first.dim))
        if len(second_left) != second.dim or len(second_right) != second.dim:
            raise DimensionMismatch("second action counts %d/%d for dim %d"
                                    % (len(second_left), len(second_right), second.dim))
        for m in first_left + first_right:
            if m.rows != second.dim or m.cols != second.dim:
                raise DimensionMismatch("first action matrix is %dx%d on dim %d" % (m.rows, m.cols, second.dim))
        for m in second_left + second_right:
            if m.rows != first.dim or m.cols != first.dim:
                raise DimensionMismatch("second action matrix is %dx%d on dim %d" % (m.rows, m.cols, first.dim))
        self.first = first
        self.second = second
        self.first_left = first_left
        self.first_right = first_right
        self.second_left = second_left
        self.second_right = second_right

    def __eq__(self, other):
        if not isinstance(other, PreLieMatchedPair):
            return NotImplemented
        return ((self.first, self.second, self.first_left, self.first_right,
                 self.second_left, self.second_right) ==
                (other.first, other.second, other.first_left, other.first_right,
                 other.second_left, other.second_right))

    def __repr__(self):
        return "PreLieMatchedPair(%d, %d)" % (self.first.dim, self.second.dim)


def _lie_cross(acting, acted, action, back):
    """The cross identity with values in the acted-on algebra, as (d, residual)
    where residual(x, y, z) is d times the residual of
    rho(phi(x))[y, z] = [rho(x)y, psi(z)] + [psi(y), rho(x)z]
    + rho(rho'(z)x)psi(y) - rho(rho'(y)x)psi(z), as a list of ints; action is rho
    (acting on acted), back is rho' (acted on acting), and phi, psi are the two
    twists. Every operator at a twisted basis vector is built once per call."""
    nx = acting.dim
    ny = acted.dim
    on = action_table(action, ny)
    back_on = action_table(back, nx)
    psi = [acted.twist.column(y) for y in range(ny)]
    D, ops = _integer_family([on.left_at(acting.twist.column(x)) for x in range(nx)]   # rho(phi(x))
                             + [on.right_at(p) for p in psi]                          # u -> rho(u)psi(y)
                             + [acted.bracket.left_at(p) for p in psi]                # [psi(y), -]
                             + [acted.bracket.right_at(p) for p in psi])              # [-, psi(z)]
    at_phi = ops[:nx]
    on_psi, bracket_psi, psi_bracket = (ops[nx + s * ny:nx + (s + 1) * ny] for s in range(3))
    d, (brackets, acts, backs) = _integer_family([acted.bracket, on, back_on])

    def residual(x, y, z):
        bracket, xy, xz, zx, yx = brackets[y][z], acts[x][y], acts[x][z], backs[z][x], backs[y][x]
        return [sum(map(mul, pa, bracket)) - sum(map(mul, pz, xy)) - sum(map(mul, by, xz))
                - sum(map(mul, oy, zx)) + sum(map(mul, oz, yx))
                for pa, pz, by, oy, oz in zip(at_phi[x], psi_bracket[z], bracket_psi[y], on_psi[y], on_psi[z])]

    return D * d, residual


def validate_matched_pair_lie(mp):
    """Check both algebras, both mutual actions, and the two cross compatibilities."""
    g = mp.first
    h = mp.second
    n = g.dim
    m = h.dim
    named = [("first", validate_hom_lie(g)), ("second", validate_hom_lie(h))]
    if g.twist.is_invertible() and h.twist.is_invertible():
        named.append(("first-action", validate_lie_rep(HomLieRep(g, m, h.twist, mp.first_action))))
        named.append(("second-action", validate_lie_rep(HomLieRep(h, n, g.twist, mp.second_action))))
    report = combine_reports(named)
    failures = list(report.failures)

    # values in the first algebra; the acting index comes last
    scale, cross = _lie_cross(h, g, mp.second_action, mp.first_action)
    for i in range(n):
        for j in range(n):
            for k in range(m):
                _record(failures, "cross-first", (i, j, k), cross(k, i, j), scale)
    scale, cross = _lie_cross(g, h, mp.first_action, mp.second_action)
    for i in range(n):
        for j in range(m):
            for k in range(m):
                _record(failures, "cross-second", (i, j, k), cross(i, j, k), scale)
    return ValidationReport(failures, report.details)


def double_lie(mp):
    """The bracket on the direct sum induced by the mutual actions; accepts candidates."""
    g = mp.first
    h = mp.second
    n = g.dim
    bracket = direct_sum_table(n + h.dim, [(0, g.bracket), (n, h.bracket)], [
        (mp.first_action, 0, n, False, False), (mp.first_action, 0, n, True, True),
        (mp.second_action, n, 0, False, False), (mp.second_action, n, 0, True, True)])
    return HomLieAlgebra(bracket, map_direct_sum(g.twist, h.twist))


def _pre_lie_cross_failures(failures, side, acting, acted, left, right, back_left, back_right):
    """Record the two cross identities with values in the acted-on algebra,
    named cross-right-<side> and cross-left-<side>, at witnesses (x, y, z):
      r(alpha(x))[y, z] = r(l'(z)x)beta(y) - r(l'(y)x)beta(z) + beta(y).r(x)z - beta(z).r(x)y,
      l(alpha(x))(y.z) = -l(l'(y)x - r'(y)x)beta(z) + (l(x)y - r(x)y).beta(z)
                         + r(r'(z)x)beta(y) + beta(y).l(x)z,
    where (l, r) = (left, right) act on acted, (l', r') = (back_left, back_right)
    act back on acting, and alpha, beta are the twists of acting and acted.
    Every operator at a twisted basis vector is built once per call."""
    nx = acting.dim
    ny = acted.dim
    l_on = action_table(left, ny)
    r_on = action_table(right, ny)
    l_back = action_table(back_left, nx)
    r_back = action_table(back_right, nx)
    alpha = [acting.twist.column(x) for x in range(nx)]
    beta = [acted.twist.column(y) for y in range(ny)]
    D, ops = _integer_family([l_on.left_at(a) for a in alpha]                  # l(alpha(x))
                             + [r_on.left_at(a) for a in alpha]                # r(alpha(x))
                             + [l_on.right_at(b) for b in beta]                # u -> l(u)beta(y)
                             + [r_on.right_at(b) for b in beta]                # u -> r(u)beta(y)
                             + [acted.product.left_at(b) for b in beta]        # beta(y).-
                             + [acted.product.right_at(b) for b in beta])      # -.beta(z)
    l_alpha, r_alpha = ops[:nx], ops[nx:2 * nx]
    l_beta, r_beta, beta_times, times_beta = (ops[2 * nx + s * ny:2 * nx + (s + 1) * ny] for s in range(4))
    d, (planes, ls, rs, lb, rb) = _integer_family([acted.product, l_on, r_on, l_back, r_back])
    scale = D * d
    commutators = [[list(map(sub, planes[y][z], planes[z][y])) for z in range(ny)] for y in range(ny)]
    for x in range(nx):
        for y in range(ny):
            for z in range(ny):
                commutator, zx, yx, xz, xy = commutators[y][z], lb[z][x], lb[y][x], rs[x][z], rs[x][y]
                _record(failures, "cross-right-" + side, (x, y, z),
                        [sum(map(mul, ra, commutator)) - sum(map(mul, ry, zx)) + sum(map(mul, rz, yx))
                         - sum(map(mul, by, xz)) + sum(map(mul, bz, xy))
                         for ra, ry, rz, by, bz in zip(r_alpha[x], r_beta[y], r_beta[z],
                                                       beta_times[y], beta_times[z])], scale)
    for x in range(nx):
        for y in range(ny):
            mixed = list(map(sub, lb[y][x], rb[y][x]))
            difference = list(map(sub, ls[x][y], rs[x][y]))
            for z in range(ny):
                product, zx, xz = planes[y][z], rb[z][x], ls[x][z]
                _record(failures, "cross-left-" + side, (x, y, z),
                        [sum(map(mul, la, product)) + sum(map(mul, lz, mixed)) - sum(map(mul, tz, difference))
                         - sum(map(mul, ry, zx)) - sum(map(mul, by, xz))
                         for la, lz, tz, ry, by in zip(l_alpha[x], l_beta[z], times_beta[z],
                                                       r_beta[y], beta_times[y])], scale)


def validate_matched_pair_pre_lie(mp):
    """Check both algebras, both mutual action pairs, and the four cross compatibilities."""
    a = mp.first
    b = mp.second
    n = a.dim
    m = b.dim
    named = [("first", validate_hom_pre_lie(a)), ("second", validate_hom_pre_lie(b))]
    if a.twist.is_invertible() and b.twist.is_invertible():
        named.append(("first-action",
                      validate_pre_lie_rep(HomPreLieRep(a, m, b.twist, mp.first_left, mp.first_right))))
        named.append(("second-action",
                      validate_pre_lie_rep(HomPreLieRep(b, n, a.twist, mp.second_left, mp.second_right))))
    report = combine_reports(named)
    failures = list(report.failures)
    _pre_lie_cross_failures(failures, "second", a, b, mp.first_left, mp.first_right,
                            mp.second_left, mp.second_right)
    _pre_lie_cross_failures(failures, "first", b, a, mp.second_left, mp.second_right,
                            mp.first_left, mp.first_right)
    return ValidationReport(failures, report.details)


def double_pre_lie(mp):
    """The product on the direct sum induced by the mutual actions; accepts candidates."""
    a = mp.first
    b = mp.second
    n = a.dim
    product = direct_sum_table(n + b.dim, [(0, a.product), (n, b.product)], [
        (mp.first_left, 0, n, False, False), (mp.first_right, 0, n, True, False),
        (mp.second_left, n, 0, False, False), (mp.second_right, n, 0, True, False)])
    return HomPreLieAlgebra(product, map_direct_sum(a.twist, b.twist))


def require_dual_twists(a, adual):
    """Both algebras must have equal dimension and mutually inverse-dual twists."""
    if a.dim != adual.dim:
        raise DimensionMismatch("dims %d and %d" % (a.dim, adual.dim))
    if adual.twist != a.twist.inverse().transpose():
        raise TwistMismatch("second twist is not the inverse dual of the first")


def _coadjoint_actions(a):
    """The twisted duals of the commutator family and of the negated right
    multiplication family of one algebra: its left and right actions on the
    partner's space."""
    left = a.product.left_maps()
    right = a.product.right_maps()
    return (star_maps([lm - rm for lm, rm in zip(left, right)], a.twist, a.twist),
            tuple(-mm for mm in star_maps(right, a.twist, a.twist)))


def coadjoint_matched_pair(a, adual):
    """The canonical candidate pair: each algebra acts on the other's dual space
    through the twisted dual of its commutator and right multiplication families."""
    require_dual_twists(a, adual)
    return PreLieMatchedPair(a, adual, *_coadjoint_actions(a), *_coadjoint_actions(adual))


def coadjoint_lie_matched_pair(a, adual):
    """The Lie-side counterpart: commutator algebras acting through twisted duals
    of the left multiplication families."""
    require_dual_twists(a, adual)
    lie_a = HomLieAlgebra(a.commutator_tensor(), a.twist)
    lie_d = HomLieAlgebra(adual.commutator_tensor(), adual.twist)
    return LieMatchedPair(lie_a, lie_d,
                          star_maps(a.product.left_maps(), a.twist, a.twist),
                          star_maps(adual.product.left_maps(), adual.twist, adual.twist))


def check_pre_lie_matched_equiv(a, adual):
    """Both canonical pairs must be matched pairs together or fail together."""
    require_dual_twists(a, adual)
    lie_report = validate_matched_pair_lie(coadjoint_lie_matched_pair(a, adual))
    pre_report = validate_matched_pair_pre_lie(coadjoint_matched_pair(a, adual))
    return agreement_report({"lie": lie_report, "pre_lie": pre_report})


class ManinTriple:
    """A quadratic algebra split into two isotropic subalgebra slots: the first
    first_dim basis vectors and the remaining second_dim basis vectors."""

    __slots__ = ("total", "form", "first_dim", "second_dim")

    def __init__(self, total, form, first_dim, second_dim):
        if first_dim + second_dim != total.dim:
            raise DimensionMismatch("split %d + %d for dim %d" % (first_dim, second_dim, total.dim))
        if form.dim != total.dim:
            raise DimensionMismatch("form dim %d for dim %d" % (form.dim, total.dim))
        if form.symmetry != "skew":
            raise AsymmetricInput("the invariant form of a Manin triple is skew")
        self.total = total
        self.form = form
        self.first_dim = first_dim
        self.second_dim = second_dim

    def __eq__(self, other):
        if not isinstance(other, ManinTriple):
            return NotImplemented
        return ((self.total, self.form, self.first_dim, self.second_dim) ==
                (other.total, other.form, other.first_dim, other.second_dim))

    def __repr__(self):
        return "ManinTriple(%d + %d)" % (self.first_dim, self.second_dim)


def validate_manin_triple(mt):
    """Check total validity, the quadratic conditions, isotropy, closure, and a
    block-diagonal twist."""
    total = mt.total
    n1 = mt.first_dim
    dim = total.dim
    named = [("total", validate_hom_pre_lie(total)), ("quadratic", validate_quadratic(total, mt.form))]
    report = combine_reports(named)
    failures = list(report.failures)
    basis = [basis_vector(dim, i) for i in range(dim)]
    ranges = (("first", range(0, n1), range(n1, dim)),
              ("second", range(n1, dim), range(0, n1)))
    for name, inside, outside in ranges:
        for i in inside:
            for j in inside:
                value = mt.form.apply(basis[i], basis[j])
                if value != 0:
                    failures.append(Failure(name + "-isotropic", (i, j), (value,)))
                leak = [total.basis_product(i, j)[k] for k in outside]
                _record(failures, name + "-closed", (i, j), tuple(leak))
    for i in range(dim):
        for j in range(dim):
            same_block = (i < n1) == (j < n1)
            if not same_block and total.twist.entries[i][j] != 0:
                failures.append(Failure("twist-block-diagonal", (i, j), (total.twist.entries[i][j],)))
    return ValidationReport(failures, report.details)


def standard_manin_triple(a, adual):
    """The double of the canonical pair with the tautological skew pairing."""
    require_dual_twists(a, adual)
    n = a.dim
    total = double_pre_lie(coadjoint_matched_pair(a, adual))
    entries = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        entries[i][n + i] = -1
        entries[n + i][i] = 1
    form = BilinearForm(Tensor2(tuple(tuple(row) for row in entries), 2 * n, 2 * n), "skew")
    return ManinTriple(total, form, n, n)


StandardizedTriple = namedtuple("StandardizedTriple", ["iso", "standard"])


def standardize_manin_triple(mt):
    """Rewrite a valid Manin triple as the standard one on the first slot and its
    dual, with the structure-preserving isomorphism sending u to form(u, .)."""
    if not validate_manin_triple(mt).valid:
        raise InvalidInput("standardize_manin_triple needs a valid Manin triple")
    n1 = mt.first_dim
    n2 = mt.second_dim
    if n1 != n2:
        raise InvalidInput("a nondegenerate isotropic split needs equal slot dimensions")
    total = mt.total
    dim = total.dim
    basis = [basis_vector(dim, i) for i in range(dim)]
    pairing = LinearMap(tuple(tuple(mt.form.apply(basis[n1 + j], basis[i]) for j in range(n2))
                              for i in range(n1)), rows=n1, cols=n2)
    pairing_inv = pairing.inverse()

    first_product = Tensor3.from_slices(n1, n1, n1, lambda i, j: total.basis_product(i, j)[:n1])
    first_twist = LinearMap(tuple(tuple(total.twist.entries[i][j] for j in range(n1)) for i in range(n1)),
                            rows=n1, cols=n1)
    first = HomPreLieAlgebra(first_product, first_twist)

    second_block = Tensor3.from_slices(n2, n2, n2, lambda i, j: total.basis_product(n1 + i, n1 + j)[n1:])
    dual_product = Tensor3.from_slices(n2, n2, n2, lambda i, j: pairing.apply(
        apply_bilinear(second_block, pairing_inv.column(i), pairing_inv.column(j))))
    expected_twist = first_twist.inverse().transpose()
    second_twist = LinearMap(tuple(tuple(total.twist.entries[n1 + i][n1 + j] for j in range(n2))
                                   for i in range(n2)), rows=n2, cols=n2)
    if pairing @ second_twist @ pairing_inv != expected_twist:
        raise InvalidInput("the second slot's twist does not transport to the inverse dual twist")
    dual = HomPreLieAlgebra(dual_product, expected_twist)

    iso = map_direct_sum(LinearMap.identity(n1), pairing)
    return StandardizedTriple(iso=iso, standard=standard_manin_triple(first, dual))
