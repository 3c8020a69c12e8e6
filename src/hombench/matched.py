"""Matched pairs of twisted algebras, their doubles, and Manin triples.

A matched pair is two algebras acting on each other such that the direct sum
carries the same kind of structure (the double). The validators accept
arbitrary candidates and fold the component structures' own validity into the
verdict, so the double-equivalence theorems can be exercised on random input.
Each mutual action family is stored as its action table (see
representations), which the validators and the doubles read as it is. Each
cross-identity instance is one packed int, as in the validators of algebras:
every operator at a twisted basis vector is read once per call from the int
planes of the action tables and the acted-on algebra's table
(foundation._packed_operators), and only a nonzero instance is unpacked into
its residual.
"""

from collections import namedtuple
from operator import mul, sub

from .errors import AsymmetricInput, DimensionMismatch, InvalidInput, TwistMismatch
from .foundation import (LinearMap, Tensor2, Tensor3, apply_bilinear, direct_sum_table,
                         map_direct_sum, _packed_family, _packed_operators, _slot_bits, _unpack)
from .algebras import (BilinearForm, HomLieAlgebra, HomPreLieAlgebra, ValidationReport,
                       agreement_report, combine_reports, validate_hom_lie, validate_hom_pre_lie,
                       validate_quadratic, _Stored, _record)
from .representations import (HomLieRep, HomPreLieRep, star_maps, validate_lie_rep,
                              validate_pre_lie_rep, _action_family, _dual_actions, _maps_view)


class LieMatchedPair(_Stored):
    """Two twisted Lie algebras with mutual actions; first_action[i] acts on the
    second space, second_action[j] acts on the first space. Each family is
    stored as its action table, and first_action and second_action are views."""

    __slots__ = ("first", "second", "first_action_table", "second_action_table")

    first_action = _maps_view("first_action_table")
    second_action = _maps_view("second_action_table")

    def __init__(self, first, second, first_action, second_action):
        self.first = first
        self.second = second
        self.first_action_table = _action_family(first_action, first.dim, second.dim)
        self.second_action_table = _action_family(second_action, second.dim, first.dim)

    def __repr__(self):
        return "LieMatchedPair(%d, %d)" % (self.first.dim, self.second.dim)


class PreLieMatchedPair(_Stored):
    """Two twisted pre-Lie algebras with mutual left/right action families, each
    stored as its action table; first_left and the like are views."""

    __slots__ = ("first", "second", "first_left_table", "first_right_table",
                 "second_left_table", "second_right_table")

    first_left = _maps_view("first_left_table")
    first_right = _maps_view("first_right_table")
    second_left = _maps_view("second_left_table")
    second_right = _maps_view("second_right_table")

    def __init__(self, first, second, first_left, first_right, second_left, second_right):
        self.first = first
        self.second = second
        self.first_left_table = _action_family(first_left, first.dim, second.dim)
        self.first_right_table = _action_family(first_right, first.dim, second.dim)
        self.second_left_table = _action_family(second_left, second.dim, first.dim)
        self.second_right_table = _action_family(second_right, second.dim, first.dim)

    def __repr__(self):
        return "PreLieMatchedPair(%d, %d)" % (self.first.dim, self.second.dim)


def _lie_cross(acting, acted, action, back):
    """The cross identity with values in the acted-on algebra, as (w, scale,
    residual) where residual(x, y, z) is scale times the residual of
    rho(phi(x))[y, z] = [rho(x)y, psi(z)] + [psi(y), rho(x)z]
    + rho(rho'(z)x)psi(y) - rho(rho'(y)x)psi(z), packed at width w into one int;
    action is rho (acting on acted), back is rho' (acted on acting), and phi, psi
    are the two twists; action and back are action tables. Every operator at a
    twisted basis vector is built once per call."""
    nx = acting.dim
    ny = acted.dim
    D, (brackets, phi_rows, acts, backs, psi_rows), size = _packed_family(
        [acted.bracket, acting.twist, action, back, acted.twist])
    w = _slot_bits(3 * nx * ny + 2 * ny * ny, size, size, size)    # 3 nx ny + 2 ny^2 products
    psi = list(zip(*psi_rows))
    at_phi, on_psi = _packed_operators(acts, w, list(zip(*phi_rows)), psi)     # rho(phi(x)); u -> rho(u)psi(y)
    bracket_psi, psi_bracket = _packed_operators(brackets, w, psi, psi)     # [psi(y), -], [-, psi(z)]

    def residual(x, y, z):
        return (sum(map(mul, at_phi[x], brackets[y][z])) - sum(map(mul, psi_bracket[z], acts[x][y]))
                - sum(map(mul, bracket_psi[y], acts[x][z])) - sum(map(mul, on_psi[y], backs[z][x]))
                + sum(map(mul, on_psi[z], backs[y][x])))

    return w, D ** 3, residual


def validate_matched_pair_lie(mp):
    """Check both algebras, both mutual actions, and the two cross compatibilities."""
    g = mp.first
    h = mp.second
    n = g.dim
    m = h.dim
    named = [("first", validate_hom_lie(g)), ("second", validate_hom_lie(h))]
    if g.twist.is_invertible() and h.twist.is_invertible():
        named.append(("first-action", validate_lie_rep(HomLieRep(g, m, h.twist, mp.first_action_table))))
        named.append(("second-action", validate_lie_rep(HomLieRep(h, n, g.twist, mp.second_action_table))))
    report = combine_reports(named)
    failures = list(report.failures)

    # values in the first algebra; the acting index comes last
    w, scale, cross = _lie_cross(h, g, mp.second_action_table, mp.first_action_table)
    for i in range(n):
        for j in range(n):
            for k in range(m):
                total = cross(k, i, j)
                if total:
                    _record(failures, "cross-first", (i, j, k), _unpack(total, w, n), scale)
    w, scale, cross = _lie_cross(g, h, mp.first_action_table, mp.second_action_table)
    for i in range(n):
        for j in range(m):
            for k in range(m):
                total = cross(i, j, k)
                if total:
                    _record(failures, "cross-second", (i, j, k), _unpack(total, w, m), scale)
    return ValidationReport(failures, report.details)


def double_lie(mp):
    """The bracket on the direct sum induced by the mutual actions; accepts candidates."""
    g = mp.first
    h = mp.second
    n = g.dim
    bracket = direct_sum_table(n + h.dim, [(0, g.bracket), (n, h.bracket)], [
        (mp.first_action_table, 0, n, False, False), (mp.first_action_table, 0, n, True, True),
        (mp.second_action_table, n, 0, False, False), (mp.second_action_table, n, 0, True, True)])
    return HomLieAlgebra(bracket, map_direct_sum(g.twist, h.twist))


def _pre_lie_cross_failures(failures, side, acting, acted, left, right, back_left, back_right):
    """Record the two cross identities with values in the acted-on algebra,
    named cross-right-<side> and cross-left-<side>, at witnesses (x, y, z):
      r(alpha(x))[y, z] = r(l'(z)x)beta(y) - r(l'(y)x)beta(z) + beta(y).r(x)z - beta(z).r(x)y,
      l(alpha(x))(y.z) = -l(l'(y)x - r'(y)x)beta(z) + (l(x)y - r(x)y).beta(z)
                         + r(r'(z)x)beta(y) + beta(y).l(x)z,
    where (l, r) = (left, right) act on acted, (l', r') = (back_left, back_right)
    act back on acting, all four given as action tables, and alpha, beta are
    the twists of acting and acted.
    Every operator at a twisted basis vector is built once per call, and each
    instance is one packed int."""
    nx = acting.dim
    ny = acted.dim
    D, (planes, ls, rs, lb, rb, alpha_rows, beta_rows), size = _packed_family(
        [acted.product, left, right, back_left, back_right, acting.twist, acted.twist])
    w = _slot_bits(4 * nx * ny + 3 * ny * ny, size, size, size)    # cross-left: 4 nx ny + 3 ny^2 products
    alpha = list(zip(*alpha_rows))
    beta = list(zip(*beta_rows))
    l_alpha, l_beta = _packed_operators(ls, w, alpha, beta)            # l(alpha(x)); u -> l(u)beta(y)
    r_alpha, r_beta = _packed_operators(rs, w, alpha, beta)            # r(alpha(x)); u -> r(u)beta(y)
    beta_times, times_beta = _packed_operators(planes, w, beta, beta)  # beta(y).-; -.beta(z)
    scale = D ** 3
    commutators = [[list(map(sub, planes[y][z], planes[z][y])) for z in range(ny)] for y in range(ny)]
    for x in range(nx):
        ra = r_alpha[x]
        for y in range(ny):
            ry, by, yx, xy = r_beta[y], beta_times[y], lb[y][x], rs[x][y]
            for z in range(ny):
                # 4 nx ny + 2 ny^2 products
                total = (sum(map(mul, ra, commutators[y][z])) - sum(map(mul, ry, lb[z][x]))
                         + sum(map(mul, r_beta[z], yx)) - sum(map(mul, by, rs[x][z]))
                         + sum(map(mul, beta_times[z], xy)))
                if total:
                    _record(failures, "cross-right-" + side, (x, y, z), _unpack(total, w, ny), scale)
    for x in range(nx):
        la = l_alpha[x]
        for y in range(ny):
            mixed = list(map(sub, lb[y][x], rb[y][x]))
            difference = list(map(sub, ls[x][y], rs[x][y]))
            ry, by = r_beta[y], beta_times[y]
            for z in range(ny):
                total = (sum(map(mul, la, planes[y][z])) + sum(map(mul, l_beta[z], mixed))
                         - sum(map(mul, times_beta[z], difference)) - sum(map(mul, ry, rb[z][x]))
                         - sum(map(mul, by, ls[x][z])))
                if total:
                    _record(failures, "cross-left-" + side, (x, y, z), _unpack(total, w, ny), scale)


def validate_matched_pair_pre_lie(mp):
    """Check both algebras, both mutual action pairs, and the four cross compatibilities."""
    a = mp.first
    b = mp.second
    n = a.dim
    m = b.dim
    named = [("first", validate_hom_pre_lie(a)), ("second", validate_hom_pre_lie(b))]
    first = (mp.first_left_table, mp.first_right_table)
    second = (mp.second_left_table, mp.second_right_table)
    if a.twist.is_invertible() and b.twist.is_invertible():
        named.append(("first-action", validate_pre_lie_rep(HomPreLieRep(a, m, b.twist, *first))))
        named.append(("second-action", validate_pre_lie_rep(HomPreLieRep(b, n, a.twist, *second))))
    report = combine_reports(named)
    failures = list(report.failures)
    _pre_lie_cross_failures(failures, "second", a, b, *first, *second)
    _pre_lie_cross_failures(failures, "first", b, a, *second, *first)
    return ValidationReport(failures, report.details)


def double_pre_lie(mp):
    """The product on the direct sum induced by the mutual actions; accepts candidates."""
    a = mp.first
    b = mp.second
    n = a.dim
    product = direct_sum_table(n + b.dim, [(0, a.product), (n, b.product)], [
        (mp.first_left_table, 0, n, False, False), (mp.first_right_table, 0, n, True, False),
        (mp.second_left_table, n, 0, False, False), (mp.second_right_table, n, 0, True, False)])
    return HomPreLieAlgebra(product, map_direct_sum(a.twist, b.twist))


def require_dual_twists(a, adual):
    """Both algebras must have equal dimension and mutually inverse-dual twists."""
    if a.dim != adual.dim:
        raise DimensionMismatch("dims %d and %d" % (a.dim, adual.dim))
    if adual.twist != a.twist.inverse().transpose():
        raise TwistMismatch("second twist is not the inverse dual of the first")


def coadjoint_matched_pair(a, adual):
    """The canonical candidate pair: each algebra acts on the other's dual space
    through the twisted dual of its regular left/right action pair."""
    require_dual_twists(a, adual)

    def coadjoint(b):
        return _dual_actions(b.product, b.product.swapped(), b.twist, b.twist)

    return PreLieMatchedPair(a, adual, *coadjoint(a), *coadjoint(adual))


def coadjoint_lie_matched_pair(a, adual):
    """The Lie-side counterpart: commutator algebras acting through twisted duals
    of the left multiplication families."""
    require_dual_twists(a, adual)
    lie_a = HomLieAlgebra(a.commutator_tensor(), a.twist)
    lie_d = HomLieAlgebra(adual.commutator_tensor(), adual.twist)
    return LieMatchedPair(lie_a, lie_d, star_maps(a.product, a.twist, a.twist),
                          star_maps(adual.product, adual.twist, adual.twist))


def check_pre_lie_matched_equiv(a, adual):
    """Both canonical pairs must be matched pairs together or fail together."""
    require_dual_twists(a, adual)
    lie_report = validate_matched_pair_lie(coadjoint_lie_matched_pair(a, adual))
    pre_report = validate_matched_pair_pre_lie(coadjoint_matched_pair(a, adual))
    return agreement_report({"lie": lie_report, "pre_lie": pre_report})


class ManinTriple(_Stored):
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
    form = mt.form.matrix.entries
    ranges = (("first", range(0, n1), range(n1, dim)),
              ("second", range(n1, dim), range(0, n1)))
    for name, inside, outside in ranges:
        for i in inside:
            for j in inside:
                _record(failures, name + "-isotropic", (i, j), (form[i][j],))
                leak = [total.basis_product(i, j)[k] for k in outside]
                _record(failures, name + "-closed", (i, j), tuple(leak))
    twist = total.twist.entries
    for i in range(dim):
        for j in range(dim):
            if (i < n1) != (j < n1):
                _record(failures, "twist-block-diagonal", (i, j), (twist[i][j],))
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
    form = mt.form.matrix.entries
    pairing = LinearMap(tuple(tuple(form[n1 + j][i] for j in range(n2)) for i in range(n1)),
                        rows=n1, cols=n2)
    pairing_inv = pairing.inverse()

    first_product = Tensor3.from_slices(n1, n1, n1, lambda i, j: total.basis_product(i, j)[:n1])
    twist = total.twist.entries
    first_twist = LinearMap(tuple(row[:n1] for row in twist[:n1]), rows=n1, cols=n1)
    first = HomPreLieAlgebra(first_product, first_twist)

    second_block = Tensor3.from_slices(n2, n2, n2, lambda i, j: total.basis_product(n1 + i, n1 + j)[n1:])
    dual_product = Tensor3.from_slices(n2, n2, n2, lambda i, j: pairing.apply(
        apply_bilinear(second_block, pairing_inv.column(i), pairing_inv.column(j))))
    expected_twist = first_twist.inverse().transpose()
    second_twist = LinearMap(tuple(row[n1:] for row in twist[n1:]), rows=n2, cols=n2)
    if pairing @ second_twist @ pairing_inv != expected_twist:
        raise InvalidInput("the second slot's twist does not transport to the inverse dual twist")
    dual = HomPreLieAlgebra(dual_product, expected_twist)

    iso = map_direct_sum(LinearMap.identity(n1), pairing)
    return StandardizedTriple(iso=iso, standard=standard_manin_triple(first, dual))
