"""Small benchmark structures used by the tests and the command line examples."""

from .foundation import LinearMap, Tensor2, Tensor3
from .algebras import BilinearForm, HomPreLieAlgebra, sub_adjacent
from .representations import HomPreLieRep, adjoint_rep, regular_rep
from .matched import coadjoint_lie_matched_pair, coadjoint_matched_pair, standard_manin_triple
from .bialgebras import triangular_bialgebra
from .dendriform import HomLDendriform, OOperator, _vertical_table
from .documents import document_for


def zero_algebra():
    """Dimension two, zero product, identity twist."""
    return HomPreLieAlgebra(Tensor3.zero(2, 2, 2), LinearMap.identity(2))


def scaling_algebra():
    """e1 * e2 = e2 with twist diag(1, 2)."""
    product = Tensor3.from_entries((2, 2, 2), {(0, 1, 1): 1})
    return HomPreLieAlgebra(product, LinearMap.diagonal([1, 2]))


def nilpotent_algebra():
    """e1 * e1 = e2 with identity twist."""
    product = Tensor3.from_entries((2, 2, 2), {(0, 0, 1): 1})
    return HomPreLieAlgebra(product, LinearMap.identity(2))


def scaled_nilpotent_algebra():
    """e1 * e1 = e2 with twist diag(2, 4)."""
    product = Tensor3.from_entries((2, 2, 2), {(0, 0, 1): 1})
    return HomPreLieAlgebra(product, LinearMap.diagonal([2, 4]))


def invalid_product_candidate():
    """e1 * e2 = e1 with identity twist; fails the twisted associator symmetry."""
    product = Tensor3.from_entries((2, 2, 2), {(0, 1, 0): 1})
    return HomPreLieAlgebra(product, LinearMap.identity(2))


def nilpotent_dendriform():
    """e1 |> e1 = e2, empty right product, identity twist."""
    left = Tensor3.from_entries((2, 2, 2), {(0, 0, 1): 1})
    return HomLDendriform(left, Tensor3.zero(2, 2, 2), LinearMap.identity(2))


def nilpotent_hessian_form():
    """The symmetric hyperbolic form on the nilpotent algebra."""
    return BilinearForm(((0, 1), (1, 0)), "symmetric")


def nilpotent_smatrix():
    """e2 (x) e2, a symmetric solution tensor for the nilpotent algebra."""
    return Tensor2.from_entries(2, 2, {(1, 1): 1})


def zero_dual_partner(a):
    """The zero product on the dual space with the inverse-transpose twist."""
    n = a.dim
    return HomPreLieAlgebra(Tensor3.zero(n, n, n), a.twist.inverse().transpose())


def mixed_action_operator(d):
    """The identity map over the difference algebra of a dendriform structure,
    carrying the left-product action and the negated right-product action."""
    vert = HomPreLieAlgebra(_vertical_table(d), d.twist)
    rep = HomPreLieRep(vert, d.dim, d.twist, d.left.left_maps(), [-m for m in d.right.left_maps()])
    return OOperator(rep, LinearMap.identity(d.dim))


def fixture_documents():
    """Every shipped document, in a fixed order, covering all twelve kinds."""
    nil = nilpotent_algebra()
    scaling = scaling_algebra()
    dendr = nilpotent_dendriform()
    dual = zero_dual_partner(nil)
    return [
        ("zero_algebra", document_for(zero_algebra())),
        ("scaling_algebra", document_for(scaling)),
        ("nilpotent_algebra", document_for(nil)),
        ("scaled_nilpotent_algebra", document_for(scaled_nilpotent_algebra())),
        ("invalid_product_candidate", document_for(invalid_product_candidate())),
        ("nilpotent_dendriform", document_for(dendr)),
        ("nilpotent_hessian_form", document_for(nilpotent_hessian_form())),
        ("nilpotent_smatrix", document_for(nilpotent_smatrix())),
        ("scaling_commutator", document_for(sub_adjacent(scaling))),
        ("scaling_adjoint", document_for(adjoint_rep(sub_adjacent(scaling)))),
        ("nilpotent_regular", document_for(regular_rep(nil))),
        ("mixed_action_operator", document_for(mixed_action_operator(dendr))),
        ("nilpotent_coadjoint_pair", document_for(coadjoint_matched_pair(nil, dual))),
        ("nilpotent_lie_pair", document_for(coadjoint_lie_matched_pair(nil, dual))),
        ("nilpotent_triangular", document_for(triangular_bialgebra(nil, nilpotent_smatrix()))),
        ("nilpotent_manin", document_for(standard_manin_triple(nil, dual))),
        ("scaling_twist", document_for(LinearMap.diagonal([1, 2]))),
    ]

