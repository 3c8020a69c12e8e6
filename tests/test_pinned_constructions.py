"""Serialized outputs of the table-building constructions on one twisted input,
pinned so that a rewrite of how they assemble their tables cannot change them.

The input is the truncated Novikov algebra x^i o x^j = j x^(i+j) on x^1..x^3,
Yau-twisted by the automorphism alpha = diag((-1)^i), and the symmetric
solution r = 2 e2 (x) e2 + e3 (x) e3, which has rank 2.
"""

from fractions import Fraction

from hombench import (BilinearForm, HomPreLieAlgebra, HomPreLieRep, LinearMap, ManinTriple,
                      OOperator, Tensor2, Tensor3, apply_bilinear, coadjoint_pre_lie_rep,
                      compatible_dendriform_from_invertible, dendriform_from_o_operator,
                      document_for, dual_product_from_r, is_hom_s_matrix, map_direct_sum,
                      r_sharp, serialize_documents, shifted_rep, standard_manin_triple,
                      standardize_manin_triple, validate_manin_triple, validate_o_operator)

HALF = Fraction(1, 2)


def twisted_novikov():
    alpha = LinearMap.diagonal([-1, 1, -1])
    product = Tensor3.from_entries((3, 3, 3), {(0, 0, 1): 1, (0, 1, 2): -2, (1, 0, 2): -1})
    return HomPreLieAlgebra(product, alpha)


def solution():
    return Tensor2.from_entries(3, 3, {(1, 1): 2, (2, 2): 1})


def rank_deficient_operator(a, r):
    """The sharp of r composed with the inverse dual twist, over the coadjoint actions."""
    return OOperator(coadjoint_pre_lie_rep(a), r_sharp(r) @ a.twist.inverse().transpose())


def invertible_operator(a):
    """The identity over half the once-shifted regular actions: e_i . e_j splits
    evenly into x |> y = (x . y)/2 and x <| y = -(y . x)/2."""
    shifted = shifted_rep(a, 1)
    return OOperator(HomPreLieRep(a, a.dim, a.twist, [m.scale(HALF) for m in shifted.left],
                                  [m.scale(HALF) for m in shifted.right]),
                     LinearMap.identity(a.dim))


def moved_manin_triple(mt):
    """The triple in the basis x' = P x with P = 1 (+) Q, which moves the second slot."""
    n = mt.first_dim
    q = LinearMap(((1, 1, 0), (0, 1, 0), (0, 0, 2)))
    p = map_direct_sum(LinearMap.identity(n), q)
    p_inv = p.inverse()
    dim = 2 * n
    items = {}
    for i in range(dim):
        for j in range(dim):
            vec = p.apply(apply_bilinear(mt.total.product, p_inv.column(i), p_inv.column(j)))
            items.update({(i, j, k): c for k, c in enumerate(vec) if c != 0})
    form = p_inv.transpose() @ LinearMap(mt.form.matrix.entries) @ p_inv
    total = HomPreLieAlgebra(Tensor3.from_entries((dim, dim, dim), items), p @ mt.total.twist @ p_inv)
    return ManinTriple(total, BilinearForm(form.entries, "skew"), n, n)


def test_inputs_are_what_the_pins_describe():
    a = twisted_novikov()
    r = solution()
    assert is_hom_s_matrix(a, r)
    assert not r_sharp(r).is_invertible()
    assert validate_o_operator(rank_deficient_operator(a, r)).valid
    assert validate_o_operator(invertible_operator(a)).valid
    mt = moved_manin_triple(standard_manin_triple(a, dual_product_from_r(a, r)))
    assert validate_manin_triple(mt).valid


DUAL_PRODUCT = """\
kind: hom_pre_lie
dim: 3
twist:
-1 0 0
0 1 0
0 0 -1
product:
1 2 0 -2
2 1 0 -4
"""

O_OPERATOR_SPLIT = """\
kind: dendriform
dim: 3
twist:
-1 0 0
0 1 0
0 0 -1
left:
1 2 0 -2
right:
1 2 0 4
---
kind: dendriform
dim: 2
twist:
1 0
0 -1
left:
right:
"""

INVERTIBLE_SPLIT = """\
kind: dendriform
dim: 3
twist:
-1 0 0
0 1 0
0 0 -1
left:
0 0 1 1/2
0 1 2 -1
1 0 2 -1/2
right:
0 0 1 -1/2
0 1 2 1/2
1 0 2 1
"""

STANDARDIZED = """\
kind: linear_map
rows: 6
cols: 6
matrix:
1 0 0 0 0 0
0 1 0 0 0 0
0 0 1 0 0 0
0 0 0 1 -1 0
0 0 0 0 1 0
0 0 0 0 0 1/2
---
kind: manin_triple
first_dim: 3
second_dim: 3
twist:
-1 0 0 0 0 0
0 1 0 0 0 0
0 0 -1 0 0 0
0 0 0 -1 0 0
0 0 0 0 1 0
0 0 0 0 0 -1
product:
0 0 1 1
0 1 2 -2
0 4 2 -4
0 5 1 2
0 5 4 -1
1 0 2 -1
1 5 3 -1
4 0 2 -2
4 0 3 -1
4 5 3 -2
5 0 1 -2
5 0 4 1
5 1 3 -2
5 4 3 -4
form:
0 0 0 -1 0 0
0 0 0 0 -1 0
0 0 0 0 0 -1
1 0 0 0 0 0
0 1 0 0 0 0
0 0 1 0 0 0
"""


def test_dual_product_from_r_is_pinned():
    a = twisted_novikov()
    assert serialize_documents([document_for(dual_product_from_r(a, solution()))]) == DUAL_PRODUCT


def test_dendriform_from_o_operator_is_pinned():
    a = twisted_novikov()
    built = dendriform_from_o_operator(rank_deficient_operator(a, solution()))
    assert built.on_image.dim == 2
    assert serialize_documents([document_for(built.on_space), document_for(built.on_image)]) \
        == O_OPERATOR_SPLIT


def test_compatible_dendriform_from_invertible_is_pinned():
    d = compatible_dendriform_from_invertible(invertible_operator(twisted_novikov()))
    assert serialize_documents([document_for(d)]) == INVERTIBLE_SPLIT


def test_standardize_manin_triple_is_pinned():
    a = twisted_novikov()
    mt = moved_manin_triple(standard_manin_triple(a, dual_product_from_r(a, solution())))
    built = standardize_manin_triple(mt)
    assert serialize_documents([document_for(built.iso), document_for(built.standard)]) == STANDARDIZED
