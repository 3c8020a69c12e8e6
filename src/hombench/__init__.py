"""Exact-arithmetic workbench for twisted Lie and pre-Lie structures."""

from .errors import (AsymmetricInput, BudgetExceeded, DimensionMismatch,
                     IntertwinerViolation, InvalidInput, NotAnSMatrix, ParseError,
                     Pro1Violation, SingularMap, TwistMismatch, UnknownSlug,
                     UnsupportedKind, WorkbenchError)
from .foundation import (LinearMap, Tensor2, Tensor3, apply_bilinear, basis_vector,
                         frac, map_direct_sum, tensor2_to_map, tensor_product_map,
                         zero_vector)
from .algebras import (BilinearForm, Failure, HomLieAlgebra, HomPreLieAlgebra,
                       ValidationReport, check_morphism, combine_reports,
                       sub_adjacent, validate_hessian, validate_hom_lie,
                       validate_hom_pre_lie, validate_quadratic)
from .representations import (HomLieRep, HomPreLieRep, action_table, adjoint_rep,
                              check_one_cocycle, coadjoint_pre_lie_rep, coboundary_rep,
                              dual_pre_lie_rep, regular_rep, semidirect_pre_lie, shifted_rep,
                              star_maps, tensor_rep, validate_lie_rep, validate_pre_lie_rep)
from .matched import (LieMatchedPair, ManinTriple, PreLieMatchedPair,
                      StandardizedTriple, check_pre_lie_matched_equiv,
                      coadjoint_lie_matched_pair, coadjoint_matched_pair, double_lie,
                      double_pre_lie, standard_manin_triple, standardize_manin_triple,
                      validate_manin_triple, validate_matched_pair_lie,
                      validate_matched_pair_pre_lie)
from .bialgebras import (Bialgebra, check_P_condition, check_equivalence_theorem,
                         check_pro1, check_pro3, coboundary_cocycle,
                         dual_product_from_r, dualize_product, hom_s_bracket,
                         is_hom_s_matrix, r_sharp, triangular_bialgebra,
                         validate_bialgebra)
from .dendriform import (CanonicalSolution, HomLDendriform, InducedDendriform,
                         OOperator, SemidirectSolution, canonical_smatrix,
                         check_smatrix_ooperator_equiv,
                         compatible_dendriform_from_invertible,
                         dendriform_from_hessian, dendriform_from_o_operator,
                         dendriform_rep_check, horizontal, semidirect_smatrix,
                         transpose_dendriform, validate_l_dendriform,
                         validate_o_operator, vertical)
from .documents import (Document, document_for, parse_document, parse_documents,
                        serialize_document, serialize_documents)
from .search import STREAM_SALT, SearchSpec, Stream, run_search, substream
from .checks import (CHECKS, CONSTRUCTIONS, EXPLANATIONS, run_check, run_derive,
                     run_validate)
from . import fixtures

__version__ = "0.1.0"
