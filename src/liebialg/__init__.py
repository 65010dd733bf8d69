"""Exact symbolic workbench for Lie bialgebra structures on the centrally
extended (1+1) Schrodinger algebra."""

from .symkernel import Q, PolyExpr, nullspace, span_equal, UnitError
from .liealg import (LieAlgebra, AlgElement, WedgeElement, TensorElement,
                     bracket, jacobi_residual, ad_tensor, schouten,
                     invariant_tensors, homomorphism_residuals)
from .bialgebra import (Cocommutator, BialgebraFamily, delta_from_r,
                        cocycle_residual, cocycle_solve, cojacobi_constraints,
                        coboundary_match, rmatrix_family, classify_point,
                        automorphism_transform, specialize, impose_primitive,
                        InconsistencyError, InfeasibleSpecialization)
from .embed import (closure_check, match_sub_bialgebra, proposition_rmatrix,
                    EmbeddingReport)
from .hopfdeform import DeformedAlgebra, HopfCase, build_case
from . import schrodinger, sklyanin, formats, families, verify

__version__ = "0.1.0"
