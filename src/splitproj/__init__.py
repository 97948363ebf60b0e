"""Projection onto intersections of subspaces by resolvent splitting.

The package computes best approximations onto intersections of linear or
affine subspaces with two splitting operators (the three-subspace Ryu
operator and the general-n Malitsky-Tam operator), provides their matrix
representations and closed-form fixed-point projectors, and bounds the
linear convergence rate of the relaxed iteration from both sides.
"""

from .driver import (
    IterationConfig,
    IterationTrace,
    RateBounds,
    asymptotic_contraction,
    batch_iteration_counts,
    governing_limit,
    iterate,
    iteration_counts,
    orbit,
    rate_bounds,
    rate_curve,
    shadow,
    shadow_limit,
    tail_contraction,
)
from .linalg import (
    NumericalFailure,
    SvdResult,
    operator_norm,
    pseudoinverse,
    rank,
    spectral_radius,
    svd,
)
from .splitting import (
    AffineMap,
    FixDecomposition,
    InconsistentAffineError,
    MTProblem,
    RyuProblem,
    affine_lift,
    fix_decomposition,
    forward_blocks,
    mt_fix_projector,
    operator_matrix,
    ryu_fix_projector,
)
from .subspaces import (
    AffineSubspace,
    GenerationError,
    Subspace,
    complement,
    feasible_dims,
    from_basis,
    intersect_all,
    intersect_pair,
    project,
    random_subspace,
    subspace_from_dict,
    sum_projector,
    to_dict,
)

__version__ = "0.1.0"
