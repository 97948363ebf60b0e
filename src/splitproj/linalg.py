"""Dense real linear-algebra kernels.

Thin wrappers around LAPACK (via numpy.linalg): thin SVD, Moore-Penrose
pseudoinverse, operator norm, spectral radius, and numerical rank.
Everything in this package that carries a dagger, a rank or a basis goes
through here.  Each threshold of the package makes one decision:

=====================  ===============================  =========================================
decision               threshold                        where
=====================  ===============================  =========================================
projector rank         singular values above 1/2        `subspaces._bases`: `Subspace.dimension`
                                                        and `basis`, the instance rank check,
                                                        dim Z^perp, the rate kernel's Fix^perp
general-matrix rank    ``DEFAULT_TOL * sigma_max``      `_kept`: `pseudoinverse`, `rank`, spans
                       (relative)                       of bases, the affine common point,
                                                        Anderson-Duffin's (P_U + P_V)^+
                       ``DEFAULT_TOL * max(sigma_max,   MT's S (`_e_part`), whose blocks are
                       1)``                             complements of projectors: a zero S is
                                                        roundoff, not rank
projector checks       ``||P - P^T||_F <= 1e-10 d``,    `subspaces._checked`: a `Subspace`, and
                       ``||P^2 - P||_F <= 1e-8 d``      every computed projector
affine consistency     1e-8 times max(1, anchor or      `splitting._common_point` and
                       offset norm)                     `affine_lift`: whether a point or a
                                                        fixed point exists
rate-bound order       lower <= upper + 1e-9            `driver.RateBounds`
skip soundness         eigenpair residual <= 64 eps     `driver._skips`: an eigenpair bound
                       times the matrix's norm          counts
rounding floor         2 tol < 1e5 eps ||x_0||          `driver._skips`: a column gets no skip
=====================  ===============================  =========================================

All public functions are pure and accept any array-like that converts to a
finite 2-D float array; they are safe to call concurrently.  The private
stacked forms give each item of a stack the bits of its own 2-D call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Relative cutoff for treating singular values as zero.
DEFAULT_TOL = 1e-12


class NumericalFailure(Exception):
    """The underlying eigenvalue/SVD iteration failed to converge."""


@dataclass
class SvdResult:
    """Thin singular value decomposition ``a = u @ diag(s) @ vt``.

    ``u`` has orthonormal columns, ``vt`` orthonormal rows, and
    ``singular_values`` is nonincreasing and nonnegative.
    """

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def svd(a) -> SvdResult:
    """Thin SVD of a dense real matrix.

    LAPACK's divide-and-conquer driver occasionally fails to converge on
    rank-deficient input; the SVD of the transpose, whose factors are the
    swapped and transposed ones, is then computed instead.

    Raises
    ------
    NumericalFailure
        If the LAPACK SVD iteration does not converge within its
        internal iteration budget, for the matrix nor for its transpose.
    """
    a = _as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        try:
            v, s, ut = np.linalg.svd(a.T, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(
                f"SVD did not converge for {a.shape[0]}x{a.shape[1]} matrix"
            ) from exc
        u, vt = ut.T, v.T
    return SvdResult(u=u, singular_values=s, vt=vt)


def _kept(s: np.ndarray, scale: float = 0.0) -> np.ndarray:
    """Which of the nonincreasing singular values ``s`` (along the last
    axis) of a general matrix lie above ``DEFAULT_TOL`` times the larger of
    ``s[0]`` and ``scale``.  A projector's rank is not read here, but at 1/2
    (`subspaces._bases`).
    """
    return s > DEFAULT_TOL * np.maximum(s[..., :1], scale)


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose inverse via SVD with the relative rank cutoff.

    Singular values ``sigma_i <= DEFAULT_TOL * sigma_max`` are treated as
    zero.  The result satisfies the four Penrose identities to within
    roundoff.  This is the one-matrix call of `_pinv_stack`.
    """
    return _pinv_stack(_as_matrix(a)[None])[0]


def _svds(a: np.ndarray) -> tuple:
    """``(u, s, vt)``, the thin SVDs of an ``(S, m, n)`` stack from one stacked
    call; if that fails, each matrix goes through `svd` and its transpose retry."""
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError:
        return tuple(map(np.stack, zip(*((r.u, r.singular_values, r.vt) for r in map(svd, a)))))


def _pinv_stack(a: np.ndarray, scale: float = 0.0) -> np.ndarray:
    """The Moore-Penrose inverse of each matrix of an ``(S, m, n)`` stack,
    with the cutoff of `_kept` at ``scale``, from `_svds`."""
    u, s, vt = _svds(a)
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=_kept(s, scale))
    return (np.swapaxes(vt, 1, 2) * inv[:, None, :]) @ np.swapaxes(u, 1, 2)


def operator_norm(a) -> float:
    """Largest singular value (the spectral norm)."""
    return float(svd(a).singular_values[0])


def _operator_norms(stack: np.ndarray) -> np.ndarray:
    """`operator_norm` of each matrix of a finite ``(k, m, m)`` stack.

    sigma_max(A) is the square root of the largest eigenvalue of A^T A, from
    one batched symmetric eigensolve: ~eps relative accuracy while sigma_max^2
    neither overflows nor underflows.  If the solve fails to converge, each
    matrix is retried through `svd` and its transpose fallback.
    """
    try:
        gram = np.swapaxes(stack, 1, 2) @ stack
        return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))
    except np.linalg.LinAlgError:
        return np.array([svd(a).singular_values[0] for a in stack])


def _norms(rows) -> np.ndarray:
    """The Euclidean norm of each row of a matrix, from one stacked product
    whose items are the dot products that `np.linalg.norm` makes for a row."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus of a square matrix.

    Uses the full nonsymmetric eigenvalue solver (Hessenberg reduction
    followed by shifted QR with 2x2 deflation blocks), not power
    iteration: the operators analysed in this package are nonsymmetric
    and routinely have complex conjugate eigenvalue pairs of equal
    modulus.
    """
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"spectral_radius needs a square matrix, got {a.shape}")
    return float(np.max(np.abs(_eigvals(a))))


def _eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a finite square matrix, or of each of a stack."""
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(
            f"eigenvalue QR iteration did not converge for "
            f"{a.shape[-2]}x{a.shape[-1]} matrix"
        ) from exc


def rank(a) -> int:
    """Number of singular values above ``DEFAULT_TOL * sigma_max``."""
    return int(np.count_nonzero(_kept(svd(a).singular_values)))
