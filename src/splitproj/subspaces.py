"""Orthogonal projectors onto linear and affine subspaces.

A subspace is represented canonically by its orthogonal projector (every
formula downstream is stated in projectors; bases are recovered by SVD when
needed).  The calculus here covers complements, pairwise and iterated
intersections via the Anderson-Duffin pseudoinverse formula

    P_{U cap V} = 2 P_U (P_U + P_V)^+ P_V,

Minkowski sums through complementation, affine translates, and seeded random
instance generation for experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .linalg import NumericalFailure, _kept, pseudoinverse, svd

_SYMMETRY_TOL = 1e-10
_IDEMPOTENCE_TOL = 1e-8


class GenerationError(Exception):
    """Random subspace generation kept producing rank-deficient draws."""


@dataclass
class Subspace:
    """A linear subspace of R^d, stored as its d x d orthogonal projector."""

    projector: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.projector, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.size == 0:
            raise ValueError(f"projector must be square and nonempty, got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("projector contains non-finite entries")
        d = p.shape[0]
        sym_err = np.linalg.norm(p - p.T)
        if sym_err > _SYMMETRY_TOL * d:
            raise ValueError(f"projector not symmetric: ||P - P^T||_F = {sym_err:.3e}")
        idem_err = np.linalg.norm(p @ p - p)
        if idem_err > _IDEMPOTENCE_TOL * d:
            raise ValueError(f"projector not idempotent: ||P^2 - P||_F = {idem_err:.3e}")
        self.projector = p

    @property
    def ambient_dim(self) -> int:
        return self.projector.shape[0]

    def dimension(self) -> int:
        """Dimension of the subspace (numerical rank of the projector)."""
        return self.basis().shape[1]

    def basis(self) -> np.ndarray:
        """Orthonormal basis as a d x k column matrix (k may be 0).

        The rank cutoff is taken relative to 1, the largest singular value
        of every nonzero projector, so that the roundoff of a computed
        zero projector does not count as rank.
        """
        res = svd(self.projector)
        return res.u[:, :_kept(res.singular_values, 1.0)]


@dataclass
class AffineSubspace:
    """An affine subspace ``anchor + direction`` of R^d.

    The stored anchor is canonicalized to the minimal-norm representative
    (its component along the direction space is removed), so two values
    describing the same affine set carry the same anchor.
    """

    anchor: np.ndarray
    direction: Subspace

    def __post_init__(self):
        v = np.asarray(self.anchor, dtype=float).reshape(-1)
        if v.shape[0] != self.direction.ambient_dim:
            raise ValueError(
                f"anchor has dimension {v.shape[0]}, direction lives in "
                f"R^{self.direction.ambient_dim}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("anchor contains non-finite entries")
        self.anchor = v - self.direction.projector @ v

    @property
    def ambient_dim(self) -> int:
        return self.direction.ambient_dim


def from_basis(columns) -> Subspace:
    """Subspace spanned by the columns of a d x k matrix (P = B B^+).

    The columns need not be independent or orthonormal; ``k = 0`` yields
    the zero subspace.
    """
    b = np.asarray(columns, dtype=float)
    if b.ndim != 2 or b.shape[0] == 0:
        raise ValueError(f"basis must be a d x k matrix with d >= 1, got shape {b.shape}")
    d = b.shape[0]
    if b.shape[1] == 0:
        return Subspace(np.zeros((d, d)))
    p = b @ pseudoinverse(b)
    return Subspace(0.5 * (p + p.T))


def complement(s: Subspace) -> Subspace:
    """Orthogonal complement: projector Id - P."""
    return Subspace(np.eye(s.ambient_dim) - s.projector)


def intersect_pair(u: Subspace, v: Subspace) -> Subspace:
    """Projector onto U cap V by the Anderson-Duffin formula.

    The raw product ``2 P_U (P_U + P_V)^+ P_V`` is symmetrized as
    ``(Q + Q^T)/2`` before validation; no eigenvalue clipping is applied,
    so idempotency drift stays visible to the invariant checks.
    """
    _check_same_ambient(u, v)
    q = 2.0 * u.projector @ pseudoinverse(u.projector + v.projector) @ v.projector
    return _computed(q)


def intersect_all(subspaces) -> Subspace:
    """Left fold of `intersect_pair` over a nonempty list of subspaces."""
    subspaces = list(subspaces)
    if not subspaces:
        raise ValueError("need at least one subspace")
    out = subspaces[0]
    for s in subspaces[1:]:
        out = intersect_pair(out, s)
    return out


def sum_projector(u: Subspace, v: Subspace) -> Subspace:
    """Projector onto U + V, via (U + V) = (U^perp cap V^perp)^perp."""
    _check_same_ambient(u, v)
    d = u.ambient_dim
    eye = np.eye(d)
    cu = eye - u.projector
    cv = eye - v.projector
    q = eye - 2.0 * cu @ pseudoinverse(2.0 * eye - u.projector - v.projector) @ cv
    return _computed(q)


def _computed(q: np.ndarray) -> Subspace:
    """Symmetrized formula result; failing a `Subspace` check is numerical."""
    try:
        return Subspace(0.5 * (q + q.T))
    except ValueError as exc:
        raise NumericalFailure(str(exc)) from exc


def project(s: Subspace | AffineSubspace, x) -> np.ndarray:
    """Orthogonal projection of a point: Px, or v + P(x - v) for affine."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != s.ambient_dim:
        raise ValueError(f"point has dimension {x.shape[0]}, expected {s.ambient_dim}")
    if isinstance(s, AffineSubspace):
        return s.anchor + s.direction.projector @ (x - s.anchor)
    return s.projector @ x


def random_subspace(d: int, k: int, rng: np.random.Generator) -> Subspace:
    """Random k-dimensional subspace of R^d from a standard-Gaussian draw.

    Draws a k x d matrix with i.i.d. N(0,1) entries and spans its rows;
    rank-deficient draws (probability zero) are redrawn, up to 100 times.
    """
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    return _spanned_draw(d, k, rng.standard_normal, "Gaussian")


def _spanned_draw(d: int, k: int, draw, law: str) -> Subspace:
    """Span of the rows of ``draw((k, d))``, redrawn while its rank is below k."""
    for _ in range(100):
        s = from_basis(draw((k, d)).T)
        if s.dimension() == k:
            return s
    raise GenerationError(f"could not draw a rank-{k} {law} matrix in R^{d} after 100 tries")


def feasible_dims(d: int, dims) -> bool:
    """Whether every subspace dimension meets the ``1 + ceil(2d/3)`` bound.

    For three random subspaces this guarantees the intersection has
    dimension at least ``d1 + d2 + d3 - 2d >= 1``, so random experiment
    instances have a nontrivial solution set.
    """
    if d < 1:
        raise ValueError("ambient dimension must be >= 1")
    dims = list(dims)
    if not dims:
        raise ValueError("dims must be nonempty")
    bound = 1 + math.ceil(2 * d / 3)
    return all(di >= bound for di in dims)


def to_dict(s: Subspace) -> dict:
    """JSON-ready form ``{"d": d, "basis": [columns...]}`` (column-major).

    Projectors are never serialized; loading recomputes them with
    `subspace_from_dict`, keeping files small and round-trip exact up to
    floating point.
    """
    return {"d": s.ambient_dim, "basis": [col.tolist() for col in s.basis().T]}


def subspace_from_dict(obj: dict) -> Subspace:
    d = _ambient_dim(obj)
    cols = obj.get("basis", [])
    if not cols:
        return Subspace(np.zeros((d, d)))
    b = np.array(cols, dtype=float).T
    if b.shape[0] != d:
        raise ValueError(f"basis columns have length {b.shape[0]}, expected d={d}")
    return from_basis(b)


def _ambient_dim(obj: dict) -> int:
    """The ``"d"`` entry of a JSON object: an integer (not a bool) of at least 1."""
    d = obj["d"]
    if isinstance(d, bool) or not isinstance(d, Integral) or d < 1:
        raise ValueError(f"d must be an integer >= 1, got {d!r}")
    return d


def _check_same_ambient(u: Subspace, v: Subspace) -> None:
    if u.ambient_dim != v.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {u.ambient_dim} vs {v.ambient_dim}"
        )
