"""Orthogonal projectors onto linear and affine subspaces.

A subspace is represented canonically by its orthogonal projector (every
formula downstream is stated in projectors; bases are recovered by SVD when
needed).  The calculus here covers complements, pairwise and iterated
intersections via the Anderson-Duffin pseudoinverse formula

    P_{U cap V} = 2 P_U (P_U + P_V)^+ P_V,

Minkowski sums through complementation, affine translates, and seeded random
instance generation for experiments.  Each formula runs on ``(S, d, d)``
stacks of projectors, checked at once; the public functions are its
one-item calls.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .linalg import NumericalFailure, _as_matrix, _kept, _norms, _pinv_stack, _svds, svd

_SYMMETRY_TOL = 1e-10
_IDEMPOTENCE_TOL = 1e-8


class GenerationError(Exception):
    """Random subspace generation kept producing rank-deficient draws."""


@dataclass
class Subspace:
    """A linear subspace of R^d, stored as its d x d orthogonal projector."""

    projector: np.ndarray

    def __post_init__(self):
        self.projector = _checked(self.projector)

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
        return res.u[:, :np.count_nonzero(_kept(res.singular_values, 1.0))]


def _checked(p, stacked: bool = False) -> np.ndarray:
    """``p`` as a float array, after the checks of a `Subspace` projector.

    ``p`` is a d x d matrix, or with ``stacked`` a ``(..., d, d)`` stack,
    all checked at once; the ValueError names the first matrix that fails
    if the stack holds more than one.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 and not (stacked and p.ndim > 2) or p.shape[-1] != p.shape[-2] or p.size == 0:
        raise ValueError(f"projector must be square and nonempty, got {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("projector contains non-finite entries")
    d = p.shape[-1]
    flat = p.reshape(-1, d, d)
    k = len(flat)
    err = _norms(np.concatenate((flat - flat.transpose(0, 2, 1), flat @ flat - flat)).reshape(2 * k, -1))
    asym = err[:k] > _SYMMETRY_TOL * d
    bad = asym | (err[k:] > _IDEMPOTENCE_TOL * d)
    if bad.any():
        i = int(bad.argmax())
        item = f" (matrix {i} of the stack)" if k > 1 else ""
        if asym[i]:
            raise ValueError(f"projector not symmetric: ||P - P^T||_F = {err[i]:.3e}{item}")
        raise ValueError(f"projector not idempotent: ||P^2 - P||_F = {err[k + i]:.3e}{item}")
    return p


def _unchecked(p: np.ndarray) -> Subspace:
    """The `Subspace` of a projector that has passed `_checked`, not checked again."""
    s = object.__new__(Subspace)
    s.projector = p
    return s


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
    the zero subspace.  This is the one-matrix call of `_spans`.
    """
    b = np.asarray(columns, dtype=float)
    if b.ndim != 2 or b.shape[0] == 0:
        raise ValueError(f"basis must be a d x k matrix with d >= 1, got shape {b.shape}")
    d = b.shape[0]
    if b.shape[1] == 0:
        return Subspace(np.zeros((d, d)))
    return _unchecked(_spans(_as_matrix(b)[None])[0])


def _spans(b: np.ndarray, scale: float = 0.0) -> np.ndarray:
    """The span projectors B B^+ of an ``(S, d, k)`` stack of bases, with the
    rank cutoff of `_kept` at ``scale``, checked as computed projectors."""
    return _computed(b @ _pinv_stack(b, scale))


def complement(s: Subspace) -> Subspace:
    """Orthogonal complement: projector Id - P."""
    return Subspace(np.eye(s.ambient_dim) - s.projector)


def intersect_pair(u: Subspace, v: Subspace) -> Subspace:
    """Projector onto U cap V by the Anderson-Duffin formula (`_meet`)."""
    _check_same_ambient(u, v)
    return _unchecked(_meet(u.projector[None], v.projector[None])[0])


def _meet(pu: np.ndarray, pv: np.ndarray) -> np.ndarray:
    """Projectors onto U cap V for stacks of P_U and P_V, by Anderson-Duffin.

    The raw product ``2 P_U (P_U + P_V)^+ P_V`` is symmetrized as
    ``(Q + Q^T)/2`` before validation; no eigenvalue clipping is applied,
    so idempotency drift stays visible to the invariant checks.
    """
    return _computed(2.0 * pu @ _pinv_stack(pu + pv) @ pv)


def intersect_all(subspaces) -> Subspace:
    """Left fold of `intersect_pair` over a nonempty list of subspaces."""
    subspaces = list(subspaces)
    if not subspaces:
        raise ValueError("need at least one subspace")
    for s in subspaces[1:]:
        _check_same_ambient(subspaces[0], s)
    return _unchecked(_intersections([s.projector[None] for s in subspaces])[0])


def _intersections(stacks) -> np.ndarray:
    """Left fold of `_meet` over ``(S, d, d)`` projector stacks, one per subspace."""
    return functools.reduce(_meet, stacks)


def sum_projector(u: Subspace, v: Subspace) -> Subspace:
    """Projector onto U + V, via (U + V) = (U^perp cap V^perp)^perp (`_sums`)."""
    _check_same_ambient(u, v)
    return _unchecked(_sums(u.projector, v.projector[None])[0])


def _sums(pu: np.ndarray, pv: np.ndarray) -> np.ndarray:
    """Projectors onto U + V, (U^perp cap V^perp)^perp, for stacks (or one matrix) of P_U, P_V."""
    eye = np.eye(pu.shape[-1])
    return _computed(eye - _meet(eye - pu, eye - pv))


def _computed(q: np.ndarray) -> np.ndarray:
    """Symmetrized formula results (a matrix or a stack); failing a `Subspace`
    check is numerical."""
    try:
        return _checked(0.5 * (q + np.swapaxes(q, -1, -2)), stacked=True)
    except ValueError as exc:
        raise NumericalFailure(str(exc)) from exc


def _dimensions(p: np.ndarray) -> np.ndarray:
    """`Subspace.dimension` of each projector of a checked ``(S, d, d)`` stack."""
    return np.count_nonzero(_kept(_svds(p)[1], 1.0), axis=-1)


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
    """Whether every subspace dimension lies in ``[1 + ceil(2d/3), d]``.

    For three random subspaces the lower bound guarantees the intersection
    has dimension at least ``d1 + d2 + d3 - 2d >= 1``, so random experiment
    instances have a nontrivial solution set.
    """
    if d < 1:
        raise ValueError("ambient dimension must be >= 1")
    dims = list(dims)
    if not dims:
        raise ValueError("dims must be nonempty")
    bound = 1 + math.ceil(2 * d / 3)
    return all(bound <= di <= d for di in dims)


def to_dict(s: Subspace) -> dict:
    """JSON-ready form ``{"d": d, "basis": [columns...]}`` (column-major).

    Projectors are never serialized; loading recomputes them with
    `subspace_from_dict`, keeping files small and round-trip exact up to
    floating point.
    """
    return {"d": s.ambient_dim, "basis": [col.tolist() for col in s.basis().T]}


def subspace_from_dict(obj: dict) -> Subspace:
    d = _ambient_dim(obj)
    cols = _numbers(obj.get("basis", []), "basis")
    if not len(cols):
        return Subspace(np.zeros((d, d)))
    b = cols.T
    if b.shape[0] != d:
        raise ValueError(f"basis columns have length {b.shape[0]}, expected d={d}")
    return from_basis(b)


def _integer(value) -> bool:
    """Whether ``value`` is an integer (of Python or numpy) and not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _numbers(value, name: str) -> np.ndarray:
    """``value`` as a float array, after checking that it is a number or an array
    of them, as a JSON file gives them (a string, boolean or null is not one)."""
    array, flat = np.asarray(value), [value]
    for _ in range(array.ndim if ((array == 0) | (array == 1)).any() else 0):  # a bool reads 0 or 1
        flat = itertools.chain.from_iterable(flat)
    if array.dtype.kind not in "iuf" or bool in set(map(type, flat)):
        raise ValueError(f"{name} must hold only numbers")
    return array.astype(float)


def _ambient_dim(obj: dict) -> int:
    """The ``"d"`` entry of a JSON object: an integer (not a bool) of at least 1."""
    d = obj["d"]
    if not _integer(d) or d < 1:
        raise ValueError(f"d must be an integer >= 1, got {d!r}")
    return d


def _check_same_ambient(u: Subspace, v: Subspace) -> None:
    if u.ambient_dim != v.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {u.ambient_dim} vs {v.ambient_dim}"
        )
