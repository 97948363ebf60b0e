"""Resolvent-splitting operators specialized to subspace projections.

Two operators are provided, each acting on a stacked product space and each
defined by its forward pass, with a closed-form projector onto its
fixed-point set:

* the Ryu operator for exactly three subspaces, acting on R^{2d};
* the Malitsky-Tam (MT) operator for n >= 3 subspaces, acting on R^{(n-1)d}.

Iterating the relaxed operator drives the forward-pass blocks (the "shadow")
to a consensus point, which is the orthogonal projection of a start-dependent
point onto the intersection of the subspaces.  Affine problems with nonempty
intersection are handled by the same formulas with translated resolvents and
reduce internally to the parallel linear problem plus a shift.

Block vector layout: governing vectors are contiguous blocks of size d in
index order (z_1, ..., z_{n-1}); forward passes return n blocks.  The
forward pass and the displacement also take a
``(governing_dim, k)`` matrix whose columns are k governing vectors; every
block is then a ``(d, k)`` matrix.  The operators are (affine) linear, so
their matrix forms are the forward pass run on the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import pseudoinverse
from .subspaces import (
    AffineSubspace,
    Subspace,
    _computed,
    complement,
    intersect_all,
    intersect_pair,
    sum_projector,
)

_AFFINE_TOL = 1e-8


class InconsistentAffineError(Exception):
    """The affine subspaces have empty intersection (unsupported)."""


@dataclass
class AffineMap:
    """x -> linear @ x + offset on R^m (T or P_FixT), for a vector or each column of a matrix."""

    linear: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        self.linear = np.asarray(self.linear, dtype=float)
        self.offset = np.asarray(self.offset, dtype=float).reshape(-1)
        m = self.linear.shape
        if len(m) != 2 or m[0] != m[1] or m[0] != self.offset.shape[0]:
            raise ValueError(f"need square linear part matching offset, got {m} and {self.offset.shape}")

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.linear @ x + (self.offset if x.ndim == 1 else self.offset[:, None])


class _SplittingProblem:
    """Shared construction/validation for Ryu and MT problems.

    Each derived form (intersection, step matrix, fixed-point projector) is
    built once, on first use, and kept read-only while the problem lives;
    an affine problem shares the linear forms of its parallel problem.
    """

    def _init_common(self, subspaces, affine_anchors):
        dims = {s.ambient_dim for s in subspaces}
        if len(dims) != 1:
            raise ValueError(f"subspaces have mixed ambient dimensions: {sorted(dims)}")
        self._subspaces = tuple(subspaces)
        d = self.d
        if affine_anchors is None:
            self._anchors = None
            self._resolvent_offsets = tuple(np.zeros(d) for _ in subspaces)
            self._intersection_point = np.zeros(d)
        else:
            anchors = [np.asarray(a, dtype=float).reshape(-1) for a in affine_anchors]
            if len(anchors) != len(subspaces) or any(a.shape[0] != d for a in anchors):
                raise ValueError("need one anchor of dimension d per subspace")
            if not all(np.isfinite(a).all() for a in anchors):
                raise ValueError("anchors must be finite")
            self._anchors = tuple(anchors)
            self._resolvent_offsets = tuple(
                (np.eye(d) - s.projector) @ a for s, a in zip(subspaces, anchors)
            )
            self._intersection_point = _common_point(subspaces, anchors)

    @property
    def subspaces(self) -> tuple:
        return self._subspaces

    @property
    def d(self) -> int:
        return self._subspaces[0].ambient_dim

    @property
    def n(self) -> int:
        return len(self._subspaces)

    @property
    def governing_dim(self) -> int:
        return (self.n - 1) * self.d

    @property
    def is_affine(self) -> bool:
        return self._anchors is not None

    @property
    def intersection_point(self) -> np.ndarray:
        """A point in the intersection (the origin for linear problems)."""
        return self._intersection_point

    def intersection(self) -> Subspace:
        """Projector onto the intersection of the (parallel) subspaces."""
        return self.parallel()._intersection

    def parallel(self) -> _SplittingProblem:
        """The linear problem with the same direction subspaces (self if linear)."""
        return self._parallel if self.is_affine else self

    @cached_property
    def _parallel(self) -> _SplittingProblem:
        if isinstance(self, RyuProblem):
            return RyuProblem(*self._subspaces)
        return MTProblem(self._subspaces)

    @cached_property
    def _intersection(self) -> Subspace:
        out = intersect_all(self._subspaces)
        _read_only(out.projector)
        return out

    @cached_property
    def _step(self) -> tuple:
        """``[F; Id; T - Id]`` stacked, and its offset vector.

        F is the forward pass (shadow = F z + f) and T - Id the
        displacement of the parallel linear problem, both run on the
        identity; the offsets are those of the problem itself at the origin
        (zero for linear problems).  The identity rows copy z exactly,
        since every other term of their sums is zero.
        """
        m = self.governing_dim
        if self.is_affine:
            matrix = self.parallel()._step[0]
            at_origin = forward_blocks(self, np.zeros((m, 1)))
            offset = np.concatenate([np.concatenate(at_origin)[:, 0], np.zeros(m),
                                     displacement(self, at_origin)[:, 0]])
        else:
            blocks = forward_blocks(self, np.eye(m))
            matrix = np.vstack([np.concatenate(blocks), np.eye(m), displacement(self, blocks)])
            offset = np.zeros(matrix.shape[0])
        _read_only(matrix, offset)
        return matrix, offset

    @cached_property
    def _fix_space(self) -> Subspace:
        """Fix T of the (linear) problem, from its closed form."""
        fix = fix_decomposition(self)
        _read_only(fix.projector)
        return fix

    @cached_property
    def _fix(self) -> AffineMap:
        """P_FixT: the linear Fix T projector shifted through a fixed point of T,
        the lifted intersection point (x*, 0) for Ryu or (x*, ..., x*) for MT,
        where every forward block is x* (the origin for linear problems)."""
        x = self._intersection_point
        point = (np.concatenate([x, np.zeros(self.d)]) if isinstance(self, RyuProblem)
                 else np.tile(x, self.n - 1))
        fix = affine_lift(operator_matrix(self), self.parallel()._fix_space, point)
        _read_only(fix.linear, fix.offset)
        return fix

    def resolvent(self, i: int, x: np.ndarray) -> np.ndarray:
        """Projection onto the i-th subspace (affine translate if anchored).

        ``x`` is a vector of R^d or a ``(d, k)`` matrix of columns.
        """
        offset = self._resolvent_offsets[i]
        return self._subspaces[i].projector @ x + (offset if x.ndim == 1 else offset[:, None])


class RyuProblem(_SplittingProblem):
    """Three subspaces of a common R^d, optionally translated (affine)."""

    def __init__(self, u: Subspace, v: Subspace, w: Subspace, affine_anchors=None):
        self._init_common((u, v, w), affine_anchors)

    @classmethod
    def from_affine(cls, a: AffineSubspace, b: AffineSubspace, c: AffineSubspace):
        return cls(a.direction, b.direction, c.direction,
                   affine_anchors=(a.anchor, b.anchor, c.anchor))


class MTProblem(_SplittingProblem):
    """n >= 3 subspaces of a common R^d, optionally translated (affine)."""

    def __init__(self, subspaces, affine_anchors=None):
        subspaces = tuple(subspaces)
        if len(subspaces) < 3:
            raise ValueError(f"need at least 3 subspaces, got {len(subspaces)}")
        self._init_common(subspaces, affine_anchors)

    @classmethod
    def from_affine(cls, affine_subspaces):
        affine_subspaces = list(affine_subspaces)
        return cls([a.direction for a in affine_subspaces],
                   affine_anchors=[a.anchor for a in affine_subspaces])


def _common_point(subspaces, anchors) -> np.ndarray:
    """Least-squares candidate for a common point of affine subspaces.

    Solves the stacked system (Id - P_i) x = (Id - P_i) a_i; rejects the
    problem when the candidate misses any of the affine subspaces by more
    than ``_AFFINE_TOL`` times max(1, largest anchor norm).
    """
    d = subspaces[0].ambient_dim
    eye = np.eye(d)
    comps = [eye - s.projector for s in subspaces]
    stacked = np.vstack(comps)
    rhs = np.concatenate([c @ a for c, a in zip(comps, anchors)])
    x = pseudoinverse(stacked) @ rhs
    tol = _AFFINE_TOL * max(1.0, max(np.linalg.norm(a) for a in anchors))
    for c, a in zip(comps, anchors):
        gap = np.linalg.norm(c @ (x - a))
        if gap > tol:
            raise InconsistentAffineError(
                f"affine subspaces have empty intersection "
                f"(candidate misses one by {gap:.3e})"
            )
    return x


# ---------------------------------------------------------------------------
# Forward passes, operator steps and their matrix forms
# ---------------------------------------------------------------------------

def forward_blocks(problem, z) -> list:
    """Forward-pass blocks [x_1, ..., x_n] at a governing point z.

    ``z`` may also be a ``(governing_dim, k)`` matrix of columns; each
    block is then the ``(d, k)`` matrix of that block over all columns.
    """
    z = _governing(problem, z)
    d = problem.d
    if isinstance(problem, RyuProblem):
        x, y = z[:d], z[d:]
        x1 = problem.resolvent(0, x)
        x2 = problem.resolvent(1, x1 + y)
        x3 = problem.resolvent(2, x1 - x + x2 - y)
        return [x1, x2, x3]
    n = problem.n
    zs = [z[i * d:(i + 1) * d] for i in range(n - 1)]
    xs = [problem.resolvent(0, zs[0])]
    for i in range(1, n - 1):
        xs.append(problem.resolvent(i, xs[i - 1] + zs[i] - zs[i - 1]))
    xs.append(problem.resolvent(n - 1, xs[0] + xs[n - 2] - zs[n - 2]))
    return xs


def displacement(problem, blocks) -> np.ndarray:
    """T z - z expressed through the forward blocks at z (vector or columns)."""
    if isinstance(problem, RyuProblem):
        x1, x2, x3 = blocks
        return np.concatenate([x3 - x1, x3 - x2])
    return np.concatenate([blocks[i + 1] - blocks[i] for i in range(len(blocks) - 1)])


def operator_matrix(problem) -> AffineMap:
    """The splitting operator as the affine map T z = (Id + D) z + d0.

    D and d0 are the displacement rows of the problem's step matrix: for
    affine problems the linear part is that of the parallel linear problem
    and the offset is the image of the origin.
    """
    matrix, offset = problem._step
    m = problem.governing_dim
    return AffineMap(np.eye(m) + matrix[-m:], offset[-m:])


# ---------------------------------------------------------------------------
# Fixed-point projectors
# ---------------------------------------------------------------------------

def ryu_fix_projector(p: RyuProblem) -> Subspace:
    """Closed-form projector onto the fixed-point set of the Ryu operator.

    Fix T decomposes orthogonally as (Z x {0}) + E where Z is the
    intersection and E pairs complement directions whose sum lies in the
    third complement; E is realized as an intersection of two explicit
    projectors in R^{2d}.
    """
    pu, pv, pw = (s.projector for s in p.subspaces)
    d = p.d
    eye = np.eye(d)
    pz = p.intersection().projector

    z_block = np.zeros((2 * d, 2 * d))
    z_block[:d, :d] = pz

    left = np.zeros((2 * d, 2 * d))
    left[:d, :d] = eye - pu
    left[d:, d:] = eye - pv

    p_diag = 0.5 * np.block([[eye, eye], [eye, eye]])
    w_axis = np.zeros((2 * d, 2 * d))
    w_axis[d:, d:] = eye - pw
    right = sum_projector(complement(Subspace(p_diag)), Subspace(w_axis))

    e_proj = intersect_pair(Subspace(left), right).projector
    return _computed(z_block + e_proj)


def mt_fix_projector(p: MTProblem) -> Subspace:
    """Closed-form projector onto the fixed-point set of the MT operator.

    Fix T decomposes orthogonally as D + E: D is the diagonal copy of the
    intersection (its projector averages the blocks and applies the
    intersection projector), and E is ran(Psi) cut with the last block's
    complement, where Psi is the partial-sum operator over the complement
    spaces.  ran(Psi) is realized as the range projector S S^+ of the
    block lower-triangular matrix S with (i, j) block Id - P_j for j <= i.
    """
    n, d = p.n, p.d
    m = (n - 1) * d
    eye = np.eye(d)
    pz = p.intersection().projector
    z_block = np.tile(pz, (n - 1, n - 1)) / (n - 1)

    s = np.zeros((m, m))
    for i in range(n - 1):
        for j in range(i + 1):
            s[i * d:(i + 1) * d, j * d:(j + 1) * d] = eye - p.subspaces[j].projector
    p_ran = s @ pseudoinverse(s)
    ran_psi = Subspace(0.5 * (p_ran + p_ran.T))

    last_axis = np.eye(m)
    last_axis[-d:, -d:] = eye - p.subspaces[n - 1].projector

    e_proj = intersect_pair(ran_psi, Subspace(last_axis)).projector
    return _computed(z_block + e_proj)


def fix_decomposition(problem) -> Subspace:
    return (ryu_fix_projector(problem) if isinstance(problem, RyuProblem)
            else mt_fix_projector(problem))


def affine_lift(amap: AffineMap, fix: Subspace, point) -> AffineMap:
    """P_FixT for T x = L x + b, from P = P_FixL and a fixed point of T.

    Fix T = point + Fix L, so P_FixT(x) = P x + (point - P point).  T has
    a fixed point iff b lies in ran(Id - L), the complement of
    ker(Id - L^T), which is Fix L because L is nonexpansive.  So
    ``||P b|| > _AFFINE_TOL * max(1, ||b||)`` means no fixed point exists
    (empty affine intersection) and is rejected.
    """
    gap = np.linalg.norm(fix.projector @ amap.offset)
    bound = _AFFINE_TOL * max(1.0, float(np.linalg.norm(amap.offset)))
    if gap > bound:
        raise InconsistentAffineError(
            f"no fixed point: ||P_FixL b|| = {gap:.3e} exceeds {bound:.1e} "
            "(the affine intersection is empty)"
        )
    return AffineMap(fix.projector, point - fix.projector @ point)


def _read_only(*arrays) -> None:
    for a in arrays:
        a.setflags(write=False)


def _governing(p, z) -> np.ndarray:
    """A governing vector, or a ``(governing_dim, k)`` matrix of k such columns."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        z = z.reshape(-1)
    if z.shape[0] != p.governing_dim:
        raise ValueError(f"governing vector has dimension {z.shape[0]}, expected {p.governing_dim}")
    return z
