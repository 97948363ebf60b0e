"""Resolvent-splitting operators specialized to subspace projections.

Two operators act on a stacked product space, each with a closed-form
projector onto its fixed-point set: the Ryu operator for exactly three
subspaces, on R^{2d}, and the Malitsky-Tam (MT) operator for n >= 3, on
R^{(n-1)d}.  Each problem class describes its operator once, as data
(`_terms`): its forward and displacement blocks as signed sums of the blocks
x_i and z_i in the paper's notation, which one evaluator (`_signed_sum`)
runs, and a 0/1 lift vector l with Fix T ∩ Z^{n-1} = l ⊗ Z for the
intersection Z, which every formula on Z reads.  Fix T is that copy of Z
plus a part E of (Z^perp)^{n-1}, which the class's closed form (`_e_part`)
builds there.  Affine problems with nonempty intersection are handled by
the same formulas with translated resolvents and reduce internally to the
parallel linear problem plus a shift.

Block vector layout: governing vectors are contiguous blocks of size d in
index order (z_1, ..., z_{n-1}); forward passes return n blocks.  The forward
pass and the displacement also take a ``(governing_dim, k)`` matrix of k
governing columns, each block then a ``(d, k)`` matrix.  The operators are
(affine) linear: their matrix forms are the forward pass on the identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .linalg import _kept, _svds, pseudoinverse
from .subspaces import (
    AffineSubspace,
    Subspace,
    _checked,
    _computed,
    _meet,
    _spans,
    _sums,
    _unchecked,
    complement,
    intersect_all,
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
    an affine problem shares the linear forms of its parallel problem.  The
    experiment harness fills the intersection and Fix T of many problems
    from stacked formulas instead.
    """

    name: str
    _arity: int | None = None  # the number of subspaces taken (None: any n >= 3)

    def _init_common(self, subspaces, affine_anchors):
        if len(subspaces) < 3:
            raise ValueError(f"need at least 3 subspaces, got {len(subspaces)}")
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

    @classmethod
    def _of(cls, subspaces, affine_anchors=None) -> _SplittingProblem:
        return cls(subspaces, affine_anchors=affine_anchors)

    @classmethod
    def from_affine(cls, affine_subspaces):
        affine_subspaces = list(affine_subspaces)
        return cls._of([a.direction for a in affine_subspaces],
                       affine_anchors=[a.anchor for a in affine_subspaces])

    @property
    def _lift(self) -> np.ndarray:
        """The lift vector l of `_terms`, as floats: Fix T ∩ Z^{n-1} = l ⊗ Z."""
        return np.array(self._terms(self.n)[2], dtype=float)

    @cached_property
    def _parallel(self) -> _SplittingProblem:
        return self._of(self._subspaces)

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
    def _fix_split(self) -> tuple:
        """``(W, r, E_r)`` of `_fix_parts`, which Fix T and the rate bounds share."""
        return _fix_parts([self])[0]

    @cached_property
    def _fix_space(self) -> Subspace:
        """Fix T of the (linear) problem, from its closed form."""
        fix = fix_decomposition(self)
        _read_only(fix.projector)
        return fix

    @cached_property
    def _fix(self) -> AffineMap:
        """P_FixT: the linear Fix T projector shifted through a fixed point of T,
        x* lifted into the blocks where l = 1 (0 elsewhere), where every forward
        block is x* (the origin for linear problems)."""
        point = np.zeros((self.n - 1, self.d))
        point[self._lift == 1] = self._intersection_point
        fix = affine_lift(operator_matrix(self), self.parallel()._fix_space, point.ravel())
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

    name = "ryu"
    _arity = 3

    def __init__(self, u: Subspace, v: Subspace, w: Subspace, affine_anchors=None):
        self._init_common((u, v, w), affine_anchors)

    @classmethod
    def _of(cls, subspaces, affine_anchors=None) -> RyuProblem:
        return cls(*subspaces, affine_anchors=affine_anchors)

    @staticmethod
    def _terms(n) -> tuple:
        """``(forward, displacement, l)``: x_i = P_i(forward[i - 1]) and the
        blocks of T z - z as sums of the blocks x_i and z_i, and the lift vector."""
        return ("z1", "x1+z2", "x1-z1+x2-z2"), ("x3-x1", "x3-x2"), (1, 0)

    @staticmethod
    def _e_part(pu, pv, pw) -> np.ndarray:
        """The E part of `ryu_fix_projector`, the meet of two explicit projectors,
        from ``(S, d, d)`` stacks of P_U, P_V, P_W."""
        S, d = pu.shape[:2]
        eye = np.eye(d)
        left = np.zeros((S, 2 * d, 2 * d))
        left[:, :d, :d] = eye - pu
        left[:, d:, d:] = eye - pv
        p_diag = 0.5 * np.block([[eye, eye], [eye, eye]])
        w_axis = np.zeros((S, 2 * d, 2 * d))
        w_axis[:, d:, d:] = eye - pw
        right = _sums(complement(Subspace(p_diag)).projector, _checked(w_axis, stacked=True))
        return _meet(_checked(left, stacked=True), right)

    @classmethod
    def from_affine(cls, a: AffineSubspace, b: AffineSubspace, c: AffineSubspace):
        return super().from_affine((a, b, c))


class MTProblem(_SplittingProblem):
    """n >= 3 subspaces of a common R^d, optionally translated (affine)."""

    name = "mt"

    def __init__(self, subspaces, affine_anchors=None):
        self._init_common(tuple(subspaces), affine_anchors)

    @staticmethod
    @cache
    def _terms(n) -> tuple:
        """`RyuProblem._terms` of the MT operator on n subspaces."""
        return (("z1", *(f"x{i - 1}+z{i}-z{i - 1}" for i in range(2, n)), f"x1+x{n - 1}-z{n - 1}"),
                tuple(f"x{i + 1}-x{i}" for i in range(1, n)), (1,) * (n - 1))

    @staticmethod
    def _e_part(*ps) -> np.ndarray:
        """The E part of `mt_fix_projector` from ``(S, d, d)`` stacks of each P_i; ran(Psi)
        is the range projector S S^+ of the block lower-triangular S with (i, j) block Id - P_j."""
        n = len(ps)
        S, d = ps[0].shape[:2]
        m = (n - 1) * d
        eye = np.eye(d)
        s = np.zeros((S, m, m))
        for i in range(n - 1):
            for j in range(i + 1):
                s[:, i * d:(i + 1) * d, j * d:(j + 1) * d] = eye - ps[j]
        ran_psi = _spans(s, 1.0)  # the blocks of S are complements of projectors
        last_axis = np.tile(np.eye(m), (S, 1, 1))
        last_axis[:, -d:, -d:] = eye - ps[n - 1]
        return _meet(ran_psi, _checked(last_axis, stacked=True))


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

_parse = cache(re.compile(r"([+-]?)([xz])(\d+)").findall)  # (sign, x or z, index) terms


def _signed_sum(terms: str, blocks: dict):
    """The signed sum ``terms`` of blocks, such as "x1-z1+x2-z2", left to right from
    the first block itself (0 + x would turn a -0.0 of x into 0.0)."""
    total = None
    for sign, kind, i in _parse(terms):
        block = blocks[kind][int(i) - 1]
        total = block if total is None else total - block if sign == "-" else total + block
    return total


def forward_blocks(problem, z) -> list:
    """Forward-pass blocks [x_1, ..., x_n] at a governing point z, or their
    ``(d, k)`` matrices at a ``(governing_dim, k)`` matrix of columns."""
    z, d = _governing(problem, z), problem.d
    blocks = {"z": [z[i * d:(i + 1) * d] for i in range(problem.n - 1)], "x": []}
    for i, terms in enumerate(problem._terms(problem.n)[0]):
        blocks["x"].append(problem.resolvent(i, _signed_sum(terms, blocks)))
    return blocks["x"]


def displacement(problem, blocks) -> np.ndarray:
    """T z - z expressed through the forward blocks at z (vector or columns)."""
    return np.concatenate([_signed_sum(terms, {"x": blocks})
                           for terms in problem._terms(problem.n)[1]])


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
    """Closed-form projector onto the fixed-point set of the Ryu operator:
    (Z x {0}) + E, E the pairs of complement directions whose sum lies in the
    third complement (`RyuProblem._e_part`).  This is `fix_decomposition`."""
    if not isinstance(p, RyuProblem):
        raise TypeError(f"ryu_fix_projector needs a RyuProblem, got {type(p).__name__}")
    return fix_decomposition(p)


def mt_fix_projector(p: MTProblem) -> Subspace:
    """Closed-form projector onto the fixed-point set of the MT operator: the diagonal
    copy of Z plus E, ran(Psi) cut with the last block's complement, Psi the partial-sum
    operator over the complement spaces (`MTProblem._e_part`).  This is `fix_decomposition`."""
    if not isinstance(p, MTProblem):
        raise TypeError(f"mt_fix_projector needs an MTProblem, got {type(p).__name__}")
    return fix_decomposition(p)


def _fix_parts(problems) -> list:
    """``(W, r, E_r)`` of each of linear problems of one class and one (n, d).

    E lies in (Z^perp)^{n-1}, as every Id - P_i does.  `_svds` of Id - P_Z
    gives a basis W of R^d whose first r columns W_r span Z^perp (the cutoff
    of `Subspace.basis`); E_r, E in the coordinates of Q = Id_{n-1} (x) W_r,
    is the class's `_e_part` of the r x r restrictions W_r^T P_i W_r.
    """
    pz, *ps = (np.stack([s.projector for s in column])
               for column in zip(*((p.intersection(), *p.subspaces) for p in problems)))
    w, s = _svds(np.eye(pz.shape[-1]) - pz)[:2]
    ranks = np.count_nonzero(_kept(s, 1.0), axis=-1).tolist()  # dim Z^perp
    e = {}
    for r in sorted(set(ranks) - {0}):  # np.unique would import numpy.ma
        items = np.flatnonzero(np.array(ranks) == r)
        wr = w[items, :, :r]
        e_r = problems[0]._e_part(*(np.swapaxes(wr, 1, 2) @ p[items] @ wr for p in ps))
        _read_only(e_r)
        e.update(zip(items.tolist(), e_r))
    _read_only(w)
    return [(w[i], r, e.get(i, np.zeros((0, 0)))) for i, r in enumerate(ranks)]


def fix_decomposition(problem) -> Subspace:
    """Fix T: the copy l ⊗ Z of the intersection, projector kron(l l^T, P_Z) / sum(l)
    for the problem's lift vector l (P_Z (+) 0 for Ryu, P_Z / (n - 1) in every
    block for MT), plus Q E_r Q^T from the problem's `_fix_split`, checked."""
    w, r, e = problem._fix_split
    pz, k, d, lift = problem.intersection().projector, problem.n - 1, problem.d, problem._lift
    fix = np.kron(np.outer(lift, lift), pz) / lift.sum()  # divided after the kron, as P_Z / k
    q_e = (w[:, :r] @ e.reshape(k, r, k * r)).reshape(k * d, k, r)  # Q E, by blocks of rows
    return _unchecked(_computed(fix + (q_e @ w[:, :r].T).reshape(k * d, k * d)))


def _fill_fix_spaces(problems) -> None:
    """Fill the `_fix_split` of linear problems of one class and one (n, d) by one `_fix_parts`."""
    for problem, split in zip(problems, _fix_parts(problems)):
        problem._fix_split = split


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
    """A finite governing vector, or a ``(governing_dim, k)`` matrix of k such columns."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2:
        z = z.reshape(-1)
    if z.shape[0] != p.governing_dim:
        raise ValueError(f"governing vector has dimension {z.shape[0]}, expected {p.governing_dim}")
    if not np.isfinite(z).all():
        raise ValueError("governing vector must be finite")
    return z
