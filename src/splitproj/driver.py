"""Relaxed fixed-point iteration, its stopping rule, and rate bounds.

The governing iteration is z <- (1 - lam) z + lam T z with 0 < lam < 1.
Because the operators are (affine) linear and averaged, the iterates converge
to the image of the start under the closed-form fixed-point projector, and
the shadow sequence (the stacked forward-pass blocks) converges to copies of
the projection of a start-dependent point onto the subspace intersection.
Every limit is thus known in closed form, so a run stops once its iterate
is within ``tol`` of that limit.

All distances are Euclidean norms on the stacked block vectors: governing
distances in R^{(n-1)d}, shadow distances in R^{nd}.

The rate bounds are the spectral radius and the operator norm of the error
map T_lam - P_Fix.  It is zero on Fix T, so `rate_curve` takes both on the
orthogonal complement of Fix T, for a whole relaxation grid from one
eigenvalue solve and one stacked symmetric eigensolve; `rate_bounds` is its
one-relaxation call.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .linalg import _eigvals, _operator_norms
from .splitting import (
    RyuProblem,
    _governing,
    forward_blocks,
    operator_matrix,
)
from .subspaces import _computed

#: Distance ratios averaged by `tail_contraction`.
_TAIL_WINDOW = 50
#: `asymptotic_contraction` runs 2**_DOUBLINGS steps by repeated squaring.
_DOUBLINGS = 20
#: `orbit` yields at most this many steps per block, fewer when a block would
#: hold more than ``_BLOCK_ENTRIES`` entries (128 KiB; larger blocks cost memory
#: and gain no speed), and one when a column set is too wide for two.
_BLOCK_STEPS = 32
_BLOCK_ENTRIES = 1 << 14


@dataclass
class IterationConfig:
    """Relaxation, tolerance and iteration budget."""

    lam: float
    tol: float = 1e-6
    max_iters: int = 10_000

    def __post_init__(self):
        _relaxations(self.lam)
        _check_stop(self.tol, self.max_iters)


def _relaxations(lams) -> np.ndarray:
    """``lams`` as a float array, after checking that every value lies in (0, 1)."""
    lam = np.asarray(lams, dtype=float)
    bad = lam[~((0.0 < lam) & (lam < 1.0))]
    if bad.size:
        raise ValueError(f"relaxation must lie in (0, 1), got {bad[0]}")
    return lam


def _check_stop(tol, max_iters) -> None:
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if isinstance(max_iters, bool) or not isinstance(max_iters, Integral) or max_iters < 0:
        raise ValueError(f"max_iters must be an integer >= 0, got {max_iters!r}")


@dataclass
class IterationTrace:
    """Outcome of a governing iteration run.

    Distance histories are empty arrays when history recording was off.
    """

    iterations: int
    converged: bool
    governing_distances: np.ndarray
    shadow_distances: np.ndarray
    final_governing: np.ndarray
    final_shadow: np.ndarray


@dataclass
class RateBounds:
    """Lower (spectral radius) and upper (operator norm) rate bounds."""

    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper + 1e-9:
            raise ValueError(f"need 0 <= lower <= upper, got {self.lower}, {self.upper}")


def governing_limit(problem, start) -> np.ndarray:
    """Limit of the governing iteration: the fixed-point projection of start.

    ``start`` is a governing vector or a ``(governing_dim, k)`` matrix of
    start columns; the problem builds its fixed-point projector once.
    """
    return problem._fix(_governing(problem, start))


def shadow_limit(problem, start) -> np.ndarray:
    """Limit of the shadow sequence: n copies of the intersection projection.

    The projected point is the first start block for the three-subspace
    two-variable operator and the block average for the general-n one; for
    affine problems the projection is onto the affine intersection.  A
    ``(governing_dim, k)`` matrix of starts gives a ``(n d, k)`` matrix of
    limits.
    """
    start = _governing(problem, start)
    d, n = problem.d, problem.n
    blocks = start.reshape((n - 1, d) + start.shape[1:])
    p_point = blocks[0] if isinstance(problem, RyuProblem) else blocks.mean(axis=0)
    pz = problem.intersection().projector
    anchor = problem.intersection_point
    if start.ndim == 2:
        anchor = anchor[:, None]
    solution = anchor + pz @ (p_point - anchor)
    return np.tile(solution, (n,) + (1,) * (start.ndim - 1))


def shadow(problem, z) -> np.ndarray:
    """Stacked forward-pass blocks (the shadow point) at a governing z."""
    return np.concatenate(forward_blocks(problem, z))


def orbit(problem, starts, lam):
    """Relaxed iterates of a block of start columns, with their shadows.

    ``starts`` is a ``(governing_dim, k)`` matrix and ``lam`` one relaxation
    or one per column.  Yields blocks of consecutive steps, ``(j, rows, k)``
    arrays whose slices are ``[F z_i; z_i]`` (shadow rows over iterate rows)
    for i = 0, 1, ... in order across blocks.  Each step is one product with
    the problem's step matrix ``[F; Id; T - Id]``, followed by
    z_{i+1} = z_i + lam (T - Id) z_i.  Sending a boolean mask over the
    current columns keeps only those columns from the next block on.

    ``problem`` may also be a list or tuple of S problems whose step
    matrices share one shape.  ``starts`` is then ``(S, governing_dim, k)``
    and each block ``(j, S, rows, k)``.  The S problems step together by
    one stacked product, which makes the same products item by item, so
    every problem's blocks keep the bits of its own `orbit`.
    """
    if isinstance(problem, (list, tuple)):
        shapes = {p._step[0].shape for p in problem}
        if len(shapes) != 1:
            raise ValueError(f"stacked problems need one step shape, got {sorted(shapes)}")
        if len(starts) != len(problem):
            raise ValueError(f"need one start matrix per problem, got {len(starts)} "
                             f"for {len(problem)}")
        z = np.stack([_governing(p, s) for p, s in zip(problem, starts)])
        matrix = np.stack([p._step[0] for p in problem])
        offset = np.stack([p._step[1] for p in problem])
        affine = any(p.is_affine for p in problem)
        m = problem[0].governing_dim
    else:
        z = _governing(problem, starts)
        matrix, offset = problem._step
        affine = problem.is_affine
        m = problem.governing_dim
    lam = np.asarray(lam, dtype=float)
    rows = matrix.shape[-2]
    while True:
        entries = rows * (z.size // m)  # of one step of every problem and column
        j = max(1, min(_BLOCK_STEPS, _BLOCK_ENTRIES // max(1, entries)))
        block = np.empty((j, *z.shape[:-2], rows, z.shape[-1]))
        for w in block:
            np.matmul(matrix, z, out=w)
            if affine:
                w += offset[..., None]
            z = z + lam * w[..., -m:, :]
        keep = yield block[..., :-m, :]
        if keep is not None:
            z = z[..., keep]
            lam = lam[keep] if lam.ndim else lam


def iterate(problem, config: IterationConfig, start, record_history: bool = True) -> IterationTrace:
    """Run the relaxed iteration until the iterate is within ``tol`` of its limit.

    The limit is `governing_limit` of the start, known in closed form.
    Hitting ``max_iters`` yields ``converged=False`` rather than an
    exception.  Per-iteration distance histories are recorded only when
    requested (long runs over many instances would otherwise hold every
    trace in memory).  This is the one-column run of `orbit`: the
    distances of a block come from one stacked product, and the steps of
    the last block past the stop are discarded.
    """
    z = _governing(problem, np.ravel(start))
    gov_lim = governing_limit(problem, z)
    sh_lim = shadow_limit(problem, z)
    nd = sh_lim.shape[0]
    gov_hist, sh_hist = [], []
    it = 0
    for block in orbit(problem, z[:, None], config.lam):
        block = block[:config.max_iters + 1 - it, :, 0]
        gov = _norms(block[:, nd:] - gov_lim)
        hit = np.flatnonzero(gov <= config.tol)
        end = int(hit[0]) + 1 if hit.size else len(block)
        if record_history:
            gov_hist.append(gov[:end])
            sh_hist.append(_norms(block[:end, :nd] - sh_lim))
        it += end
        if hit.size or it > config.max_iters:
            break
    y = block[end - 1]
    return IterationTrace(it - 1, bool(hit.size), np.concatenate(gov_hist or [[]]),
                          np.concatenate(sh_hist or [[]]), final_governing=y[nd:],
                          final_shadow=y[:nd])


def _norms(rows) -> np.ndarray:
    """The Euclidean norm of each row of a matrix, from one stacked product
    whose items are the dot products that `np.linalg.norm` makes for a row."""
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def iteration_counts(problem, config: IterationConfig, start) -> tuple:
    """First iterations at which governing and shadow reach ``tol``.

    Returns ``(governing_count, shadow_count)``: the first k at which the
    governing iterate z_k is within ``tol`` of its limit, and the first k
    at which the forward-pass blocks at z_k are within ``tol`` of theirs
    (0 when the start already is).  A sequence that never reaches ``tol``
    within ``max_iters`` is reported as ``max_iters`` (such runs count
    toward experiment medians rather than being dropped).  This is the
    one-column call of `batch_iteration_counts`.
    """
    gov, sh = batch_iteration_counts(problem, np.reshape(start, (-1, 1)), [config.lam],
                                     config.tol, config.max_iters)
    return int(gov[0]), int(sh[0])


def _propagator(d, lam) -> np.ndarray:
    """[M; M^2; ...; M^J] for M = Id + lam D and J = ``_BLOCK_STEPS``: the
    errors of the next J steps from one error, by one product."""
    step = np.eye(d.shape[0]) + lam * d
    powers = [step]
    for _ in range(_BLOCK_STEPS - 1):
        powers.append(step @ powers[-1])
    return np.vstack(powers)


def batch_iteration_counts(problem, starts, lams, tol: float = 1e-6,
                           max_iters: int = 10_000) -> tuple:
    """`iteration_counts` for many runs of one problem, stepped together.

    Column j of the ``(governing_dim, k)`` matrix ``starts`` is run with
    relaxation ``lams[j]``; returns two integer arrays of length k, the
    governing and the shadow counts of each column.  The columns' limits
    come from one matrix product.

    T is affine and z* = P_FixT z0 is a fixed point, so the error
    e = z - z* of a column obeys e <- e + lam D e, D the linear part of
    T - Id, and its shadow error is F e, F the linear forward pass.  The
    columns step their errors together through `orbit` of the linear
    problem, whose blocks stack F e over e, so a block's distances are
    plain column norms.  A column leaves the working set after the block in
    which both its counts become known, so a slow relaxation does not keep
    the fast ones stepping.  Once the live columns fit a full block, each
    block comes from the last tested error instead: one `_propagator`
    product per run of equal relaxations (the columns are sorted by lam),
    and one product with F.  Every column is checked at k = 0, 1, ...,
    ``max_iters``; a count still unknown after ``max_iters`` steps is
    reported as ``max_iters``.
    """
    z = _governing(problem, starts)
    if z.ndim != 2:
        raise ValueError("starts must be a (governing_dim, k) matrix")
    k = z.shape[1]
    lam = _relaxations(lams).reshape(-1)
    if lam.shape[0] != k:
        raise ValueError(f"need one relaxation per column, got {lam.shape[0]} for {k}")
    _check_stop(tol, max_iters)
    counts = np.full((2, k), max_iters, dtype=np.int64)
    if k == 0:
        return counts[1], counts[0]
    # a block's rows [0, nd) are the shadow error and the rest the error;
    # row 0 of counts and open_ is the shadow, row 1 the governing sequence
    linear = problem.parallel()
    matrix = linear._step[0]
    m = problem.governing_dim
    nd = matrix.shape[0] - 2 * m
    open_ = np.ones((2, k), dtype=bool)
    cols = np.argsort(lam, kind="stable")  # equal relaxations side by side
    lam = lam[cols]
    blocks = orbit(linear, (z - governing_limit(problem, z))[:, cols], lam)
    block = next(blocks)
    propagators, runs = {}, None
    it = 0
    while True:
        block = block[:max_iters + 1 - it]
        hit = open_ & (np.sqrt(np.add.reduceat(block * block, [0, nd], axis=1)) <= tol)
        done = hit.any(axis=0)
        keep = None
        if done.any():
            rows, j = np.nonzero(done)
            counts[rows, cols[j]] = it + hit.argmax(axis=0)[rows, j]
            open_ &= ~done
            live = open_.any(axis=0)
            if not live.all():
                if not live.any():
                    break
                keep = live
                cols, open_, lam = cols[live], open_[:, live], lam[live]
        it += block.shape[0]
        if it > max_iters:
            break
        if cols.size * matrix.shape[0] * _BLOCK_STEPS > _BLOCK_ENTRIES:
            block = blocks.send(keep)
            continue
        last = block[-1, nd:] if keep is None else block[-1, nd:][:, keep]
        if keep is not None or not runs:  # (a, b, propagator) per run of equal lam
            cuts = [0, *(np.flatnonzero(lam[1:] != lam[:-1]) + 1).tolist(), lam.size]
            for a in cuts[:-1]:
                if lam[a] not in propagators:
                    propagators[lam[a]] = _propagator(matrix[-m:], lam[a])
            runs = [(a, b, propagators[lam[a]]) for a, b in zip(cuts, cuts[1:])]
        errors = np.concatenate([p @ last[:, a:b] for a, b, p in runs], axis=1)
        errors = errors.reshape(_BLOCK_STEPS, m, -1)
        block = np.concatenate([matrix[:nd] @ errors, errors], axis=1)
    return counts[1], counts[0]


def rate_bounds(problem, lam: float) -> RateBounds:
    """Spectral-radius lower and operator-norm upper bound on the rate.

    Both bounds are for the error map of the relaxed operator,
    T_lam - P_Fix; the lower bound is sharp for the asymptotic rate.
    Requires a linear problem (affine rates equal those of the parallel
    linear problem).  This is the one-relaxation call of `rate_curve`.
    """
    lower, upper = rate_curve(problem, [lam])
    return RateBounds(lower=float(lower[0]), upper=float(upper[0]))


def rate_curve(problem, lams) -> tuple:
    """`rate_bounds` at every relaxation of ``lams``, as two arrays.

    T is the identity on Fix T and maps its orthogonal complement into
    itself, so with an orthonormal basis Q of Fix^perp and B = Q^T T Q the
    error map T_lam - P_Fix is zero on Fix T and (1 - lam) Id + lam B on
    Fix^perp.  Its spectrum is {0} and the values 1 - lam + lam mu over the
    eigenvalues mu of B, so one eigenvalue solve gives the whole lower
    curve; the upper curve is the largest singular value of each
    (1 - lam) Id + lam B, from one stacked eigensolve of their Gram
    matrices.  Both bounds are 0 when Fix T is the whole space.
    """
    if problem.is_affine:
        raise ValueError("rate bounds are defined on linear problems; use problem.parallel()")
    lam = _relaxations(lams).reshape(-1)
    p_fix = problem._fix.linear
    m = p_fix.shape[0]
    q = _computed(np.eye(m) - p_fix).basis()
    if q.shape[1] == 0:
        return np.zeros(lam.shape), np.zeros(lam.shape)
    b = q.T @ operator_matrix(problem).linear @ q
    mu = _eigvals(b)
    lower = np.max(np.abs((1.0 - lam)[:, None] + lam[:, None] * mu), axis=1)
    upper = _operator_norms((1.0 - lam)[:, None, None] * np.eye(b.shape[0])
                            + lam[:, None, None] * b)
    return lower, upper


def tail_contraction(distances) -> float:
    """Geometric mean of the last ``_TAIL_WINDOW`` distance ratios (or of all).

    Distances at or below zero are excluded (they carry no rate
    information once the iterate has numerically reached the limit).
    """
    d = np.asarray(distances, dtype=float)
    d = d[d > 0.0]
    if d.size < 2:
        raise ValueError("need at least two positive distances")
    w = min(_TAIL_WINDOW, d.size - 1)
    return float(np.exp((np.log(d[-1]) - np.log(d[-1 - w])) / w))


def asymptotic_contraction(problem, lam: float, probe) -> float:
    """Observed long-run contraction factor of the error iteration.

    Computes the K-step average tail ratio ``||(T_lam - P_Fix)^K e||^{1/K}``
    for ``K = 2**_DOUBLINGS`` by repeated squaring with renormalization.
    This is the geometric mean of the exact error-recurrence tail ratios,
    free of the floating-point floor that a stepwise run hits; it is
    bounded by the operator norm and, for a generic probe, matches the
    spectral radius to high accuracy.
    """
    _relaxations(lam)
    probe = np.asarray(probe, dtype=float).reshape(-1)
    t = operator_matrix(problem).linear
    a = (1.0 - lam) * np.eye(t.shape[0]) + lam * t - problem._fix.linear
    if probe.shape[0] != a.shape[0]:
        raise ValueError(f"probe has dimension {probe.shape[0]}, expected {a.shape[0]}")
    norm0 = np.linalg.norm(probe)
    if norm0 == 0.0:
        raise ValueError("probe must be nonzero")
    steps = 1 << _DOUBLINGS
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return 0.0
    m = a / scale
    log_scale = float(np.log(scale))
    for _ in range(_DOUBLINGS):
        m = m @ m
        log_scale *= 2.0
        s = float(np.linalg.norm(m))
        if s == 0.0:
            return 0.0
        m /= s
        log_scale += np.log(s)
    image = float(np.linalg.norm(m @ probe))
    if image == 0.0:
        return 0.0
    return float(np.exp((log_scale + np.log(image) - np.log(norm0)) / steps))
