"""Shared test utilities and independent oracles.

The nullspace-basis intersection oracle deliberately avoids the
Anderson-Duffin/pseudoinverse route used by the package: a point lies in
every subspace iff it is killed by every complement projector, so an
orthonormal kernel basis of the stacked complements gives the intersection
projector directly from one SVD.
"""

import csv
import io
from itertools import chain

import numpy as np

from splitproj import (
    IterationTrace,
    MTProblem,
    RyuProblem,
    Subspace,
    forward_blocks,
    governing_limit,
    operator_matrix,
    orbit,
    random_subspace,
    shadow,
    shadow_limit,
)
from splitproj.cli import CSV_HEADER, _sort_key
from splitproj.linalg import pseudoinverse
from splitproj.splitting import _AFFINE_TOL, _governing, displacement


def nullspace_intersection(projectors) -> np.ndarray:
    """Intersection projector from the kernel of stacked complements."""
    d = projectors[0].shape[0]
    stacked = np.vstack([np.eye(d) - p for p in projectors])
    try:
        _, s, vt = np.linalg.svd(stacked)
    except np.linalg.LinAlgError:
        # gesdd can fail to converge on rank-deficient input; the SVD of
        # the transpose has the same singular values, with V^T = U'^T
        u, s, _ = np.linalg.svd(stacked.T)
        vt = u.T
    # numerical zeros sit near eps while genuine directions are O(principal
    # angle); a generous relative cutoff separates them cleanly
    tol = 1e-10 * (s[0] if s.size else 1.0)
    kernel = vt[int(np.sum(s > tol)):].T
    if kernel.size == 0:
        return np.zeros((d, d))
    return kernel @ kernel.T


def random_instance(rng, d=6, dims=(5, 5, 5)):
    """Random subspaces for one experiment instance."""
    return [random_subspace(d, k, rng) for k in dims]


def random_ryu(rng, d=6, dims=(5, 5, 5)) -> RyuProblem:
    return RyuProblem(*random_instance(rng, d, dims))


def random_mt(rng, d=6, dims=None, n=3) -> MTProblem:
    if dims is None:
        dims = (5,) * n
    return MTProblem(random_instance(rng, d, dims))


def whole_space(d) -> Subspace:
    return Subspace(np.eye(d))


def relaxed_matrix(problem, lam) -> np.ndarray:
    """Linear part of the relaxed operator, (1 - lam) Id + lam T."""
    t = operator_matrix(problem).linear
    return (1.0 - lam) * np.eye(t.shape[0]) + lam * t


def lifted_point(problem) -> np.ndarray:
    """The problem's intersection point x* lifted into the governing space:
    (x*, 0) for Ryu and (x*, ..., x*) for MT, a fixed point of T."""
    x = problem.intersection_point
    if isinstance(problem, RyuProblem):
        return np.concatenate([x, np.zeros(problem.d)])
    return np.tile(x, problem.n - 1)


def pseudoinverse_shift(amap) -> tuple:
    """Oracle for `affine_lift`'s offset and its consistency rule.

    For T x = L x + b, returns the minimum-norm shift a = (Id - L)^+ b,
    which is P_FixT(0), and whether T has a fixed point by the residual
    rule ||(Id - L) a - b|| <= _AFFINE_TOL * max(1, ||b||).
    """
    id_minus_l = np.eye(amap.linear.shape[0]) - amap.linear
    a = pseudoinverse(id_minus_l) @ amap.offset
    residual = np.linalg.norm(id_minus_l @ a - amap.offset)
    return a, residual <= _AFFINE_TOL * max(1.0, float(np.linalg.norm(amap.offset)))


def frobenius(a) -> float:
    return float(np.linalg.norm(a))


def step(problem, z) -> np.ndarray:
    """Oracle for one application of the splitting operator: z plus the
    displacement of its forward pass (z a vector or a matrix of columns)."""
    z = np.asarray(z, dtype=float)
    return z + displacement(problem, forward_blocks(problem, z))


def scalar_iteration_counts(problem, config, start) -> tuple:
    """Oracle for the column kernel: one run, one vector, one step at a time.

    Returns the first k at which the governing iterate and the shadow are
    within ``config.tol`` of their limits, ``config.max_iters`` for a
    sequence that does not get there.
    """
    z = np.asarray(start, dtype=float).reshape(-1).copy()
    gov_lim = governing_limit(problem, z)
    sh_lim = shadow_limit(problem, z)
    gov = 0 if np.linalg.norm(z - gov_lim) <= config.tol else None
    sh = None
    k = 0
    while (gov is None or sh is None) and k < config.max_iters:
        blocks = forward_blocks(problem, z)
        if sh is None and np.linalg.norm(np.concatenate(blocks) - sh_lim) <= config.tol:
            sh = k
        if gov is not None and sh is not None:
            break
        z = z + config.lam * displacement(problem, blocks)
        k += 1
        if gov is None and np.linalg.norm(z - gov_lim) <= config.tol:
            gov = k
    if sh is None and np.linalg.norm(shadow(problem, z) - sh_lim) <= config.tol:
        sh = k
    return (gov if gov is not None else config.max_iters,
            sh if sh is not None else config.max_iters)


def scalar_iterate(problem, config, start) -> IterationTrace:
    """Oracle for `iterate`: one vector, one forward pass per step.

    Records both distance histories for k = 0..K, K the number of steps.
    """
    z = np.asarray(start, dtype=float).reshape(-1).copy()
    gov_lim = governing_limit(problem, z)
    sh_lim = shadow_limit(problem, z)
    gov_hist = [float(np.linalg.norm(z - gov_lim))]
    sh_hist = []
    converged = gov_hist[0] <= config.tol
    k = 0
    while not converged and k < config.max_iters:
        blocks = forward_blocks(problem, z)
        sh_hist.append(float(np.linalg.norm(np.concatenate(blocks) - sh_lim)))
        z = z + config.lam * displacement(problem, blocks)
        k += 1
        gov_hist.append(float(np.linalg.norm(z - gov_lim)))
        converged = gov_hist[-1] <= config.tol
    final_shadow = shadow(problem, z)
    sh_hist.append(float(np.linalg.norm(final_shadow - sh_lim)))
    return IterationTrace(k, converged, np.asarray(gov_hist), np.asarray(sh_hist),
                          z, final_shadow)


def per_step_iterate(problem, config, start, record_history=True) -> IterationTrace:
    """Oracle for `iterate`'s bits: the same `orbit` blocks, taken one step
    at a time, with one `np.linalg.norm` per distance and a stop test after
    every step."""
    z = _governing(problem, np.ravel(start))
    gov_lim = governing_limit(problem, z)
    sh_lim = shadow_limit(problem, z)
    nd = sh_lim.shape[0]
    gov_hist, sh_hist = [], []
    for k, y in enumerate(chain.from_iterable(orbit(problem, z[:, None], config.lam))):
        y = y[:, 0]
        gov_dist = float(np.linalg.norm(y[nd:] - gov_lim))
        if record_history:
            gov_hist.append(gov_dist)
            sh_hist.append(float(np.linalg.norm(y[:nd] - sh_lim)))
        converged = gov_dist <= config.tol
        if converged or k == config.max_iters:
            break
    return IterationTrace(k, converged, np.asarray(gov_hist), np.asarray(sh_hist),
                          final_governing=y[nd:], final_shadow=y[:nd])


def stepwise_batch_counts(problem, starts, lams, tol, max_iters) -> tuple:
    """Oracle for `batch_iteration_counts`: the iterate, one step at a time.

    Every step is one product with the problem's step matrix ``[F; Id;
    T - Id]``, every column's iterate and shadow are tested against their
    closed-form limits after every step, and a column leaves as soon as both
    its counts are known.  The kernel steps the error z - z* instead, and
    takes slow runs' last steps from powers of the relaxed step, so its
    distances differ from these in the last bits: the counts agree unless
    a distance lies within rounding of ``tol`` (`longdouble_distances`
    settles such a case).  Returns the governing and the shadow counts.
    """
    z = np.array(starts, dtype=float)
    lam = np.asarray(lams, dtype=float).reshape(-1)
    k = z.shape[1]
    counts = np.full((2, k), max_iters, dtype=np.int64)
    if k == 0:
        return counts[1], counts[0]
    matrix, offset = problem._step
    m = problem.governing_dim
    limits = np.vstack([shadow_limit(problem, z), governing_limit(problem, z)])
    nd = limits.shape[0] - m
    open_ = np.ones((2, k), dtype=bool)
    cols = np.arange(k)
    for it in range(max_iters + 1):
        w = matrix @ z
        if problem.is_affine:
            w += offset[:, None]
        gap = w[:-m] - limits
        hit = open_ & (np.sqrt(np.add.reduceat(gap * gap, [0, nd], axis=0)) <= tol)
        rows, j = np.nonzero(hit)
        counts[rows, cols[j]] = it
        open_ &= ~hit
        live = open_.any(axis=0)
        if not live.any():
            break
        if not live.all():
            z, w, lam = z[:, live], w[:, live], lam[live]
            cols, limits, open_ = cols[live], limits[:, live], open_[:, live]
        z = z + lam * w[-m:]
    return counts[1], counts[0]


def stepwise_shadow_distances(problem, starts, lam, n_iters) -> np.ndarray:
    """Oracle for exp3's traces: shadow distances after steps 1..n_iters,
    one forward pass per step, as a ``(k, n_iters)`` matrix."""
    z = np.array(starts, dtype=float)
    limit = shadow_limit(problem, z)
    out = []
    for _ in range(n_iters):
        z = z + lam * (step(problem, z) - z)
        out.append(np.linalg.norm(np.concatenate(forward_blocks(problem, z)) - limit, axis=0))
    return np.array(out).T


def longdouble_distances(problem, start, lam, n_steps) -> tuple:
    """Oracle for the counts kernel's distances, in extended precision.

    Steps the error recurrence e <- e + lam D e from e_0 = z_0 - P_FixT z_0
    in ``np.longdouble``, with D and the forward pass F taken as the
    problem's stored float64 matrices.  Returns the governing distances
    ||e_k|| and the shadow distances ||F e_k|| for k = 0..n_steps, so a
    count at ``tol`` is the first k whose distance is at most ``tol``.
    """
    matrix = problem.parallel()._step[0].astype(np.longdouble)
    m = problem.governing_dim
    f, d = matrix[:-2 * m], matrix[-m:]
    z = np.asarray(start, dtype=float).reshape(-1)
    fix = problem._fix
    e = z.astype(np.longdouble) - (fix.linear.astype(np.longdouble) @ z + fix.offset)
    errors = [e]
    for _ in range(n_steps):
        e = e + np.longdouble(lam) * (d @ e)
        errors.append(e)
    errors = np.array(errors)
    return (np.sqrt(np.sum(errors * errors, axis=1)),
            np.sqrt(np.sum((errors @ f.T) ** 2, axis=1)))


def csv_writer_rendering(records) -> str:
    """Oracle for `records_to_csv`'s bytes: the rows written by `csv.writer`,
    with the floats formatted to 17 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in sorted(records, key=_sort_key):
        writer.writerow([
            r.experiment, r.algorithm, format(r.lam, ".17g"), r.instance_seed,
            r.metric_name, "" if r.iteration is None else r.iteration,
            format(r.metric_value, ".17g"),
        ])
    return buf.getvalue()
