"""Shared test utilities and independent oracles.

The nullspace-basis intersection oracle deliberately avoids the
Anderson-Duffin/pseudoinverse route used by the package: a point lies in
every subspace iff it is killed by every complement projector, so an
orthonormal kernel basis of the stacked complements gives the intersection
projector directly from one SVD.
"""

import csv
import io
import json
from collections import namedtuple
from itertools import chain, groupby

import numpy as np

from splitproj import (
    AffineMap,
    IterationTrace,
    MTProblem,
    RyuProblem,
    Subspace,
    affine_lift,
    forward_blocks,
    governing_limit,
    operator_matrix,
    orbit,
    random_subspace,
    shadow,
    shadow_limit,
)
from splitproj.cli import CSV_HEADER, Table
from splitproj.driver import _part_curves, _relaxations, _split_errors
from splitproj.linalg import _eigvals, _kept, _operator_norms, _svds, pseudoinverse
from splitproj.splitting import _AFFINE_TOL, _governing, displacement
from splitproj.subspaces import _computed, _meet, _spans, _sums, _unchecked


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


def mixed_problems(rng):
    """Linear problems of one governing dimension, 12, whose Fix^perp
    dimensions are 9, 12, 7, 0, 9, 3, 12, 9, 7 and 8, and whose Z^perp
    dimensions are 3, 6, 1, 4, 3, 6, 6, 3, 1 and 0: Ryu and MT at n = 3 in
    R^6, and MT at n = 4 in R^4 with zero and with whole-space subspaces."""
    zero = Subspace(np.zeros((4, 4)))
    return [random_ryu(rng), random_mt(rng, dims=(3, 4, 5)), random_ryu(rng, dims=(6, 5, 6)),
            MTProblem([zero] * 4), random_mt(rng), random_ryu(rng, dims=(1, 1, 1)),
            random_mt(rng, dims=(3, 4, 5)), random_ryu(rng), random_mt(rng, dims=(6, 5, 6)),
            MTProblem([whole_space(4)] * 4)]


def full_space_fix(problem) -> np.ndarray:
    """Oracle for `fix_decomposition`: the closed forms on the whole governing
    space, with no split along Z.

    Ryu: (Z x {0}) + E, E the meet of diag(Id - P_U, Id - P_V) with the sum of
    the anti-diagonal and {0} x W^perp.  MT: the diagonal copy of Z plus ran(S)
    cut with the last block's complement, S block lower triangular with (i, j)
    block Id - P_j.  Both E parts are (n - 1) d square; the sum is checked as a
    computed projector.
    """
    pz = problem.intersection().projector
    ps = [s.projector[None] for s in problem.subspaces]
    n, d = problem.n, problem.d
    m = (n - 1) * d
    eye = np.eye(d)
    if isinstance(problem, RyuProblem):
        z_block = np.zeros((m, m))
        z_block[:d, :d] = pz
        left = np.zeros((1, m, m))
        left[:, :d, :d] = eye - ps[0]
        left[:, d:, d:] = eye - ps[1]
        w_axis = np.zeros((1, m, m))
        w_axis[:, d:, d:] = eye - ps[2]
        anti = np.eye(m) - 0.5 * np.block([[eye, eye], [eye, eye]])
        e = _meet(left, _sums(anti, w_axis))
    else:
        z_block = np.tile(pz, (n - 1, n - 1)) / (n - 1)
        s = np.zeros((1, m, m))
        for i in range(n - 1):
            for j in range(i + 1):
                s[:, i * d:(i + 1) * d, j * d:(j + 1) * d] = eye - ps[j]
        last_axis = np.eye(m)[None].copy()
        last_axis[:, -d:, -d:] = eye - ps[n - 1]
        e = _meet(_spans(s, 1.0), last_axis)
    return _computed(z_block + e[0])


def fixed_point_projector(problem) -> np.ndarray:
    """Oracle for Fix T with no closed form: the projector onto the kernel of
    T - Id, from one SVD, with the generous cutoff of `nullspace_intersection`."""
    t = operator_matrix(problem).linear
    _, s, vt = np.linalg.svd(t - np.eye(len(t)))
    kernel = vt[int(np.sum(s > 1e-10 * max(s[0], 1.0))):].T
    return kernel @ kernel.T


def full_space_rate_curves(problems, lams) -> np.ndarray:
    """Oracle for `driver._rate_curves`: the same bounds, with no split along Z.

    One stacked SVD of Id - P_Fix in the whole governing space gives each
    problem's Fix^perp basis Q; the problems whose bases have k columns share
    one eigenvalue solve of B = Q^T T Q, and the upper curve comes from one
    Gram eigensolve of every (1 - lam) Id + lam B.  Returns a ``(2, problems,
    relaxations)`` array (lower, then upper).
    """
    lam = _relaxations(lams).reshape(-1)
    eye = np.eye(problems[0].governing_dim)
    u, s = _svds(_computed(eye - np.stack([p._fix_space.projector for p in problems])))[:2]
    dims = np.count_nonzero(_kept(s, 1.0), axis=-1)
    t = eye + np.stack([p._step[0][-len(eye):] for p in problems])
    curves = np.zeros((2, len(problems), lam.size))
    for k in sorted(set(dims.tolist()) - {0}):
        items = np.flatnonzero(dims == k)
        q = u[items, :, :k]
        b = np.swapaxes(q, 1, 2) @ t[items] @ q
        mu = _eigvals(b)[:, None]
        maps = (1.0 - lam)[:, None, None] * np.eye(k) + lam[:, None, None] * b[:, None]
        curves[0, items] = np.abs((1.0 - lam)[:, None] + lam[:, None] * mu).max(-1)
        curves[1, items] = _operator_norms(maps.reshape(-1, k, k)).reshape(len(items), -1)
    return curves


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
    for k, y in enumerate(chain.from_iterable(orbit([problem], z[None, :, None], config.lam))):
        y = y[0, :, 0]
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
    count at ``tol`` is the first k whose distance is at most ``tol``.  A
    ``(governing_dim, k)`` matrix of starts, with one relaxation or one per
    column, gives two ``(n_steps + 1, k)`` arrays.
    """
    matrix = problem.parallel()._step[0]
    m = problem.governing_dim
    z = np.asarray(start, dtype=float)
    columns = z.reshape(m, -1)
    fix = problem._fix
    e = columns.astype(np.longdouble) - (fix.linear.astype(np.longdouble) @ columns
                                         + fix.offset[:, None])
    out = _longdouble_steps(matrix[:-2 * m], matrix[-m:], e, lam, n_steps)
    return out if z.ndim == 2 else tuple(x[:, 0] for x in out)


def split_errors(problem, starts) -> tuple:
    """F', D' and the split start errors x_0 of `batch_iteration_counts`:
    `_split_errors` of the errors z_0 - P_FixT z_0 of a ``(governing_dim, k)``
    matrix of starts."""
    z = np.asarray(starts, dtype=float).reshape(problem.governing_dim, -1)
    linear = problem.parallel()
    limits = governing_limit(problem, z) if problem.is_affine else linear._fix_space.projector @ z
    return _split_errors(linear, z - limits)


def split_longdouble_distances(problem, start, lam, n_steps) -> tuple:
    """`longdouble_distances` in the counts kernel's coordinates: steps
    x <- x + lam D' x from the split start errors of `split_errors`, in
    ``np.longdouble``, and returns the distances ||x_k|| and ||F' x_k||.
    Unlike the full-space recurrence, it feeds no rounding of D's coupling of
    Z^perp and Z into l (x) Z, so its distances keep the split kernel's floor
    at tight ``tol`` too."""
    out = _longdouble_steps(*split_errors(problem, start), lam, n_steps)
    return out if np.ndim(start) == 2 else tuple(x[:, 0] for x in out)


def _longdouble_steps(f, d, e, lam, n_steps) -> tuple:
    """||e_k|| and ||F e_k|| for k = 0..n_steps of e <- e + lam D e, stepped in
    ``np.longdouble`` from the columns of e, as two ``(n_steps + 1, k)`` arrays."""
    f, d, e = (np.asarray(a).astype(np.longdouble) for a in (f, d, e))
    lam = np.asarray(lam, dtype=np.longdouble)
    gov, sh = [], []
    for i in range(n_steps + 1):
        if i:
            e = e + lam * (d @ e)
        gov.append(np.sqrt(np.sum(e * e, axis=0)))
        sh.append(np.sqrt(np.sum((f @ e) ** 2, axis=0)))
    return np.array(gov), np.array(sh)


def count_margins(problem, starts, lams, tol, counts, max_iters,
                  oracle=longdouble_distances) -> tuple:
    """Oracle for how near to rounding the counts of `batch_iteration_counts` lie.

    ``counts`` holds the governing and the shadow counts of the columns of
    ``starts`` (run at ``lams``, as in the kernel).  Returns two ``(2, k)``
    arrays, governing over shadow, from the distances d_j of each column
    that ``oracle`` gives (`longdouble_distances`, or
    `split_longdouble_distances` below tol 1e-10): the relative margin min(|d_{c-1}/tol - 1|, |d_c/tol - 1|)
    at each count c (|d_0/tol - 1| at c = 0), and the extended-precision
    counts, the first j with d_j <= tol, or ``max_iters`` if none within the
    steps stepped (one past the largest count, at most ``max_iters``).
    """
    counts = np.asarray(counts)
    steps = min(max_iters, int(counts.max()) + 1)
    dist = np.stack(oracle(problem, starts, lams, steps))  # (2, steps + 1, k)
    ratio = np.abs(dist / tol - 1)
    at = [np.take_along_axis(ratio, c[:, None], axis=1)[:, 0]
          for c in (counts, np.maximum(counts - 1, 0))]
    reached = dist <= tol
    exact = np.where(reached.any(axis=1), reached.argmax(axis=1), max_iters)
    return np.minimum(*at).astype(float), exact


#: One output row, as the oracles read it; an iteration of None is a row
#: without one.
Row = namedtuple("Row", ["experiment", "algorithm", "lam", "instance_seed", "metric_name",
                         "metric_value", "iteration"], defaults=[None])


def rows_of(*tables):
    """The rows of the tables, in table and column order."""
    return [Row(t.experiment, a, lam, t.seed, name, value, None if i < 0 else i)
            for t in tables
            for a, lam, name, i, value in zip(t.algorithm.tolist(), t.lam.tolist(),
                                              t.metric.tolist(), t.iteration.tolist(),
                                              t.value.tolist())]


def tables_of(rows):
    """The rows as tables, one per run of consecutive rows that share
    experiment and seed; iterations stay Python integers, so they keep
    their digits above the int64 range."""
    tables = []
    for (experiment, seed), run in groupby(rows, lambda r: (r.experiment, r.instance_seed)):
        algorithm, lam, metric, value, iteration = zip(
            *[(r.algorithm, r.lam, r.metric_name, r.metric_value, r.iteration) for r in run])
        tables.append(Table(experiment, seed, np.array(algorithm), np.array(lam, dtype=float),
                            np.array(metric), np.array([-1 if i is None else i for i in iteration],
                                                       dtype=object),
                            np.array(value, dtype=float)))
    return tables


def _documented_order(records):
    """The records in the documented row order: experiment, algorithm,
    lambda, seed, iteration (none first), metric."""
    return sorted(records, key=lambda r: (r.experiment, r.algorithm, r.lam, r.instance_seed,
                                          r.iteration is not None, r.iteration or 0,
                                          r.metric_name))


def csv_writer_rendering(records) -> str:
    """Oracle for `records_to_csv`'s bytes: the rows written by `csv.writer`,
    with the floats formatted to 17 significant digits, in the documented
    order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in _documented_order(records):
        writer.writerow([
            r.experiment, r.algorithm, format(r.lam, ".17g"), r.instance_seed,
            r.metric_name, "" if r.iteration is None else r.iteration,
            format(r.metric_value, ".17g"),
        ])
    return buf.getvalue()


def json_dumps_rendering(records) -> str:
    """Oracle for `records_to_json`'s bytes: `json.dumps` with indent 2 of
    one object per row, its keys in header order, in the documented order."""
    return json.dumps([dict(zip(CSV_HEADER, (r.experiment, r.algorithm, r.lam, r.instance_seed,
                                             r.metric_name, r.iteration, r.metric_value)))
                       for r in _documented_order(records)], indent=2) + "\n"


# Oracles for the operator descriptions: each operator written out by hand,
# with its own class branches, as the code was before the classes described
# their operators as term lists and a lift vector.

def hand_forward_blocks(problem, z) -> list:
    """Oracle for `forward_blocks`: the Ryu and the MT forward passes by hand."""
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


def hand_displacement(problem, blocks) -> np.ndarray:
    """Oracle for `displacement`: T z - z of each operator by hand."""
    if isinstance(problem, RyuProblem):
        x1, x2, x3 = blocks
        return np.concatenate([x3 - x1, x3 - x2])
    return np.concatenate([blocks[i + 1] - blocks[i] for i in range(len(blocks) - 1)])


def hand_step(problem) -> tuple:
    """Oracle for `_step`: ``[F; Id; T - Id]`` and its offset from the hand passes."""
    m = problem.governing_dim
    if problem.is_affine:
        matrix = hand_step(problem.parallel())[0]
        at_origin = hand_forward_blocks(problem, np.zeros((m, 1)))
        offset = np.concatenate([np.concatenate(at_origin)[:, 0], np.zeros(m),
                                 hand_displacement(problem, at_origin)[:, 0]])
        return matrix, offset
    blocks = hand_forward_blocks(problem, np.eye(m))
    matrix = np.vstack([np.concatenate(blocks), np.eye(m), hand_displacement(problem, blocks)])
    return matrix, np.zeros(matrix.shape[0])


def hand_fix_split(problem) -> tuple:
    """Oracle for `_fix_split` of a linear problem: ``(W, r, E_r)``, the E part
    chosen by class."""
    pz, *ps = (s.projector[None] for s in (problem.intersection(), *problem.subspaces))
    w, sv = _svds(np.eye(problem.d) - pz)[:2]
    r = int(np.count_nonzero(_kept(sv, 1.0)))
    if not r:
        return w[0], 0, np.zeros((0, 0))
    formula = RyuProblem._e_part if isinstance(problem, RyuProblem) else MTProblem._e_part
    wr = w[[0], :, :r]
    return w[0], r, formula(*(np.swapaxes(wr, 1, 2) @ p @ wr for p in ps))[0]


def hand_fix_decomposition(problem) -> np.ndarray:
    """Oracle for `fix_decomposition`'s projector: the copy of Z by class."""
    w, r, e = hand_fix_split(problem)
    pz, k, d = problem.intersection().projector, problem.n - 1, problem.d
    fix = (np.kron(np.diag([1.0, 0.0]), pz) if isinstance(problem, RyuProblem)
           else np.tile(pz, (k, k)) / k)
    q_e = (w[:, :r] @ e.reshape(k, r, k * r)).reshape(k * d, k, r)
    return _computed(fix + (q_e @ w[:, :r].T).reshape(k * d, k * d))


def hand_fix(problem) -> AffineMap:
    """Oracle for `_fix`: P_FixT through the lifted point of `lifted_point`."""
    matrix, offset = hand_step(problem)
    m = problem.governing_dim
    fix = _unchecked(hand_fix_decomposition(problem.parallel()))
    return affine_lift(AffineMap(np.eye(m) + matrix[-m:], offset[-m:]), fix, lifted_point(problem))


def hand_shadow_limit(problem, start) -> np.ndarray:
    """Oracle for `shadow_limit`: the first start block for Ryu, the block mean for MT."""
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


def hand_rate_curves(problems, lams) -> np.ndarray:
    """Oracle for `driver._rate_curves`, as a ``(2, problems, relaxations)``
    array: the bounds on Z^perp and on a direction of Z, where P_Fix is
    diag(1, 0) for Ryu and the block mean for MT, and the larger of the two."""
    lam = _relaxations(lams).reshape(-1)
    parts = {}
    for n, d in sorted({(p.n, p.d) for p in problems}):
        items = np.array([i for i, p in enumerate(problems) if (p.n, p.d) == (n, d)])
        group = [problems[i] for i in items]
        w, ranks, e = zip(*(hand_fix_split(p) for p in group))
        u, ranks = np.stack(w), np.array(ranks)
        m = (n - 1) * d
        t = np.eye(m) + np.stack([hand_step(p)[0][-m:] for p in group])
        on_z = [np.diag([1.0, 0.0]) if isinstance(p, RyuProblem) else np.full((n - 1,) * 2, 1 / (n - 1))
                for p in group]
        for r in sorted(set(ranks.tolist())):
            sel = np.flatnonzero(ranks == r)
            for side, (cols, fix) in enumerate(((u[sel, :, :r], e), (u[sel, :, r:r + 1], on_z))):
                if cols.shape[-1]:
                    q = np.kron(np.eye(n - 1), cols)
                    parts.setdefault(q.shape[-1], []).append(
                        (side * len(problems) + items[sel], np.swapaxes(q, 1, 2) @ t[sel] @ q,
                         np.stack([fix[i] for i in sel])))
    curves = np.zeros((2, 2 * len(problems), lam.size))
    for size in sorted(parts):
        rows, t, fix = map(np.concatenate, zip(*parts[size]))
        curves[:, rows] = _part_curves(t, fix, lam)
    return curves.reshape(2, 2, len(problems), lam.size).max(axis=1)
