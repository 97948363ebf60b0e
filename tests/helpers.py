"""Shared test utilities and independent oracles.

The nullspace-basis intersection oracle deliberately avoids the
Anderson-Duffin/pseudoinverse route used by the package: a point lies in
every subspace iff it is killed by every complement projector, so an
orthonormal kernel basis of the stacked complements gives the intersection
projector directly from one SVD.
"""

import numpy as np

from splitproj import (
    IterationTrace,
    MTProblem,
    RyuProblem,
    Subspace,
    forward_blocks,
    governing_limit,
    operator_matrix,
    random_subspace,
    shadow,
    shadow_limit,
)
from splitproj.splitting import displacement


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
