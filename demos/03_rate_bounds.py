"""Convergence-rate bounds versus what the iteration actually does.

The iteration map is affine-linear, so its error map T_lam - P_Fix has a
spectral radius (a sharp lower bound on the asymptotic linear rate) and an
operator norm (an upper bound).  The observed contraction factor of a long
run must land between them -- and hugs the spectral radius.
"""

import numpy as np

from splitproj import (
    IterationConfig,
    RyuProblem,
    asymptotic_contraction,
    iterate,
    random_subspace,
    rate_bounds,
    tail_contraction,
)

rng = np.random.default_rng(23)
subs = [random_subspace(6, 5, rng) for _ in range(3)]
problem = RyuProblem(*subs)
start = rng.standard_normal(12)

print(" lam   lower(rho)  observed    upper(norm)  iterations")
for lam in (0.2, 0.4, 0.6, 0.8):
    bounds = rate_bounds(problem, lam)
    observed = asymptotic_contraction(problem, lam, start)
    trace = iterate(problem, IterationConfig(lam, tol=1e-9, max_iters=50_000), start)
    print(f" {lam:.1f}   {bounds.lower:.6f}   {observed:.6f}   "
          f"{bounds.upper:.6f}    {trace.iterations}")

# per-step tail ratios of an actual run tell the same story
lam = 0.5
bounds = rate_bounds(problem, lam)
trace = iterate(problem, IterationConfig(lam, tol=1e-9, max_iters=50_000), start)
window = tail_contraction(trace.governing_distances)
print(f"\nlam=0.5: geometric mean of the last 50 distance ratios = {window:.6f}")
print(f"         spectral radius (sharp lower bound)          = {bounds.lower:.6f}")

# iteration count scales like log(tol) / log(rate)
predicted = np.log(1e-9 / trace.governing_distances[0]) / np.log(bounds.lower)
print(f"         rate-based iteration estimate ~{predicted:.0f}, "
      f"actual {trace.iterations}")
