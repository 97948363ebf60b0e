"""Affine subspaces: same algorithms, translated resolvents.

A consistent family of affine subspaces (nonempty intersection) behaves
exactly like its parallel linear family shifted by a computable vector, so
the shadow sequence converges to the projection onto the affine
intersection.  Inconsistent families are detected and rejected.
"""

import numpy as np

from splitproj import (
    AffineSubspace,
    IterationConfig,
    InconsistentAffineError,
    RyuProblem,
    Subspace,
    affine_lift,
    fix_decomposition,
    iterate,
    operator_matrix,
    project,
    random_subspace,
)

rng = np.random.default_rng(31)
subs = [random_subspace(6, 5, rng) for _ in range(3)]

# translate all three subspaces so they share the point v
v = rng.standard_normal(6)
affine = RyuProblem.from_affine(*[AffineSubspace(v, s) for s in subs])
print("a common point of the translated subspaces:", np.round(affine.intersection_point, 4))

x0 = rng.standard_normal(6)
start = np.concatenate([x0, x0])
trace = iterate(affine, IterationConfig(0.5, tol=1e-10, max_iters=20_000), start)
pz = affine.intersection()
want = v + pz.projector @ (x0 - v)
print(f"shadow limit error vs v + P(x0 - v): "
      f"{np.linalg.norm(trace.final_shadow[:6] - want):.2e} "
      f"({trace.iterations} iterations)")

# the affine operator is the linear one plus an offset; the shift vector a
# relates their fixed-point projectors
amap = operator_matrix(affine)
lifted = affine_lift(amap, fix_decomposition(affine.parallel()))
print("offset norm ||b|| =", f"{np.linalg.norm(amap.offset):.4f}",
      " shift norm ||a|| =", f"{np.linalg.norm(lifted.offset):.4f}")
print("governing limit check:",
      f"{np.linalg.norm(trace.final_governing - lifted(start)):.2e}")

# parallel lines that never meet are refused up front
x_axis = Subspace(np.diag([1.0, 0.0]))
try:
    RyuProblem(x_axis, x_axis, x_axis,
               affine_anchors=(np.zeros(2), np.array([0.0, 1.0]), np.zeros(2)))
except InconsistentAffineError as exc:
    print("\ninconsistent family rejected:", exc)

# projecting onto a single affine subspace needs no iteration at all
line = AffineSubspace(np.array([0.0, 1.0]), x_axis)
print("projection onto the shifted x-axis:", project(line, [3.0, 4.0]))
