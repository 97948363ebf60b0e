"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints one ``ACCEPTANCE <k> ...: PASS/FAIL`` line (run with
``pytest -s`` to see them as they complete) and then asserts, so failures
carry full diagnostics.
"""

import time

import numpy as np

from helpers import nullspace_intersection, random_instance, relaxed_matrix, step
from splitproj import (
    IterationConfig,
    MTProblem,
    RyuProblem,
    asymptotic_contraction,
    fix_decomposition,
    forward_blocks,
    intersect_all,
    intersect_pair,
    iterate,
    operator_matrix,
    rate_bounds,
)
from splitproj.cli import exp1, exp2, records_to_csv


def _report(num, name, ok, elapsed):
    print(f"\nACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")


def _forward_matrix(problem):
    """Matrix of the forward pass, assembled column by column."""
    m = problem.governing_dim
    cols = []
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        cols.append(np.concatenate(forward_blocks(problem, e)))
    return np.array(cols).T


def test_criterion_1_projector_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        u, v, w = random_instance(rng)
        pair = intersect_pair(u, v).projector
        pair_want = nullspace_intersection([u.projector, v.projector])
        triple = intersect_all([u, v, w]).projector
        triple_want = nullspace_intersection([s.projector for s in (u, v, w)])
        worst = max(worst,
                    float(np.linalg.norm(pair - pair_want)),
                    float(np.linalg.norm(triple - triple_want)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(1, "projector oracle equivalence", ok, elapsed)
    assert worst <= 1e-8, f"worst oracle gap {worst:.3e}"
    assert elapsed < 5.0


def test_criterion_2_ryu_shadow_limit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    lam = 0.5
    for _ in range(50):
        subs = random_instance(rng)
        problem = RyuProblem(*subs)
        pz = problem.intersection().projector
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        target = pz @ x
        reached = None
        zk = np.concatenate([x, y])
        for k in range(10_001):
            if np.linalg.norm(subs[0].projector @ zk[:6] - target) <= 1e-6:
                reached = k
                break
            zk = zk + lam * (step(problem, zk) - zk)
        assert reached is not None, "no convergence within 10^4 iterations"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _report(2, "shadow limit of the two-variable operator", ok, elapsed)
    assert elapsed < 30.0


def test_criterion_3_mt_shadow_limit_general_n():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    lam = 0.5
    for n in (3, 4, 5):
        for _ in range(50):
            problem = MTProblem(random_instance(rng, dims=(5,) * n))
            m = problem.governing_dim
            pz = problem.intersection().projector
            t_lam = relaxed_matrix(problem, lam)
            fwd = _forward_matrix(problem)
            x0 = rng.standard_normal(6)
            arbitrary = rng.standard_normal(m)
            for z0, point in ((arbitrary, arbitrary.reshape(n - 1, 6).mean(axis=0)),
                              (np.tile(x0, n - 1), x0)):
                target = np.tile(pz @ point, n)
                z = z0.copy()
                hit = False
                for _ in range(20_000):
                    if np.linalg.norm(fwd @ z - target) <= 1e-6:
                        hit = True
                        break
                    z = t_lam @ z
                if not hit:
                    # boundary instances (dim Z = 1) can have contraction
                    # 1 - 2e-4; jump to the 2^20-th iterate exactly
                    z = np.linalg.matrix_power(t_lam, 1 << 20) @ z0
                    hit = np.linalg.norm(fwd @ z - target) <= 1e-6
                assert hit, f"n={n}: shadow did not reach its limit"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(3, "shadow limit of the general-n operator", ok, elapsed)
    assert elapsed < 60.0


def test_criterion_4_fix_projector_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    lam = 0.5
    for make in (lambda s: RyuProblem(*s), MTProblem):
        for _ in range(20):
            problem = make(random_instance(rng))
            fix = fix_decomposition(problem)
            p = fix.projector
            m = p.shape[0]
            assert np.linalg.norm(p - p.T) <= 1e-8
            assert np.linalg.norm(p @ p - p) <= 1e-8
            z = rng.standard_normal(m)
            assert np.linalg.norm(step(problem, p @ z) - p @ z) <= 1e-8
            t_lam = relaxed_matrix(problem, lam)
            long_run = np.linalg.matrix_power(t_lam, 100_000) @ z
            assert np.linalg.norm(long_run - p @ z) <= 1e-6
    elapsed = time.perf_counter() - t0
    _report(4, "fixed-point projector correctness", True, elapsed)


def test_criterion_5_matrix_vs_functional():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    for make in (lambda s: RyuProblem(*s), MTProblem):
        for _ in range(100):
            problem = make(random_instance(rng))
            amap = operator_matrix(problem)
            z = rng.standard_normal(problem.governing_dim)
            gap = np.linalg.norm(amap(z) - step(problem, z))
            assert gap <= 1e-12, f"matrix/functional gap {gap:.3e}"
    elapsed = time.perf_counter() - t0
    _report(5, "matrix equals functional evaluation", True, elapsed)


def test_criterion_6_rate_bound_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    for _ in range(50):
        subs = random_instance(rng)
        for problem in (RyuProblem(*subs), MTProblem(subs)):
            probe = rng.standard_normal(problem.governing_dim)
            for lam in (0.3, 0.6, 0.9):
                bounds = rate_bounds(problem, lam)
                assert bounds.lower < 1.0
                fitted = asymptotic_contraction(problem, lam, probe)
                assert bounds.lower - 1e-3 <= fitted <= bounds.upper + 1e-3, (
                    f"fitted {fitted:.6f} outside "
                    f"[{bounds.lower:.6f} - 1e-3, {bounds.upper:.6f} + 1e-3]"
                )
    elapsed = time.perf_counter() - t0
    _report(6, "rate-bound sandwich", True, elapsed)


def test_criterion_7_rate_curves_qualitative():
    t0 = time.perf_counter()
    records = exp1(n_instances=200, seed=107)
    lowers = {}
    for r in records:
        if r.metric_name == "mean_spectral_radius":
            lowers.setdefault(r.algorithm, []).append((r.lam, r.metric_value))
    curves = {alg: [v for _, v in sorted(vals)] for alg, vals in lowers.items()}
    grid = sorted(lam for lam, _ in lowers["ryu"])
    ryu = curves["ryu"]
    max_step_up = max(ryu[i + 1] - ryu[i] for i in range(len(ryu) - 1))
    mt_argmin = grid[int(np.argmin(curves["mt"]))]
    elapsed = time.perf_counter() - t0
    ok = max_step_up <= 1e-3 and 0.8 <= mt_argmin < 1.0 and elapsed < 300.0
    _report(7, "experiment-1 rate curves", ok, elapsed)
    assert max_step_up <= 1e-3, f"lower-bound curve rises by {max_step_up:.2e}"
    assert 0.8 <= mt_argmin < 1.0, f"minimizer at {mt_argmin}"
    assert elapsed < 300.0


def test_criterion_8_iteration_medians_qualitative():
    t0 = time.perf_counter()
    grid = [0.3, 0.5, 0.7, 0.9]
    records = exp2(n_sets=20, n_points=20, lambda_grid=grid, seed=108)
    medians = {}
    for r in records:
        medians[(r.algorithm, r.metric_name, r.lam)] = r.metric_value
    for alg in ("ryu", "mt"):
        for metric in ("median_governing_iterations", "median_shadow_iterations"):
            series = [medians[(alg, metric, lam)] for lam in grid]
            assert all(series[i + 1] <= series[i] for i in range(len(series) - 1)), (
                f"{alg} {metric} not decreasing: {series}")
            assert series[-1] < series[0]
    for lam in (0.5, 0.9):
        for metric in ("median_governing_iterations", "median_shadow_iterations"):
            assert medians[("ryu", metric, lam)] <= medians[("mt", metric, lam)]
    for alg in ("ryu", "mt"):
        assert (medians[(alg, "median_shadow_iterations", 0.9)]
                <= medians[(alg, "median_governing_iterations", 0.9)])
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300.0
    _report(8, "experiment-2 iteration medians", ok, elapsed)
    assert elapsed < 300.0


def test_criterion_9_affine_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    lam = 0.5
    for make in (lambda s, a: RyuProblem(*s, affine_anchors=a),
                 lambda s, a: MTProblem(s, affine_anchors=a)):
        for _ in range(5):
            subs = random_instance(rng)
            v = rng.standard_normal(6)
            # distinct representatives of the same translated subspaces
            anchors = [v + s.projector @ rng.standard_normal(6) for s in subs]
            affine = make(subs, anchors)
            linear = affine.parallel()
            amap = operator_matrix(affine)
            eye = np.eye(12)
            # independent shift computation; Id - L is rank-deficient (its
            # kernel is the fixed-point space), so the cutoff must sit well
            # above eps
            a = np.linalg.pinv(eye - amap.linear, rcond=1e-12) @ amap.offset

            z_aff = rng.standard_normal(12)
            z_lin = z_aff - a
            for _ in range(300):
                z_aff = z_aff + lam * (step(affine, z_aff) - z_aff)
                z_lin = z_lin + lam * (step(linear, z_lin) - z_lin)
                assert np.linalg.norm(z_aff - a - z_lin) <= 1e-10

            start = rng.standard_normal(12)
            trace = iterate(affine, IterationConfig(lam, tol=1e-9, max_iters=20_000), start)
            assert trace.converged
            pz = nullspace_intersection([s.projector for s in subs])
            point = start[:6] if isinstance(affine, RyuProblem) else start.reshape(2, 6).mean(axis=0)
            want = np.tile(v + pz @ (point - v), 3)
            assert np.linalg.norm(trace.final_shadow - want) <= 1e-6
    elapsed = time.perf_counter() - t0
    _report(9, "affine reduction and shadow limit", True, elapsed)


def test_criterion_10_deterministic_output():
    t0 = time.perf_counter()
    kwargs1 = dict(n_instances=4, lambda_grid=[0.2, 0.5, 0.8], seed=110)
    first = records_to_csv(exp1(**kwargs1))
    second = records_to_csv(exp1(**kwargs1))
    parallel = records_to_csv(exp1(**kwargs1, jobs=2))
    kwargs2 = dict(n_sets=3, n_points=2, lambda_grid=[0.5, 0.9], seed=110)
    serial2 = records_to_csv(exp2(**kwargs2))
    parallel2 = records_to_csv(exp2(**kwargs2, jobs=2))
    ok = first == second == parallel and serial2 == parallel2
    elapsed = time.perf_counter() - t0
    _report(10, "byte-identical deterministic output", ok, elapsed)
    assert first == second == parallel
    assert serial2 == parallel2
