import numpy as np
import pytest

import splitproj.driver as driver
import splitproj.linalg as linalg
from helpers import (
    longdouble_distances,
    per_step_iterate,
    random_instance,
    random_mt,
    random_ryu,
    relaxed_matrix,
    scalar_iterate,
    scalar_iteration_counts,
    step,
    stepwise_batch_counts,
    stepwise_shadow_distances,
    whole_space,
)
from splitproj import (
    IterationConfig,
    MTProblem,
    NumericalFailure,
    RyuProblem,
    Subspace,
    asymptotic_contraction,
    batch_iteration_counts,
    fix_decomposition,
    governing_limit,
    iterate,
    iteration_counts,
    operator_norm,
    orbit,
    rate_bounds,
    rate_curve,
    shadow,
    shadow_limit,
    spectral_radius,
    tail_contraction,
)


def test_config_validation():
    with pytest.raises(ValueError):
        IterationConfig(0.0)
    with pytest.raises(ValueError):
        IterationConfig(1.0)
    with pytest.raises(ValueError):
        IterationConfig(0.5, tol=0.0)
    with pytest.raises(ValueError, match="got nan"):
        IterationConfig(0.5, tol=float("nan"))
    with pytest.raises(ValueError, match="got inf"):
        IterationConfig(0.5, tol=float("inf"))


def test_max_iters_must_be_a_nonnegative_integer():
    rng = np.random.default_rng(26)
    p = random_ryu(rng)
    start = rng.standard_normal(12)
    # 2.5 made the counts raise TypeError and iterate loop forever
    with pytest.raises(ValueError, match="max_iters must be an integer >= 0, got 2.5"):
        batch_iteration_counts(p, start[:, None], [0.5], tol=1e-300, max_iters=2.5)
    with pytest.raises(ValueError, match="got 2.5"):
        iteration_counts(p, IterationConfig(0.5, tol=1e-300, max_iters=2.5), start)
    with pytest.raises(ValueError, match="got 2.5"):
        iterate(p, IterationConfig(0.5, tol=1e-300, max_iters=2.5), start)
    for bad in (True, -1, 3.0, "3"):
        with pytest.raises(ValueError, match="max_iters"):
            IterationConfig(0.5, max_iters=bad)
    config = IterationConfig(0.5, tol=1e-300, max_iters=np.int64(3))
    assert iteration_counts(p, config, start) == (3, 3)
    assert iterate(p, config, start).iterations == 3


def test_iterate_from_fixed_point():
    rng = np.random.default_rng(0)
    p = random_ryu(rng)
    start = fix_decomposition(p).projector @ rng.standard_normal(12)
    trace = iterate(p, IterationConfig(0.5), start)
    assert trace.iterations == 0
    assert trace.converged
    assert trace.governing_distances[0] <= 1e-10


def test_iterate_converges_to_fix_projection():
    rng = np.random.default_rng(1)
    p = random_ryu(rng)
    start = rng.standard_normal(12)
    trace = iterate(p, IterationConfig(0.5, tol=1e-6, max_iters=10_000), start)
    assert trace.converged and trace.iterations <= 10_000
    limit = governing_limit(p, start)
    assert np.linalg.norm(trace.final_governing - limit) <= 1e-6


def test_governing_distances_fejer_monotone():
    rng = np.random.default_rng(2)
    for make in (random_ryu, random_mt):
        p = make(rng)
        start = rng.standard_normal(p.governing_dim)
        trace = iterate(p, IterationConfig(0.5, tol=1e-9), start)
        d = trace.governing_distances
        assert np.all(d[1:] <= d[:-1] + 1e-12)


def test_history_lengths_and_memory_guard():
    rng = np.random.default_rng(3)
    p = random_ryu(rng)
    start = rng.standard_normal(12)
    config = IterationConfig(0.5, tol=1e-6, max_iters=50)
    trace = iterate(p, config, start)
    assert len(trace.governing_distances) <= config.max_iters + 1
    assert len(trace.shadow_distances) <= config.max_iters + 1
    bare = iterate(p, config, start, record_history=False)
    assert bare.governing_distances.size == 0
    assert bare.iterations == trace.iterations


def test_shadow_of_fixed_point_is_consensus_in_intersection():
    rng = np.random.default_rng(4)
    p = random_mt(rng, n=4)
    z = fix_decomposition(p).projector @ rng.standard_normal(p.governing_dim)
    blocks = shadow(p, z).reshape(4, 6)
    pz = p.intersection().projector
    for b in blocks:
        assert np.linalg.norm(b - blocks[0]) <= 1e-8
        assert np.linalg.norm(pz @ b - b) <= 1e-8


def test_shadow_limit_formulas():
    rng = np.random.default_rng(5)
    p = random_ryu(rng)
    pz = p.intersection().projector
    start = rng.standard_normal(12)
    want = np.tile(pz @ start[:6], 3)
    assert np.allclose(shadow_limit(p, start), want)
    m = random_mt(rng, n=4)
    zs = rng.standard_normal(18)
    pz = m.intersection().projector
    want = np.tile(pz @ zs.reshape(3, 6).mean(axis=0), 4)
    assert np.allclose(shadow_limit(m, zs), want)


def test_shadow_sequence_reaches_its_limit():
    rng = np.random.default_rng(6)
    p = random_ryu(rng)
    start = rng.standard_normal(12)
    trace = iterate(p, IterationConfig(0.5, tol=1e-8), start)
    assert np.linalg.norm(trace.final_shadow - shadow_limit(p, start)) <= 1e-6


def test_rate_bounds_whole_space():
    d = 3
    p = RyuProblem(whole_space(d), whole_space(d), whole_space(d))
    for lam in (0.3, 0.8):
        bounds = rate_bounds(p, lam)
        assert bounds.lower == pytest.approx(1.0 - lam, abs=1e-12)
        assert bounds.upper == pytest.approx(1.0 - lam, abs=1e-12)


def test_rate_bounds_order_and_contraction():
    rng = np.random.default_rng(7)
    for make in (random_ryu, random_mt):
        for _ in range(5):
            p = make(rng)
            bounds = rate_bounds(p, 0.6)
            assert bounds.lower <= bounds.upper + 1e-9
            assert bounds.lower < 1.0


def test_rate_bounds_rejects_affine():
    rng = np.random.default_rng(8)
    subs = random_instance(rng)
    v = rng.standard_normal(6)
    p = RyuProblem(*subs, affine_anchors=[v, v, v])
    with pytest.raises(ValueError):
        rate_bounds(p, 0.5)
    assert rate_bounds(p.parallel(), 0.5).lower < 1.0


def _full_error_bounds(problem, lam):
    """Both rate bounds from the full error matrix T_lam - P_Fix."""
    err = relaxed_matrix(problem, lam) - fix_decomposition(problem).projector
    return spectral_radius(err), operator_norm(err)


def test_rate_curve_matches_full_error_matrix():
    rng = np.random.default_rng(22)
    lams = [round(0.01 * k, 12) for k in range(1, 100)]
    zero = Subspace(np.zeros((4, 4)))
    problems = [random_ryu(rng) for _ in range(3)]
    problems += [random_mt(rng, n=n) for n in (3, 4, 5) for _ in range(2)]
    # B = 0 for whole-space subspaces; zero subspaces give T = Id, so Fix T
    # is the whole space
    problems += [RyuProblem(whole_space(3), whole_space(3), whole_space(3)),
                 RyuProblem(zero, zero, zero), MTProblem([zero] * 4)]
    for p in problems:
        lower, upper = rate_curve(p, lams)
        assert lower.shape == upper.shape == (len(lams),)
        want = np.array([_full_error_bounds(p, lam) for lam in lams])
        assert np.max(np.abs(lower - want[:, 0])) <= 1e-12
        assert np.max(np.abs(upper - want[:, 1])) <= 1e-12
        for i in (0, 49, 98):
            bounds = rate_bounds(p, lams[i])
            assert (bounds.lower, bounds.upper) == (lower[i], upper[i])
    assert np.allclose(rate_curve(problems[-3], [0.3, 0.8]), [[0.7, 0.2]] * 2, atol=1e-12)
    assert not np.any(rate_curve(problems[-1], lams))


def test_rate_curve_validation():
    rng = np.random.default_rng(23)
    p = random_ryu(rng)
    with pytest.raises(ValueError, match=r"relaxation must lie in \(0, 1\), got 1.0"):
        rate_curve(p, [0.5, 1.0])
    with pytest.raises(ValueError, match="linear problems"):
        rate_curve(RyuProblem(*p.subspaces, affine_anchors=[np.zeros(6)] * 3), [0.5])


def _fix_complement_dim(p):
    return Subspace(np.eye(p.governing_dim) - p._fix.linear).dimension()


def test_rate_curve_retries_a_failed_stacked_svd_one_matrix_at_a_time(monkeypatch):
    rng = np.random.default_rng(24)
    p = random_mt(rng, n=4)
    r = _fix_complement_dim(p)
    lams = [0.2, 0.5, 0.8]
    want = rate_curve(p, lams)
    real_linalg_svd = linalg.svd
    shapes = []

    def fail_stacked(a, *args, **kwargs):  # the stacked Gram eigensolve
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def recorded(a):
        shapes.append(np.shape(a))
        return real_linalg_svd(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", fail_stacked)
    monkeypatch.setattr(linalg, "svd", recorded)
    lower, upper = rate_curve(p, lams)
    assert shapes == [(r, r)] * len(lams)
    assert np.array_equal(lower, want[0])
    assert np.allclose(upper, want[1], rtol=1e-13, atol=0.0)


def test_rate_curve_failures_are_numerical(monkeypatch):
    rng = np.random.default_rng(25)
    p = random_ryu(rng)
    r = _fix_complement_dim(p)
    assert r < p.governing_dim  # so that only the SVDs of the error maps fail
    real_svd = np.linalg.svd

    def eigvalsh_fail(a, *args, **kwargs):  # the stacked Gram eigensolve
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def svd_or_fail(a, *args, **kwargs):
        if np.shape(a) == (r, r):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(a, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", eigvalsh_fail)
        patch.setattr(np.linalg, "svd", svd_or_fail)
        with pytest.raises(NumericalFailure, match=f"{r}x{r}"):
            rate_curve(p, [0.5])

    def eigvals_fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", eigvals_fail)
    with pytest.raises(NumericalFailure, match=f"{r}x{r}"):
        rate_curve(p, [0.5])
    with pytest.raises(NumericalFailure, match="12x12"):
        spectral_radius(np.eye(12))


def test_tail_contraction_between_bounds():
    rng = np.random.default_rng(9)
    p = random_ryu(rng)
    lam = 0.6
    bounds = rate_bounds(p, lam)
    start = rng.standard_normal(12)
    trace = iterate(p, IterationConfig(lam, tol=1e-9, max_iters=10_000), start)
    d = trace.governing_distances
    ratios = d[1:][d[:-1] > 1e-12] / d[:-1][d[:-1] > 1e-12]
    assert np.all(ratios <= bounds.upper + 1e-6)
    assert tail_contraction(d) >= bounds.lower - 1e-3


def test_asymptotic_contraction_matches_spectral_radius():
    rng = np.random.default_rng(10)
    for make in (random_ryu, random_mt):
        for lam in (0.3, 0.9):
            p = make(rng)
            bounds = rate_bounds(p, lam)
            est = asymptotic_contraction(p, lam, rng.standard_normal(p.governing_dim))
            assert bounds.lower - 1e-4 <= est <= bounds.upper + 1e-9


@pytest.mark.parametrize("lam", [0.0, 1.0, 1.5, float("nan")])
def test_asymptotic_contraction_rejects_relaxation_outside_unit_interval(lam):
    rng = np.random.default_rng(27)
    p = random_ryu(rng)
    with pytest.raises(ValueError, match=rf"relaxation must lie in \(0, 1\), got {lam}"):
        asymptotic_contraction(p, lam, rng.standard_normal(p.governing_dim))


def test_limit_independent_of_relaxation():
    rng = np.random.default_rng(12)
    p = random_mt(rng)
    start = rng.standard_normal(12)
    finals = []
    for lam in (0.3, 0.7):
        trace = iterate(p, IterationConfig(lam, tol=1e-10, max_iters=50_000), start)
        assert trace.converged
        finals.append(trace.final_governing)
    assert np.linalg.norm(finals[0] - finals[1]) <= 1e-8
    assert np.linalg.norm(finals[0] - governing_limit(p, start)) <= 1e-8


def test_iteration_counts_match_trace_histories():
    rng = np.random.default_rng(13)
    p = random_ryu(rng)
    start = rng.standard_normal(12)
    config = IterationConfig(0.5, tol=1e-6, max_iters=10_000)
    gov, sh = iteration_counts(p, config, start)
    trace = iterate(p, IterationConfig(0.5, tol=1e-12, max_iters=10_000), start)
    gd, sd = trace.governing_distances, trace.shadow_distances
    assert gov == int(np.argmax(gd <= 1e-6))
    assert sh == int(np.argmax(sd <= 1e-6))


def test_iteration_counts_cap_at_max_iters():
    rng = np.random.default_rng(14)
    p = random_ryu(rng)
    start = rng.standard_normal(12)
    config = IterationConfig(0.5, tol=1e-30, max_iters=25)
    gov, sh = iteration_counts(p, config, start)
    assert gov == 25 and sh == 25


def test_affine_governing_limit():
    rng = np.random.default_rng(15)
    subs = random_instance(rng)
    v = rng.standard_normal(6)
    anchors = [v + s.projector @ rng.standard_normal(6) for s in subs]
    p = RyuProblem(*subs, affine_anchors=anchors)
    start = rng.standard_normal(12)
    trace = iterate(p, IterationConfig(0.5, tol=1e-9, max_iters=20_000), start)
    assert trace.converged
    assert np.linalg.norm(trace.final_governing - governing_limit(p, start)) <= 1e-8
    # shadow limit is the affine projection of the first start block
    pz = p.intersection().projector
    want = np.tile(v + pz @ (start[:6] - v), 3)
    assert np.linalg.norm(shadow_limit(p, start) - want) <= 1e-8


def _assert_same_trace(got, want, case):
    assert (got.iterations, got.converged) == (want.iterations, want.converged), case
    assert type(got.iterations) is int and type(got.converged) is bool, case
    for name in ("governing_distances", "shadow_distances", "final_governing", "final_shadow"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), (case, name)


@pytest.mark.parametrize("max_iters", [0, 1, 31, 32, 33, 64])
def test_iterate_keeps_the_bits_of_the_per_step_loop(max_iters):
    # tol 1e-8 runs to max_iters; the distance at step max_iters // 2
    # stops the run at or before that step, inside or at the edge of a block
    rng = np.random.default_rng(22)
    stops = 0
    for problem in _kernel_problems(rng)[:4]:  # Ryu and MT, linear and affine
        start = rng.standard_normal(problem.governing_dim)
        dists = per_step_iterate(problem, IterationConfig(0.6, 1e-300, 64), start)
        on_fix = governing_limit(problem, rng.standard_normal(problem.governing_dim))
        for z, tol in ((start, 1e-8), (start, dists.governing_distances[max_iters // 2]),
                       (on_fix, 1e-8)):
            config = IterationConfig(0.6, tol=tol, max_iters=max_iters)
            for record in (True, False):
                want = per_step_iterate(problem, config, z, record)
                case = (type(problem).__name__, problem.is_affine, tol, record)
                _assert_same_trace(iterate(problem, config, z, record), want, case)
                stops += want.converged
    assert stops == 16  # every run on Fix T or to the mid-run distance stops


def _kernel_problems(rng):
    """Ryu and MT (n = 3..5), each linear and with consistent anchors."""
    problems = []
    for algorithm, n in (("ryu", 3), ("mt", 3), ("mt", 4), ("mt", 5)):
        subs = random_instance(rng, dims=(5,) * n)
        v = rng.standard_normal(6)
        anchors = [v + s.projector @ rng.standard_normal(6) for s in subs]
        for a in (None, anchors):
            problems.append(RyuProblem(*subs, affine_anchors=a) if algorithm == "ryu"
                            else MTProblem(subs, affine_anchors=a))
    return problems


@pytest.mark.parametrize("max_iters", [2_000, 40])
def test_batch_counts_equal_scalar_oracle(max_iters):
    rng = np.random.default_rng(16)
    lams = (0.01, 0.5, 0.99)
    capped = 0
    for problem in _kernel_problems(rng):
        m = problem.governing_dim
        starts = [rng.standard_normal(m) for _ in range(3)]
        starts.append(governing_limit(problem, rng.standard_normal(m)))  # already converged
        columns = np.column_stack([z for z in starts for _ in lams])
        gov, sh = batch_iteration_counts(problem, columns, lams * len(starts),
                                         tol=1e-6, max_iters=max_iters)
        for j, (z, lam) in enumerate((z, lam) for z in starts for lam in lams):
            want = scalar_iteration_counts(problem, IterationConfig(lam, 1e-6, max_iters), z)
            assert (gov[j], sh[j]) == want, (type(problem).__name__, problem.n,
                                             problem.is_affine, lam)
            capped += max_iters in want
        assert gov[-len(lams):].tolist() == [0] * len(lams)
    if max_iters == 40:
        assert capped > 0


def test_batch_counts_zero_iterations_budget():
    rng = np.random.default_rng(18)
    p = random_ryu(rng)
    start = rng.standard_normal(12)
    config = IterationConfig(0.5, tol=1e-6, max_iters=0)
    gov, sh = batch_iteration_counts(p, start[:, None], [0.5], max_iters=0)
    assert (gov[0], sh[0]) == scalar_iteration_counts(p, config, start) == (0, 0)


def test_batch_counts_of_no_columns(monkeypatch):
    # an empty block once skipped every check and stepped max_iters times
    rng = np.random.default_rng(28)
    p = random_ryu(rng)
    empty = np.zeros((p.governing_dim, 0))
    with pytest.raises(ValueError, match="max_iters must be an integer >= 0, got 2.5"):
        batch_iteration_counts(p, empty, [], max_iters=2.5)
    with pytest.raises(ValueError, match="tol must be positive and finite, got nan"):
        batch_iteration_counts(p, empty, [], tol=float("nan"))
    starts = []

    def counted(*args):
        starts.append(args)
        return orbit(*args)

    monkeypatch.setattr(driver, "orbit", counted)
    gov, sh = batch_iteration_counts(p, empty, [], max_iters=100_000)
    assert not starts
    assert gov.dtype == sh.dtype == np.int64 and gov.shape == sh.shape == (0,)
    batch_iteration_counts(p, rng.standard_normal((p.governing_dim, 1)), [0.5])
    assert len(starts) == 1


def test_batch_counts_validation():
    rng = np.random.default_rng(19)
    p = random_ryu(rng)
    starts = rng.standard_normal((12, 2))
    with pytest.raises(ValueError, match="one relaxation per column"):
        batch_iteration_counts(p, starts, [0.5])
    with pytest.raises(ValueError, match="relaxation"):
        batch_iteration_counts(p, starts, [0.5, 1.0])
    with pytest.raises(ValueError, match="dimension"):
        batch_iteration_counts(p, starts[:6], [0.5, 0.5])


def test_limits_of_start_columns_match_single_starts():
    rng = np.random.default_rng(20)
    for p in _kernel_problems(rng):
        starts = rng.standard_normal((p.governing_dim, 3))
        gov = governing_limit(p, starts)
        sh = shadow_limit(p, starts)
        for j in range(3):
            assert np.allclose(gov[:, j], governing_limit(p, starts[:, j]), atol=1e-12)
            assert np.allclose(sh[:, j], shadow_limit(p, starts[:, j]), atol=1e-12)


def test_iterate_matches_forward_pass_oracle():
    rng = np.random.default_rng(21)
    stopped = capped = 0
    for problem in _kernel_problems(rng):
        m = problem.governing_dim
        for lam, max_iters, start in (
                (0.3, 5_000, rng.standard_normal(m)),
                (0.9, 5_000, rng.standard_normal(m)),
                (0.5, 30, rng.standard_normal(m)),
                (0.5, 5_000, governing_limit(problem, rng.standard_normal(m)))):
            config = IterationConfig(lam, tol=1e-8, max_iters=max_iters)
            got = iterate(problem, config, start)
            want = scalar_iterate(problem, config, start)
            case = (type(problem).__name__, problem.n, problem.is_affine, lam)
            assert (got.iterations, got.converged) == (want.iterations, want.converged), case
            for a, b in ((got.governing_distances, want.governing_distances),
                         (got.shadow_distances, want.shadow_distances)):
                assert a.shape == b.shape == (want.iterations + 1,), case
                assert np.max(np.abs(a - b)) <= 1e-12, case
            assert np.linalg.norm(got.final_shadow - want.final_shadow) <= 1e-12, case
            stopped += want.converged
            capped += not want.converged
    assert stopped > 0 and capped > 0


def test_orbit_starts_at_the_start_and_its_shadow():
    rng = np.random.default_rng(29)
    for p in _kernel_problems(rng):
        starts = rng.standard_normal((p.governing_dim, 3))
        first = next(orbit(p, starts, [0.2, 0.5, 0.9]))
        case = (type(p).__name__, p.n, p.is_affine)
        assert first.shape == (driver._BLOCK_STEPS, p.n * p.d + p.governing_dim, 3), case
        for y in first:
            z = y[-p.governing_dim:]
            want = np.vstack([np.column_stack([shadow(p, c) for c in z.T]), z])
            assert np.max(np.abs(y - want)) <= 1e-12, case
        assert np.array_equal(first[0, -p.governing_dim:], starts)


@pytest.mark.parametrize("lams", [[0.1, 0.4, 0.7, 0.95], 0.6], ids=["per-column", "scalar"])
def test_orbit_mask_keeps_the_kept_columns_on_their_own_course(lams):
    rng = np.random.default_rng(30)
    lams = np.asarray(lams)
    keep = np.array([True, False, True, True])
    for p in _kernel_problems(rng):
        starts = rng.standard_normal((p.governing_dim, 4))
        whole = orbit(p, starts, lams)
        skipped = len(next(whole))
        got = np.concatenate([whole.send(keep), next(whole)])
        fresh = orbit(p, starts[:, keep], lams[keep] if lams.ndim else lams)
        want = np.concatenate([next(fresh) for _ in range(3)])[skipped:]
        case = (type(p).__name__, p.n, p.is_affine)
        assert len(got) == len(want) == 2 * driver._BLOCK_STEPS, case
        for a, b in zip(got, want):
            assert a.shape == b.shape == (p.n * p.d + p.governing_dim, 3), case
            assert np.max(np.abs(a - b)) <= 1e-12, case


def test_orbit_steps_the_relaxed_operator():
    rng = np.random.default_rng(31)
    lams = np.array([0.3, 0.8])
    for p in _kernel_problems(rng):
        z = rng.standard_normal((p.governing_dim, 2))
        ys = orbit(p, z, lams)
        for y in np.concatenate([next(ys), next(ys)]):
            assert np.max(np.abs(y[-p.governing_dim:] - z)) <= 1e-12
            z = z + lams * (step(p, z) - z)


@pytest.mark.parametrize("k", [0, 1, 7, 99, 1200])
def test_orbit_blocks_stay_within_their_entry_budget(k):
    rng = np.random.default_rng(32)
    for p in _kernel_problems(rng):
        rows = p._step[0].shape[0]
        blocks = orbit(p, rng.standard_normal((p.governing_dim, k)), 0.5)
        first = next(blocks)
        halved = blocks.send(np.arange(k) < k // 2)  # takes effect at this block
        for width, block in ((k, first), (k // 2, halved)):
            steps = len(block)
            assert block.shape[2] == width
            assert 1 <= steps <= driver._BLOCK_STEPS
            assert steps == 1 or steps * rows * width <= driver._BLOCK_ENTRIES, (k, width)
        if k == 1:
            assert len(first) == driver._BLOCK_STEPS
        if k == 1200:
            assert len(first) == 1


def _first_steps(blocks, n):
    """The first ``n`` steps of an `orbit`, across its blocks."""
    out = []
    while sum(map(len, out)) < n:
        out.append(next(blocks))
    return np.concatenate(out)[:n]


@pytest.mark.parametrize("k", [1, 3, 40])
def test_stacked_orbit_equals_each_problem_s_own_orbit(k):
    # linear and affine Ryu and MT problems of one step shape step as one
    # stack, in blocks of other lengths than their own, to the same bits
    rng = np.random.default_rng(34)
    groups = {}
    for p in _kernel_problems(rng):
        groups.setdefault(p._step[0].shape, []).append(p)
    assert sorted(map(len, groups.values())) == [2, 2, 4]  # Ryu and MT at n = 3
    lams = rng.uniform(0.05, 0.99, k)
    for problems in groups.values():
        starts = rng.standard_normal((len(problems), problems[0].governing_dim, k))
        got = _first_steps(orbit(problems, starts, lams), 70)
        assert got.shape == (70, len(problems), problems[0]._step[0].shape[0]
                             - problems[0].governing_dim, k)
        for p, s, mine in zip(problems, starts, got.swapaxes(0, 1)):
            assert np.array_equal(mine, _first_steps(orbit(p, s, lams), 70))
        # a mask keeps the same columns of every problem
        keep = np.arange(k) % 3 != 1
        whole = orbit(problems, starts, lams)
        skipped = len(next(whole))
        kept = whole.send(keep)
        fresh = _first_steps(orbit(problems, starts[..., keep], lams[keep]),
                             skipped + len(kept))
        assert np.max(np.abs(kept - fresh[skipped:])) <= 1e-12


def test_stacked_orbit_needs_one_step_shape():
    rng = np.random.default_rng(35)
    problems = [random_ryu(rng), random_mt(rng, n=4)]
    with pytest.raises(ValueError, match="one step shape"):
        next(orbit(problems, [np.zeros((12, 1)), np.zeros((18, 1))], 0.5))


def test_batch_counts_equal_the_stepwise_oracle_at_block_edges():
    # the oracle steps the iterate, the kernel the error; away from rounding
    # ties at tol the counts agree exactly, across block edges and a budget
    # that ends inside a block
    rng = np.random.default_rng(33)
    mid_block = 0
    for p in _kernel_problems(rng):
        m = p.governing_dim
        for k in (1, 99, 400):  # 400 columns take one step per block
            starts = rng.standard_normal((m, k))
            starts[:, 1::5] = governing_limit(p, starts[:, 1::5])  # converged at step 0
            lams = rng.uniform(0.05, 0.99, k)
            assert k < 400 or len(next(orbit(p, starts, lams))) == 1
            for max_iters in (0, 1, 31, 32, 33):
                for tol in (1e-1, 1e-6):
                    got = batch_iteration_counts(p, starts, lams, tol, max_iters)
                    want = stepwise_batch_counts(p, starts, lams, tol, max_iters)
                    case = (type(p).__name__, p.n, p.is_affine, k, max_iters, tol)
                    assert np.array_equal(got[0], want[0]), case
                    assert np.array_equal(got[1], want[1]), case
                    if k == 1:  # one block of 32 steps, then the next
                        c = np.concatenate(want)
                        mid_block += np.count_nonzero((0 < c) & (c < min(max_iters, 32)))
        got = batch_iteration_counts(p, starts[:, :40], lams[:40], 1e-6, 200)
        assert all(map(np.array_equal, got, stepwise_batch_counts(p, starts[:, :40], lams[:40],
                                                                  1e-6, 200)))
    assert mid_block > 0


def _orbit_steps(monkeypatch):
    """Patch `driver.orbit` to count the steps it yields; returns the count."""
    steps = [0]

    def counted(*args):
        blocks = orbit(*args)
        keep = None
        while True:
            block = blocks.send(keep)
            steps[0] += len(block)
            keep = yield block

    monkeypatch.setattr(driver, "orbit", counted)
    return steps


def test_batch_counts_switch_to_propagators_mid_run(monkeypatch):
    # 40 columns step through orbit until the six slow ones are all that is
    # live (they fit a full block up to n = 5); those finish on propagated
    # blocks
    steps = _orbit_steps(monkeypatch)
    rng = np.random.default_rng(34)
    for p in _kernel_problems(rng):
        starts = rng.standard_normal((p.governing_dim, 40))
        lams = np.r_[rng.uniform(0.3, 0.99, 34), 0.05, 0.06, 0.06, 0.07, 0.08, 0.08]
        rows = p._step[0].shape[0]
        assert 40 * rows * driver._BLOCK_STEPS > driver._BLOCK_ENTRIES
        assert 6 * rows * driver._BLOCK_STEPS <= driver._BLOCK_ENTRIES
        steps[0] = 0
        got = batch_iteration_counts(p, starts, lams, 1e-6, 20_000)
        want = stepwise_batch_counts(p, starts, lams, 1e-6, 20_000)
        case = (type(p).__name__, p.n, p.is_affine)
        assert all(map(np.array_equal, got, want)), case
        assert 0 < steps[0] < np.max(want) // 2, case


@pytest.mark.parametrize("max_iters", [33, 50, 63, 64, 65, 100])
def test_batch_counts_budget_ends_inside_a_propagated_block(max_iters, monkeypatch):
    steps = _orbit_steps(monkeypatch)
    rng = np.random.default_rng(35)
    capped = 0
    problems = _kernel_problems(rng)
    for p in problems:
        starts = rng.standard_normal((p.governing_dim, 3))
        lams = [0.01, 0.2, 0.02]
        for tol in (1e-6, 1e-2):
            got = batch_iteration_counts(p, starts, lams, tol, max_iters)
            want = stepwise_batch_counts(p, starts, lams, tol, max_iters)
            assert all(map(np.array_equal, got, want)), (type(p).__name__, p.n, tol)
            capped += np.count_nonzero(np.concatenate(want) == max_iters)
    assert capped > 0
    # three columns fit a full block, so orbit gives only each call's first
    assert steps[0] == len(problems) * 2 * driver._BLOCK_STEPS


def test_batch_counts_of_columns_that_share_a_relaxation():
    # exp2's layout: every point at every relaxation, column j * len(grid) + l
    rng = np.random.default_rng(36)
    grid = np.array([0.05, 0.3, 0.97])
    for p in _kernel_problems(rng):
        points = rng.standard_normal((p.governing_dim, 3))
        starts = np.repeat(points, len(grid), axis=1)
        lams = np.tile(grid, 3)
        got = batch_iteration_counts(p, starts, lams, 1e-6, 10_000)
        want = stepwise_batch_counts(p, starts, lams, 1e-6, 10_000)
        case = (type(p).__name__, p.n, p.is_affine)
        assert all(map(np.array_equal, got, want)), case
        for j in range(starts.shape[1]):
            one = batch_iteration_counts(p, starts[:, j:j + 1], lams[j:j + 1], 1e-6, 10_000)
            assert (got[0][j], got[1][j]) == (one[0][0], one[1][0]), case


def test_counts_that_moved_with_error_stepping_match_extended_precision():
    # the only two of exp2_counts(n_sets=3, n_points=10, seed=4, tol=1e-9,
    # max_iters=3000) that iterate stepping counted one step early: its
    # distance at the step before lies within rounding of tol, above it
    from splitproj.cli import _instances, _start_points, exp2_counts

    counts = exp2_counts(n_sets=3, n_points=10, seed=4, tol=1e-9, max_iters=3000)
    for algorithm, lam, row, want in (("ryu", 0.07, 1, 1149), ("mt", 0.87, 0, 258)):
        assert counts[(algorithm, lam)][22, row] == want  # set 2, point 2
        (_, p, starts), = _instances(4, 2, 6, (5, 5, 5), (algorithm,), _start_points(4, 10, 6))
        dist = longdouble_distances(p, starts[:, 2], lam, want)[row]
        assert np.flatnonzero(dist <= 1e-9).tolist() == [want]
        assert dist[want - 1] < 1.00002e-9


@pytest.mark.parametrize("n_iters", [1, 32, 33])
def test_exp3_traces_follow_the_stepwise_oracle(n_iters):
    from splitproj.cli import _build_problem, _exp3_worker, _instance_subspaces, _start_points

    out = _exp3_worker((2, range(1, 2), 6, (5, 5, 5), 0.9, ("ryu", "mt"), 7, n_iters))
    subs = _instance_subspaces(2, 1, 6, (5, 5, 5))
    x0 = _start_points(2, 7, 6)
    for algorithm in ("ryu", "mt"):
        p = _build_problem(algorithm, subs)
        want = stepwise_shadow_distances(p, np.tile(x0, (2, 1)), 0.9, n_iters)
        assert out[algorithm].shape == want.shape == (7, n_iters)
        assert np.max(np.abs(out[algorithm] - want)) <= 1e-12
