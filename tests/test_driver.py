import numpy as np
import pytest

import splitproj.driver as driver
import splitproj.linalg as linalg
from helpers import (
    count_margins,
    longdouble_distances,
    mixed_problems,
    per_step_iterate,
    random_instance,
    random_mt,
    random_ryu,
    relaxed_matrix,
    scalar_iterate,
    scalar_iteration_counts,
    split_errors,
    split_longdouble_distances,
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
    forward_blocks,
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
from splitproj.cli import _instances
from splitproj.splitting import _fill_fix_spaces


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


@pytest.mark.parametrize("lam", ["0.5", ["0.5"], None, 0.5 + 0j],
                         ids=["text", "text-list", "none", "complex"])
def test_relaxations_must_be_real_numbers(lam):
    # a string used to be cast to a float here and fail later in the writers
    with pytest.raises(ValueError, match="^relaxation must be a real number, got "):
        IterationConfig(lam)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("make", [random_ryu, random_mt], ids=["ryu", "mt"])
def test_non_finite_governing_vectors_are_rejected(make, bad):
    # a NaN start used to count as a capped run, and iterate took every step
    # of its budget to report converged=False
    p = make(np.random.default_rng(3))
    start = np.ones(p.governing_dim)
    start[2] = bad
    config = IterationConfig(0.5)
    calls = [lambda: iterate(p, config, start), lambda: iteration_counts(p, config, start),
             lambda: batch_iteration_counts(p, start[:, None], [0.5]),
             lambda: governing_limit(p, start), lambda: shadow_limit(p, start),
             lambda: forward_blocks(p, start),
             lambda: next(orbit([p], start[None, :, None], 0.5))]
    for call in calls:
        with pytest.raises(ValueError, match="^governing vector must be finite$"):
            call()


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


def _part_widths(p):
    """The Fix^perp dimensions of T on (Z^perp)^{n-1} and on Z^{n-1} for one
    direction of Z (0 if Z = {0}): there T is (x, y) -> (x, 0) for Ryu and
    the cyclic block shift for MT, whose Fix^perp dimensions are 1 and n - 2."""
    z = p.intersection().dimension()
    on_z = 1 if isinstance(p, RyuProblem) else p.n - 2
    return _fix_complement_dim(p) - z * on_z, on_z if z else 0


def test_rate_curve_retries_a_failed_stacked_svd_one_matrix_at_a_time(monkeypatch):
    rng = np.random.default_rng(24)
    p = random_mt(rng, n=4)
    perp, on_z = _part_widths(p)
    assert (perp, on_z) == (12, 2)
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
    # the restriction to one direction of Z, (n - 1) square, comes first
    assert shapes == [(on_z, on_z)] * len(lams) + [(perp, perp)] * len(lams)
    assert np.array_equal(lower, want[0])
    assert np.allclose(upper, want[1], rtol=1e-13, atol=0.0)


def test_rate_curve_failures_are_numerical(monkeypatch):
    rng = np.random.default_rng(25)
    p = random_ryu(rng)
    perp, on_z = _part_widths(p)
    assert (perp, on_z) == (6, 1)
    real_svd = np.linalg.svd

    def eigvalsh_fail(a, *args, **kwargs):  # the stacked Gram eigensolve
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def svd_or_fail(a, *args, **kwargs):  # the bases come from stacked SVDs
        if np.shape(a) == (perp, perp):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(a, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", eigvalsh_fail)
        patch.setattr(np.linalg, "svd", svd_or_fail)
        with pytest.raises(NumericalFailure, match=f"{perp}x{perp}"):
            rate_curve(p, [0.5])

    def eigvals_fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", eigvals_fail)
    with pytest.raises(NumericalFailure, match=f"{on_z}x{on_z} matrix"):  # the Z part's, first
        rate_curve(p, [0.5])
    with pytest.raises(NumericalFailure, match="12x12"):
        spectral_radius(np.eye(12))


def _z_perp_dims(problems):
    return [p.d - p.intersection().dimension() for p in problems]


def test_stacked_rate_curves_equal_each_problem_alone():
    rng = np.random.default_rng(27)
    lams = [round(0.01 * k, 12) for k in range(1, 100)]
    problems = mixed_problems(rng)
    assert [_fix_complement_dim(p) for p in problems] == [9, 12, 7, 0, 9, 3, 12, 9, 7, 8]
    # (n, d) = (3, 6) and (4, 4); Z^perp is all of R^d, a part of it, or {0}
    assert _z_perp_dims(problems) == [3, 6, 1, 4, 3, 6, 6, 3, 1, 0]
    lower, upper = driver._rate_curves(problems, lams)
    assert lower.shape == upper.shape == (len(problems), len(lams))
    for i, p in enumerate(problems):
        want = rate_curve(p, lams)
        assert np.array_equal(lower[i], want[0]) and np.array_equal(upper[i], want[1]), i
    assert not np.any(lower[3]) and not np.any(upper[3])
    assert driver._rate_curves(problems, []).shape == (2, len(problems), 0)


def test_stacked_rate_curves_retry_a_failed_basis_svd_one_matrix_at_a_time(monkeypatch):
    rng = np.random.default_rng(28)
    lams = [0.1, 0.5, 0.9]
    problems = mixed_problems(rng)
    want = driver._rate_curves(problems, lams)  # also builds each split along Z and T
    real_svd = np.linalg.svd
    failed = []

    def fail_stacked(a, *args, **kwargs):
        if np.ndim(a) == 3:
            failed.append(np.shape(a))
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fail_stacked)
    lower, upper = driver._rate_curves(problems, lams)
    # the splits along Z are built, so the failed SVDs are one of
    # Id - P_Fix per (n, d), rank r = dim Z^perp and side: n - 1 square on a
    # direction of Z (r < d), then (n - 1) r on Z^perp (r > 0).  (3, 6) has
    # r = 1, 3, 6 for 2, 3, 3 problems, and (4, 4) r = 0 and 4 for one each
    assert failed == [(2, 2, 2), (2, 2, 2), (3, 2, 2), (3, 6, 6), (3, 12, 12), (1, 3, 3),
                      (1, 12, 12)]
    assert np.array_equal(lower, want[0]) and np.array_equal(upper, want[1])


def _floors(lams, n):
    """The rate curves of T on Z^{n-1}: 1 - lam for Ryu (``n`` is None) and, for MT
    on n subspaces, max |1 - lam + lam w| over the (n - 1)-th roots of unity w != 1."""
    lams = np.asarray(lams)
    if n is None:
        return 1.0 - lams
    w = np.exp(2j * np.pi * np.arange(1, n - 1) / (n - 1))
    return np.abs(1.0 - lams[:, None] + lams[:, None] * w).max(-1)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("d", [1, 2, 6])
def test_rate_curves_of_whole_spaces_are_the_closed_form_floor(n, d):
    # Z = R^d: T is (x, y) -> (x, 0) (Ryu) or the cyclic block shift (MT),
    # both normal, so both curves are the moduli of its relaxed eigenvalues
    lams = [round(0.01 * k, 12) for k in range(1, 100)]
    problems = [MTProblem([whole_space(d)] * n)]
    floors = [_floors(lams, n)]
    if n == 3:
        problems.append(RyuProblem(*[whole_space(d)] * 3))
        floors.append(_floors(lams, None))
    curves = driver._rate_curves(problems, lams)
    for side in curves:
        assert np.max(np.abs(side - floors)) <= 1e-14
    assert np.max(np.abs(_floors(lams, 3) - np.abs(1.0 - 2.0 * np.array(lams)))) <= 1e-15


def test_rate_curves_with_a_nonzero_intersection_never_fall_below_the_floor():
    lams = [round(0.01 * k, 12) for k in range(1, 100)]
    instances = _instances(0, range(200), 6, (5, 5, 5), ("ryu", "mt"))
    for algorithm, problems in instances.items():
        assert {p.intersection().dimension() for p in problems} == {3}
        _fill_fix_spaces(problems)
        lower, upper = driver._rate_curves(problems, lams)
        floor = _floors(lams, None if algorithm == "ryu" else 3)
        assert np.all(lower >= floor - 1e-13) and np.all(upper >= lower - 1e-13)
        if algorithm == "mt":
            # |1 - 2 lam| is MT's whole lower curve on about a tenth of the pairs,
            # and it rises past lam = 1/2, which keeps MT's best lam well below 1
            assert 0.05 < np.mean(np.abs(lower - floor) <= 1e-12) < 0.15


def test_rate_curve_takes_fix_perp_by_the_projector_rank_rule():
    # MT at n = 3 with dims (6, 5, 6): the closed-form P_Fix leaves roundoff on
    # a fixed direction, which a rank cutoff of 1e-12 put into Fix^perp, where
    # the lower bound read 1.0000000000011, above 1, which an averaged map
    # cannot have; at lam = 0.67 it is MT's floor on Z, |1 - 2 lam|
    p = mixed_problems(np.random.default_rng(293))[8]
    lower, upper = rate_curve(p, [0.67])
    assert abs(lower[0] - 0.34) <= 1e-9 and lower[0] <= upper[0] < 1.0


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
    shapes = _tested_blocks(monkeypatch)
    gov, sh = batch_iteration_counts(p, empty, [], max_iters=100_000)
    assert not shapes
    assert gov.dtype == sh.dtype == np.int64 and gov.shape == sh.shape == (0,)
    batch_iteration_counts(p, rng.standard_normal((p.governing_dim, 1)), [0.5])
    assert shapes and all(s[2] == 1 for s in shapes)


def test_batch_counts_take_budgets_up_to_the_int64_limit():
    # the counts are int64; a larger budget was an OverflowError from np.full
    p = random_ryu(np.random.default_rng(41))
    start = np.ones((p.governing_dim, 1))
    with pytest.raises(ValueError, match=r"^max_iters must be at most 2\*\*63 - 1, got 10{20}$"):
        batch_iteration_counts(p, start, [0.5], max_iters=10 ** 20)
    with pytest.raises(ValueError, match=r"at most 2\*\*63 - 1, got 9223372036854775808$"):
        IterationConfig(0.5, max_iters=2 ** 63)
    top = np.iinfo(np.int64).max
    assert batch_iteration_counts(p, start, [0.5], max_iters=top) == \
        batch_iteration_counts(p, start, [0.5])


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
        first = next(orbit([p], starts[None], [0.2, 0.5, 0.9]))[:, 0]
        case = (type(p).__name__, p.n, p.is_affine)
        assert first.shape == (driver._BLOCK_STEPS, p.n * p.d + p.governing_dim, 3), case
        for y in first:
            z = y[-p.governing_dim:]
            want = np.vstack([np.column_stack([shadow(p, c) for c in z.T]), z])
            assert np.max(np.abs(y - want)) <= 1e-12, case
        assert np.array_equal(first[0, -p.governing_dim:], starts)


def test_orbit_steps_the_relaxed_operator():
    rng = np.random.default_rng(31)
    lams = np.array([0.3, 0.8])
    for p in _kernel_problems(rng):
        z = rng.standard_normal((p.governing_dim, 2))
        ys = orbit([p], z[None], lams)
        for y in np.concatenate([next(ys), next(ys)])[:, 0]:
            assert np.max(np.abs(y[-p.governing_dim:] - z)) <= 1e-12
            z = z + lams * (step(p, z) - z)


@pytest.mark.parametrize("k", [0, 1, 7, 99, 1200])
def test_orbit_blocks_stay_within_their_entry_budget(k):
    rng = np.random.default_rng(32)
    for p in _kernel_problems(rng):
        rows = p._step[0].shape[0]
        blocks = orbit([p], rng.standard_normal((1, p.governing_dim, k)), 0.5)
        first = next(blocks)
        for block in (first, next(blocks)):
            steps = len(block)
            assert block.shape[1:] == (1, rows - p.governing_dim, k)
            assert 1 <= steps <= driver._BLOCK_STEPS
            assert steps == 1 or steps * rows * k <= driver._BLOCK_ENTRIES, k
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
            assert np.array_equal(mine, _first_steps(orbit([p], s[None], lams), 70)[:, 0])


def test_stacked_orbit_needs_one_step_shape():
    rng = np.random.default_rng(35)
    problems = [random_ryu(rng), random_mt(rng, n=4)]
    with pytest.raises(ValueError, match="one step shape"):
        next(orbit(problems, [np.zeros((12, 1)), np.zeros((18, 1))], 0.5))


def test_batch_counts_equal_the_stepwise_oracle_at_block_edges(monkeypatch):
    # the oracle steps the iterate, the kernel the error; away from rounding
    # ties at tol the counts agree exactly, across block edges and a budget
    # that ends inside a block
    shapes = _tested_blocks(monkeypatch)
    rng = np.random.default_rng(33)
    mid_block = 0
    for p in _kernel_problems(rng):
        m = p.governing_dim
        for k in (1, 99, 1200):  # 1200 columns start with blocks of one step
            starts = rng.standard_normal((m, k))
            starts[:, 1::5] = governing_limit(p, starts[:, 1::5])  # converged at step 0
            lams = rng.uniform(0.05, 0.99, k)
            for max_iters in (0, 1, 31, 32, 33):
                for tol in (1e-1, 1e-6):
                    shapes.clear()
                    got = batch_iteration_counts(p, starts, lams, tol, max_iters)
                    assert k < 1200 or shapes[0][0] == 1
                    assert all(s[0] == 1 or np.prod(s) <= driver._BLOCK_ENTRIES for s in shapes)
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


def _tested_blocks(monkeypatch):
    """Patch the numpy of `driver` so that the counts kernel records the
    ``(steps, rows, columns)`` shape of each block it tests, rows counting
    the shadow and the error rows; returns the list."""
    shapes, rows = [], []

    def recorded(subscripts, block, *args):  # (rows, steps, columns): the shadow, then the error
        rows.append(block.shape[0])
        if len(rows) % 2 == 0:
            shapes.append((block.shape[1], sum(rows[-2:]), block.shape[2]))
        return np.einsum(subscripts, block, *args)

    class Numpy:
        einsum = staticmethod(recorded)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(driver, "np", Numpy())
    return shapes


def _no_skips(monkeypatch):
    """Patch `driver._skips` to certify no step, so that every column steps
    from its start error through the stepped and propagated blocks that the
    shape tests pin."""
    monkeypatch.setattr(driver, "_skips", lambda f, d, x, *args: np.zeros(x.shape[1]))


def _propagated(monkeypatch, shapes):
    """Patch `driver._propagators` to record how many blocks ``shapes`` (of
    `_tested_blocks`) holds when it is called: the blocks stepped one step
    at a time before the first propagated one.  Returns the list."""
    calls, real = [], driver._propagators

    def recorded(*args):
        calls.append(len(shapes))
        return real(*args)

    monkeypatch.setattr(driver, "_propagators", recorded)
    return calls


def test_batch_counts_switch_to_propagators_mid_run(monkeypatch):
    # 70 columns step one step at a time until the six slow ones are all
    # that is live (they fit a full round up to n = 5); those finish on
    # propagated blocks
    shapes = _tested_blocks(monkeypatch)
    switches = _propagated(monkeypatch, shapes)
    rng = np.random.default_rng(34)
    for p in _kernel_problems(rng):
        starts = rng.standard_normal((p.governing_dim, 70))
        lams = np.r_[rng.uniform(0.3, 0.99, 64), 0.05, 0.06, 0.06, 0.07, 0.08, 0.08]
        shapes.clear()
        switches.clear()
        got = batch_iteration_counts(p, starts, lams, 1e-6, 20_000)
        want = stepwise_batch_counts(p, starts, lams, 1e-6, 20_000)
        case = (type(p).__name__, p.n, p.is_affine)
        assert all(map(np.array_equal, got, want)), case
        # the shadow and error rows on Z^perp and on Z
        rows = shapes[0][1]
        assert rows == {3: 12 + 7, 4: 24 + 16, 5: 30 + 23}[p.n], case
        assert 70 * rows * driver._BLOCK_STEPS > driver._BLOCK_ENTRIES
        assert 6 * rows * driver._BLOCK_STEPS <= driver._BLOCK_ENTRIES
        [first] = switches
        assert 0 < sum(s[0] for s in shapes[:first]) < np.max(want) // 2, case
        # a block is stepped while its columns are too many for a round
        assert all(c * rows * driver._BLOCK_STEPS > driver._BLOCK_ENTRIES
                   for _, _, c in shapes[1:first]), case
        assert shapes[first][2] * rows * driver._BLOCK_STEPS <= driver._BLOCK_ENTRIES, case


@pytest.mark.parametrize("max_iters", [33, 50, 63, 64, 65, 100])
def test_batch_counts_budget_ends_inside_a_propagated_block(max_iters, monkeypatch):
    _no_skips(monkeypatch)
    shapes = _tested_blocks(monkeypatch)
    switches = _propagated(monkeypatch, shapes)
    rng = np.random.default_rng(35)
    capped = 0
    problems = _kernel_problems(rng)
    for p in problems:
        starts = rng.standard_normal((p.governing_dim, 3))
        lams = [0.01, 0.2, 0.02]
        for tol in (1e-6, 1e-2):
            shapes.clear()
            switches.clear()
            got = batch_iteration_counts(p, starts, lams, tol, max_iters)
            want = stepwise_batch_counts(p, starts, lams, tol, max_iters)
            assert all(map(np.array_equal, got, want)), (type(p).__name__, p.n, tol)
            capped += np.count_nonzero(np.concatenate(want) == max_iters)
            # three columns fit a full round, so only each call's first block
            # is stepped, and the propagated ones stop at the budget
            assert shapes[0][0] == driver._BLOCK_STEPS and switches == [1]
            assert sum(s[0] for s in shapes) <= max_iters + 1
    assert capped > 0


def test_lone_slow_column_finishes_on_multi_round_blocks(monkeypatch):
    # a lone lambda = 0.01 column takes thousands of steps, nearly all of
    # them in blocks of many rounds, each round from the one before
    rng = np.random.default_rng(37)
    _no_skips(monkeypatch)
    shapes = _tested_blocks(monkeypatch)
    for p in _kernel_problems(rng)[:6]:  # Ryu, and MT at n = 3 and 4
        start = rng.standard_normal((p.governing_dim, 1))
        shapes.clear()
        got = batch_iteration_counts(p, start, [0.01], 1e-6, 20_000)
        want = stepwise_batch_counts(p, start, [0.01], 1e-6, 20_000)
        case = (type(p).__name__, p.n, p.is_affine)
        assert all(map(np.array_equal, got, want)), case
        assert min(want[0][0], want[1][0]) > 1_000, case
        rows = shapes[0][1]
        rounds = driver._BLOCK_ENTRIES // (driver._BLOCK_STEPS * rows)
        assert rounds > 1
        assert [s[0] for s in shapes[:3]] == [driver._BLOCK_STEPS] + 2 * [
            rounds * driver._BLOCK_STEPS], case


@pytest.mark.parametrize("max_iters", [127, 128, 129, 1_000])
def test_batch_counts_budget_ends_inside_a_multi_round_block(max_iters, monkeypatch):
    # after the first block's 32 stepped steps, rounds start at steps 32, 64,
    # 96, 128, ...; the budget ends one step before, at and one step after
    # the start of a round, or several blocks later
    _no_skips(monkeypatch)
    shapes = _tested_blocks(monkeypatch)
    rng = np.random.default_rng(38)
    capped = 0
    for p in _kernel_problems(rng):
        starts = rng.standard_normal((p.governing_dim, 3))
        lams = [0.01, 0.2, 0.02]
        for tol in (1e-6, 1e-2):
            shapes.clear()
            got = batch_iteration_counts(p, starts, lams, tol, max_iters)
            want = stepwise_batch_counts(p, starts, lams, tol, max_iters)
            assert all(map(np.array_equal, got, want)), (type(p).__name__, p.n, tol)
            capped += np.count_nonzero(np.concatenate(want) == max_iters)
            assert sum(s[0] for s in shapes) <= max_iters + 1
            assert max(s[0] for s in shapes) > driver._BLOCK_STEPS
    assert capped > 0


def test_narrow_blocks_hold_at_most_block_entries(monkeypatch):
    # the steps or the rounds of a block, of every live column, fit in
    # _BLOCK_ENTRIES; only a block of one step may hold more
    shapes = _tested_blocks(monkeypatch)
    rng = np.random.default_rng(39)
    for p in _kernel_problems(rng):
        for k in (1, 2, 5, 12, 40):
            starts = rng.standard_normal((p.governing_dim, k))
            lams = np.r_[rng.uniform(0.01, 0.05, 1), rng.uniform(0.01, 0.99, k - 1)]
            got = batch_iteration_counts(p, starts, lams, 1e-6, 5_000)
            want = stepwise_batch_counts(p, starts, lams, 1e-6, 5_000)
            assert all(map(np.array_equal, got, want)), (type(p).__name__, p.n, k)
    assert all(s[0] == 1 or np.prod(s) <= driver._BLOCK_ENTRIES for s in shapes)
    # one column of 19 rows: 12 shadow and 7 error rows, in 26 rounds
    rounds = driver._BLOCK_ENTRIES // (19 * driver._BLOCK_STEPS)
    assert max(s[0] for s in shapes) == rounds * driver._BLOCK_STEPS


@pytest.mark.parametrize("budget", [1, 49, 98, 500, 1 << 14])
def test_jumped_keeps_the_bits_of_one_gather_in_column_chunks(budget, monkeypatch):
    # M^s x per column from gathers of at most budget entries (of at least one
    # 7 x 7 power) equals the one gather of every odd column of a squaring
    rng = np.random.default_rng(41)
    d = -rng.uniform(0.0, 1.0, (7, 7)) / 7
    lam = np.sort(rng.choice([0.1, 0.5, 0.9], 99))
    x, skips = rng.standard_normal((7, 99)), rng.integers(0, 200, 99)
    power, at, want = np.eye(7) + lam[:, None, None] * d, np.arange(99), x.copy()
    steps = skips.copy()
    while steps.any():
        odd = np.flatnonzero(steps & 1)
        want[:, odd] = (power[at[odd]] @ want.T[odd, :, None])[..., 0].T
        steps, power = steps >> 1, power @ power
    monkeypatch.setattr(driver, "_BLOCK_ENTRIES", budget)
    assert np.array_equal(driver._jumped(d, x, lam, skips), want)


def test_counts_kernel_memory_stays_within_the_block_budget_at_scale():
    # MT at n = 10 in R^20 with 19-dimensional subspaces: m = 154 rows of the
    # split error, 500 columns (100 exp2 start points at 5 relaxations).  Past
    # the gathered powers, bounded by _BLOCK_ENTRIES or one m x m power, the
    # kernel holds a few arrays of rows x columns entries (rows = 334 < 3 m),
    # complex in _skips, and a few lam x m^2 power stacks; one gather of every
    # odd column's power would hold columns x m^2 / 2 on average, 45 MiB here
    import tracemalloc

    from splitproj.cli import _start_points

    [p] = _instances(0, range(1), 20, (19,) * 10, ("mt",))["mt"]
    grid = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    starts = np.tile(np.repeat(_start_points(0, 100, 20), len(grid), axis=1), (p.n - 1, 1))
    m, columns = 154, starts.shape[1]
    entries = 2 * 4 * 3 * m * columns + 3 * len(grid) * m**2 + max(driver._BLOCK_ENTRIES, m**2)
    tracemalloc.start()
    try:
        got = batch_iteration_counts(p, starts, np.tile(grid, 100), 1e-6, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert driver._split_errors(p.parallel(), starts[:, :1])[1].shape == (m, m)
    assert peak < 8 * entries, (peak, 8 * entries)
    assert got[0].min() > 0 and np.all(got[0] < 10_000)


@pytest.mark.parametrize("skips", [True, False], ids=["spectral-start", "no-skips"])
def test_the_block_budget_moves_no_count(skips, monkeypatch):
    # _BLOCK_ENTRIES only sizes the counts kernel's blocks.  exp2's layout, one
    # start point (narrow) or 20 (wide at every budget) at each of the 99
    # relaxations, gives the same counts at every budget from 2^12 to 2^16,
    # those of the stepwise oracle except on a rounding tie: a crossing within
    # 1e-5 of tol, relatively, where the kernel's are the extended-precision
    # counts.  Without skips every column steps through the budget's blocks.
    from splitproj.cli import _instances, _start_points, default_lambda_grid

    if not skips:
        _no_skips(monkeypatch)
    grid = np.array(default_lambda_grid())
    for algorithm, dims in (("ryu", (5, 5, 5)), ("mt", (5, 5, 5)), ("mt", (5, 5, 5, 5))):
        [p] = _instances(2, range(1), 6, dims, (algorithm,))[algorithm]
        for points in (1, 20):
            starts = np.tile(np.repeat(_start_points(2, points, 6), len(grid), axis=1),
                             (p.n - 1, 1))
            lams = np.tile(grid, points)
            for tol in (1e-6, 1e-9):
                case = (algorithm, p.n, points, tol)
                got = []
                for budget in (1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16):
                    monkeypatch.setattr(driver, "_BLOCK_ENTRIES", budget)
                    got.append(np.array(batch_iteration_counts(p, starts, lams, tol, 10_000)))
                assert all(np.array_equal(g, got[0]) for g in got[1:]), case
                want = np.array(stepwise_batch_counts(p, starts, lams, tol, 10_000))
                ties = np.flatnonzero((got[0] != want).any(axis=0))
                if ties.size:
                    margins, exact = count_margins(p, starts[:, ties], lams[ties], tol,
                                                   got[0][:, ties], 10_000)
                    assert np.array_equal(exact, got[0][:, ties]), case
                    assert np.all(margins[got[0][:, ties] != want[:, ties]] < 1e-5), case


def test_batch_counts_of_a_linear_problem_start_from_its_fix_t_projector():
    # the counts kernel takes every start error from governing_limit; for a
    # linear problem P_FixT has no offset, so those errors are the ones of the
    # Fix T projector bit for bit
    rng = np.random.default_rng(40)
    for p in _kernel_problems(rng)[::2]:
        z = rng.standard_normal((p.governing_dim, 3))
        assert not p.is_affine and not np.any(p._fix.offset)
        assert np.array_equal(z - governing_limit(p, z), z - p._fix_space.projector @ z)
        got = batch_iteration_counts(p, z, [0.3] * 3, 1e-6, 10_000)
        assert all(map(np.array_equal, got, stepwise_batch_counts(p, z, [0.3] * 3, 1e-6, 10_000)))


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
        [p] = _instances(4, range(2, 3), 6, (5, 5, 5), (algorithm,))[algorithm]
        start = np.tile(_start_points(4, 10, 6)[:, 2], p.n - 1)
        dist = longdouble_distances(p, start, lam, want)[row]
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


def test_stacked_propagators_keep_the_bits_of_the_per_relaxation_loop():
    p = random_ryu(np.random.default_rng(14))
    m = p.governing_dim
    d = p._step[0][-m:]
    lams = np.array([0.01, 0.37, 0.5, 0.99])
    got = driver._propagators(d, lams)
    assert got.shape == (4, driver._BLOCK_STEPS * m, m)
    for lam, item in zip(lams, got):
        step = np.eye(m) + lam * d
        powers = [step]
        for _ in range(driver._BLOCK_STEPS - 1):
            powers.append(step @ powers[-1])
        assert np.array_equal(item, np.vstack(powers))


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
def test_counts_equal_the_extended_precision_counts_outside_rounding(tol):
    # exp2's layout, one start point at each of the 99 relaxations: a count
    # may differ from the one of the extended-precision recurrence only where
    # a distance at its crossing lies within 1e-6 of tol, relatively
    from splitproj.cli import _instances, _start_points, default_lambda_grid

    grid = default_lambda_grid()
    for algorithm in ("ryu", "mt"):
        [p] = _instances(2, range(1), 6, (5, 5, 5), (algorithm,))[algorithm]
        starts = np.tile(np.repeat(_start_points(2, 1, 6), len(grid), axis=1), (p.n - 1, 1))
        counts = batch_iteration_counts(p, starts, grid, tol, 20_000)
        margins, exact = count_margins(p, starts, grid, tol, counts, 20_000)
        assert np.all((np.array(counts) == exact) | (margins < 1e-6)), algorithm
        assert np.median(margins) > 1e-3


def test_every_distance_before_a_skip_exceeds_twice_tol():
    # the certificate of `driver._skips`, checked by the extended-precision
    # recurrence in the kernel's own coordinates, on Ryu and MT, linear and
    # affine, with zero, whole-space and nilpotent (6, 5, 6) instances
    rng = np.random.default_rng(44)
    skipped = 0
    for p in _kernel_problems(rng) + mixed_problems(rng):
        for tol in (1e-3, 1e-6, 1e-9, 1e-12):
            starts = 10 ** rng.uniform(-3, 3) * rng.standard_normal((p.governing_dim, 8))
            lams = np.r_[0.01, 0.99, rng.uniform(0.01, 0.99, 6)]
            skips = driver._skips(*split_errors(p, starts), lams, tol, 5_000)
            assert np.array_equal(skips, np.floor(skips)) and skips.max() <= 5_001
            steps = int(skips.max())
            before = np.arange(steps + 1)[:, None] < skips
            for dist in split_longdouble_distances(p, starts, lams, steps):
                assert np.all((dist > 2 * tol) | ~before), (type(p).__name__, p.n, tol)
            skipped += int(skips.sum())
    assert skipped > 100_000


def test_a_column_certified_past_its_budget_reports_it_unstepped(monkeypatch):
    # lambda = 0.01 from a start of norm about 3 stays above 2e-6 for
    # hundreds of steps, so a budget of 100 ends inside the certificate
    shapes = _tested_blocks(monkeypatch)
    rng = np.random.default_rng(45)
    for p in _kernel_problems(rng):
        start = rng.standard_normal((p.governing_dim, 1))
        assert driver._skips(*split_errors(p, start), np.array([0.01]), 1e-6, 100) == [101]
        shapes.clear()
        got = batch_iteration_counts(p, start, [0.01], 1e-6, 100)
        assert (got[0][0], got[1][0]) == (100, 100) and not shapes
        assert all(map(np.array_equal, got, stepwise_batch_counts(p, start, [0.01], 1e-6, 100)))
        # beside a column that steps, it leaves after the first block
        starts = np.hstack([start, governing_limit(p, start) + 1e-5 * rng.standard_normal(
            (p.governing_dim, 1))])
        got = batch_iteration_counts(p, starts, [0.01, 0.5], 1e-6, 100)
        assert all(map(np.array_equal, got, stepwise_batch_counts(p, starts, [0.01, 0.5],
                                                                  1e-6, 100)))
        assert got[0][0] == got[1][0] == 100 and shapes


def test_no_skip_where_tol_lies_near_the_rounding_floor(monkeypatch):
    # Ryu on three lines of R^6 with starts of norm about 350: at tol 1e-12
    # the distances floor near tol, within 1e5 eps of the start; skipping
    # there moved governing counts by 3 to 1643 steps on these seeds
    for seed in (0, 6, 10):
        rng = np.random.default_rng(seed)
        p = mixed_problems(rng)[5]
        starts = 100 * rng.standard_normal((p.governing_dim, 16))
        lams = rng.uniform(0.01, 0.99, 16)
        x = split_errors(p, starts)
        assert not driver._skips(*x, lams, 1e-12, 5_000).any()
        assert driver._skips(*x, lams, 1e-6, 5_000).all()
        got = batch_iteration_counts(p, starts, lams, 1e-12, 5_000)
        with monkeypatch.context() as patch:
            _no_skips(patch)
            want = batch_iteration_counts(p, starts, lams, 1e-12, 5_000)
        assert all(map(np.array_equal, got, want)), seed


@pytest.mark.parametrize("tol", [1e-11, 1e-12])
def test_counts_equal_the_split_extended_precision_counts_outside_rounding(tol):
    # below tol 1e-10 only the oracle in the kernel's coordinates vouches for
    # a count: exp2's layout, one start point at 25 relaxations
    from splitproj.cli import _instances, _start_points

    grid = np.round(np.linspace(0.03, 0.99, 25), 12)
    for algorithm in ("ryu", "mt"):
        [p] = _instances(2, range(1), 6, (5, 5, 5), (algorithm,))[algorithm]
        starts = np.tile(np.repeat(_start_points(2, 1, 6), len(grid), axis=1), (p.n - 1, 1))
        counts = batch_iteration_counts(p, starts, grid, tol, 20_000)
        margins, exact = count_margins(p, starts, grid, tol, counts, 20_000,
                                       oracle=split_longdouble_distances)
        assert np.all((np.array(counts) == exact) | (margins < 1e-6)), algorithm
        assert np.median(margins) > 1e-3


def test_skips_take_only_contracting_modes_with_rounding_level_residuals():
    # D' = diag(-1, -0.5, -0.2) with F' = [e_1^T; e_2^T]: the slowest mode is
    # not in the row space of F', so it bounds only the governing distances,
    # 59 steps above 2 tol = 2e-3 at lam = 0.5, and the shadow ones only for
    # the 22 steps of mu = -0.5; a mode of mu = 0 never contracts and bounds
    # nothing
    d, x, lam = np.diag([-1.0, -0.5, -0.2]), np.ones((3, 1)), np.array([0.5])
    assert driver._skips(np.eye(3), d, x, lam, 1e-3, 100).tolist() == [59.0]
    assert driver._skips(np.eye(3)[:2], d, x, lam, 1e-3, 100).tolist() == [22.0]
    assert driver._skips(np.eye(1), np.zeros((1, 1)), x[:1], lam, 1e-3, 100).tolist() == [0.0]
    assert driver._skips(np.eye(3), d, x, lam, 1e-3, 40).tolist() == [41.0]
