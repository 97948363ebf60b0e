import numpy as np
import pytest

from helpers import (
    random_instance,
    random_mt,
    random_ryu,
    scalar_iterate,
    scalar_iteration_counts,
    whole_space,
)
from splitproj import (
    IterationConfig,
    MTProblem,
    RyuProblem,
    asymptotic_contraction,
    batch_iteration_counts,
    fix_decomposition,
    governing_limit,
    iterate,
    iteration_counts,
    rate_bounds,
    shadow,
    shadow_limit,
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


def test_iterate_from_fixed_point():
    rng = np.random.default_rng(0)
    p = random_ryu(rng)
    start = fix_decomposition(p).fix_projector @ rng.standard_normal(12)
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
    z = fix_decomposition(p).fix_projector @ rng.standard_normal(p.governing_dim)
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
