"""Property tests: the blocked counts kernel against its per-step oracle and
against itself with no spectral skips, the split rate kernel and Fix T
against their full-space forms, the forms built from the operator
descriptions against the hand-written operators, the row writers against the
`csv.writer` and `json.dumps` renderings, and chunk-built experiment
instances against instances built one at a time."""

import numpy as np
import pytest

import splitproj.driver as driver

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import (  # noqa: E402
    Row,
    csv_writer_rendering,
    fixed_point_projector,
    full_space_fix,
    full_space_rate_curves,
    hand_fix,
    hand_fix_decomposition,
    hand_forward_blocks,
    hand_rate_curves,
    hand_shadow_limit,
    hand_step,
    json_dumps_rendering,
    mixed_problems,
    random_instance,
    stepwise_batch_counts,
    table_of,
    whole_space,
)
from splitproj import (  # noqa: E402
    MTProblem,
    NumericalFailure,
    RyuProblem,
    batch_iteration_counts,
    fix_decomposition,
    forward_blocks,
    from_basis,
    governing_limit,
    intersect_all,
    rate_curve,
    shadow_limit,
)
from splitproj.cli import (  # noqa: E402
    _build_problem,
    _instance_subspaces,
    _instances,
    default_lambda_grid,
    records_to_csv,
    records_to_json,
)
from splitproj.driver import _rate_curves, _split_errors  # noqa: E402
from splitproj.splitting import _fill_fix_spaces  # noqa: E402


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 300), max_iters=st.integers(0, 3_000),
       n=st.sampled_from([0, 3, 4]), affine=st.booleans(), tol=st.sampled_from([1e-2, 1e-6]))
def test_block_counts_equal_the_stepwise_oracle(seed, k, max_iters, n, affine, tol):
    # n = 0 is the Ryu operator, otherwise MT on n subspaces; budgets of up to
    # 3 000 steps let the last few columns finish on blocks of several rounds
    rng = np.random.default_rng(seed)
    subs = random_instance(rng, dims=(5,) * max(n, 3))
    anchors = None
    if affine:
        v = rng.standard_normal(6)
        anchors = [v + s.projector @ rng.standard_normal(6) for s in subs]
    p = MTProblem(subs, affine_anchors=anchors) if n else RyuProblem(*subs, affine_anchors=anchors)
    starts = rng.standard_normal((p.governing_dim, k))
    lams = rng.uniform(0.01, 0.99, k)
    got = batch_iteration_counts(p, starts, lams, tol, max_iters)
    want = stepwise_batch_counts(p, starts, lams, tol, max_iters)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([0, 3, 4, 5, 6]), d=st.integers(2, 8),
       shared=st.integers(0, 8), extra=st.integers(0, 8), affine=st.booleans())
@example(seed=1, n=0, d=4, shared=8, extra=0, affine=False)  # Z = R^d: r = 0
@example(seed=2, n=5, d=6, shared=0, extra=1, affine=True)  # five lines: Z = {0}, r = d
@example(seed=3, n=0, d=8, shared=5, extra=1, affine=False)  # dim Z = 5 > n - 2
@example(seed=4, n=6, d=8, shared=1, extra=2, affine=False)  # dim Z = 1 < n - 2
def test_split_errors_follow_the_full_space_recurrence(seed, n, d, shared, extra, affine):
    # n = 0 is the Ryu operator, otherwise MT on n subspaces; each subspace
    # spans a shared random subspace of dimension min(shared, d) and 0..extra
    # random directions of its own
    rng = np.random.default_rng(seed)
    common = rng.standard_normal((d, min(shared, d)))
    subs = [from_basis(np.hstack([common, rng.standard_normal((d, rng.integers(0, extra + 1)))]))
            for _ in range(max(n, 3))]
    anchors = None
    if affine:
        v = rng.standard_normal(d)
        anchors = [v + s.projector @ rng.standard_normal(d) for s in subs]
    p = MTProblem(subs, affine_anchors=anchors) if n else RyuProblem(*subs, affine_anchors=anchors)
    m = p.governing_dim
    z = rng.standard_normal((m, 4))
    try:
        e = z - governing_limit(p, z)
    except NumericalFailure:  # a closed-form Fix T that fails its projector check
        return
    f_full, d_full = p.parallel()._step[0][:-2 * m], p.parallel()._step[0][-m:]
    f, d_split, x = _split_errors(p.parallel(), e)
    scale = 1e-10 * np.linalg.norm(e, axis=0)
    for lam in (0.3, 0.7):
        e_k, x_k = e, x
        for _ in range(65):  # k = 0..64
            for a, b in ((e_k, x_k), (f_full @ e_k, f @ x_k)):
                assert np.all(np.abs(np.linalg.norm(a, axis=0) - np.linalg.norm(b, axis=0))
                              <= scale)
            e_k, x_k = e_k + lam * (d_full @ e_k), x_k + lam * (d_split @ x_k)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([0, 3, 4, 5]), d=st.integers(2, 8),
       nilpotent=st.booleans(), affine=st.booleans(), scale=st.integers(-3, 3),
       tol=st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]), max_iters=st.integers(0, 5_000))
@example(seed=5, n=0, d=6, nilpotent=True, affine=False, scale=0, tol=1e-12, max_iters=5_000)
@example(seed=6, n=3, d=6, nilpotent=True, affine=True, scale=3, tol=1e-9, max_iters=5_000)
def test_skipped_counts_equal_the_stepped_counts(seed, n, d, nilpotent, affine, scale, tol,
                                                 max_iters):
    # n = 0 is the Ryu operator, otherwise MT on n subspaces of dimensions 1..d,
    # so that whole-space subspaces sit beside proper ones; "nilpotent" draws
    # dims (6, 5, 6) in R^6 (n = 3), where T has a nilpotent Jordan block on Z^perp
    rng = np.random.default_rng(seed)
    if nilpotent:
        n, d, dims = min(n, 3), 6, (6, 5, 6)
    else:
        dims = tuple(int(k) for k in rng.integers(1, d + 1, max(n, 3)))
    subs = random_instance(rng, d, dims)
    anchors = None
    if affine:
        v = rng.standard_normal(d)
        anchors = [v + s.projector @ rng.standard_normal(d) for s in subs]
    p = MTProblem(subs, affine_anchors=anchors) if n else RyuProblem(*subs, affine_anchors=anchors)
    starts = 10.0 ** scale * rng.standard_normal((p.governing_dim, 16))
    lams = np.r_[0.01, 0.5, 0.99, rng.uniform(0.01, 0.99, 13)]
    try:
        got = batch_iteration_counts(p, starts, lams, tol, max_iters)
    except NumericalFailure:  # a closed-form Fix T that fails its projector check
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver, "_skips", lambda f, d, x, *args: np.zeros(x.shape[1]))
        want = batch_iteration_counts(p, starts, lams, tol, max_iters)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _bits(build) -> list:
    """The int64 views of the arrays that ``build()`` returns, so that a
    zero's sign counts, or ``[NumericalFailure]`` if it raises one."""
    try:
        return [np.ascontiguousarray(a, dtype=float).view(np.int64) for a in build()]
    except NumericalFailure:
        return [NumericalFailure]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([0, 3, 4, 5, 6]), d=st.integers(2, 8),
       affine=st.booleans())
def test_operator_descriptions_keep_the_bits_of_the_hand_written_operators(seed, n, d, affine):
    # n = 0 is the Ryu operator, otherwise MT on n subspaces; the subspaces
    # share a random subspace, so that Z is often nonzero, and sometimes R^d,
    # where a lifted point with a product 0 x* would hold a -0.0
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal((d, rng.integers(0, d + 1)))
    subs = [from_basis(np.hstack([shared, rng.standard_normal((d, rng.integers(0, d)))]))
            for _ in range(max(n, 3))]
    anchors = None
    if affine:
        v = rng.standard_normal(d)
        anchors = [v + s.projector @ rng.standard_normal(d) for s in subs]
    p = MTProblem(subs, affine_anchors=anchors) if n else RyuProblem(*subs, affine_anchors=anchors)
    linear = p.parallel()
    starts = rng.standard_normal((p.governing_dim, 3))
    lams = [0.05, 0.5, 0.95]
    pairs = [
        (lambda: forward_blocks(p, starts), lambda: hand_forward_blocks(p, starts)),
        (lambda: p._step, lambda: hand_step(p)),
        (lambda: [fix_decomposition(linear).projector], lambda: [hand_fix_decomposition(linear)]),
        (lambda: (p._fix.linear, p._fix.offset), lambda: (hand_fix(p).linear, hand_fix(p).offset)),
        (lambda: (shadow_limit(p, starts), shadow_limit(p, starts[:, 0])),
         lambda: (hand_shadow_limit(p, starts), hand_shadow_limit(p, starts[:, 0]))),
        (lambda: rate_curve(linear, lams), lambda: hand_rate_curves([linear], lams)[:, 0]),
    ]
    for got, want in pairs:
        got, want = _bits(got), _bits(want)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g is w if w is NumericalFailure else np.array_equal(g, w)


def _rate_problems(rng, n, d, kind):
    """Linear problems of n subspaces of R^d, three instances, MT and (n = 3)
    Ryu: all of R^d ("whole", so Z = R^d), Gaussian ones of codimension
    ceil(d / n) to d - 2 (1 for d = 2), so that Z = {0} ("gaussian"), or the parallel
    problems of consistent affine families of codimension 1 to about d / n
    ("affine")."""
    problems = []
    for _ in range(3):
        subs, anchors = [whole_space(d)] * n, None
        if kind != "whole":
            low, high = (-(-d // n), d - 1) if kind == "gaussian" else (1, (d - 1) // n + 1)
            subs = random_instance(rng, d, tuple(d - rng.integers(low, max(low + 1, high), n)))
        if kind == "affine":
            v = rng.standard_normal(d)
            anchors = [v + s.projector @ rng.standard_normal(d) for s in subs]
        for algorithm in ("mt", "ryu")[:1 + (n == 3)]:
            problems.append(_build_problem(algorithm, subs, anchors).parallel())
    return problems


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 5), d=st.integers(2, 8),
       kind=st.sampled_from(["whole", "gaussian", "affine", "mixed"]))
def test_split_rate_curves_match_the_full_space_oracle(seed, n, d, kind):
    rng = np.random.default_rng(seed)
    lams = default_lambda_grid()
    problems = mixed_problems(rng) if kind == "mixed" else _rate_problems(rng, n, d, kind)
    try:
        want = full_space_rate_curves(problems, lams)
    except NumericalFailure:
        # a closed-form Fix T that fails its projector check fails in both
        with pytest.raises(NumericalFailure):
            _rate_curves(problems, lams)
        return
    got = _rate_curves(problems, lams)
    close = np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-13
    if kind == "mixed":
        # items 2 and 8 have dims (6, 5, 6): on Z^perp, P_U = P_W = Id and
        # P_V = 0, where T is a nilpotent 2x2 Jordan block, whose eigenvalue
        # either kernel finds only to about sqrt(eps)
        jordan = np.abs(got[0, [2, 8]] - want[0, [2, 8]])
        assert jordan.max() <= 1e-6
        close[0, [2, 8]] = True
    assert close.all()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 5), d=st.integers(2, 8),
       kind=st.sampled_from(["whole", "gaussian", "affine", "mixed"]))
def test_fix_on_z_perp_matches_the_full_space_closed_form(seed, n, d, kind):
    # "mixed": four instances whose subspaces share a random subspace of
    # dimension 0 to d - 1 and add 0 to d - 1 random directions each, so that
    # one stack mixes the dimensions of Z^perp and E is often nonzero
    rng = np.random.default_rng(seed)
    if kind == "mixed":
        problems = []
        for _ in range(4):
            shared = rng.standard_normal((d, rng.integers(0, d)))
            subs = [from_basis(np.hstack([shared, rng.standard_normal((d, rng.integers(0, d)))]))
                    for _ in range(n)]
            problems += [_build_problem(a, subs) for a in ("mt", "ryu")[:1 + (n == 3)]]
    else:
        problems = _rate_problems(rng, n, d, kind)
    for cls in (MTProblem, RyuProblem)[:1 + (n == 3)]:
        stack = [p for p in problems if isinstance(p, cls)]
        _fill_fix_spaces(stack)
        for p in stack:
            try:
                want = full_space_fix(p)
            except NumericalFailure:  # the full-space form can lose idempotence
                want = fixed_point_projector(p)
            assert np.max(np.abs(p._fix_space.projector - want)) <= 1e-11


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the closed-form Fix T is accurate only "
                   "to about 1e-9 on ill-conditioned small instances")
@pytest.mark.parametrize("seed, n, d, kind", [(0, 3, 3, "gaussian"), (200779, 4, 4, "affine"),
                                              (19066, 5, 5, "affine")])
def test_fix_on_z_perp_matches_the_null_space_projector_on_hard_draws(seed, n, d, kind):
    # draws of the test above under other Hypothesis seeds, where the split
    # Fix T misses the null-space P_Fix by 1.85e-11, 1.44e-9 and 7.57e-11
    problems = _rate_problems(np.random.default_rng(seed), n, d, kind)
    for cls in (MTProblem, RyuProblem)[:1 + (n == 3)]:
        _fill_fix_spaces([p for p in problems if isinstance(p, cls)])
    for p in problems:
        assert np.max(np.abs(p._fix_space.projector - fixed_point_projector(p))) <= 1e-11


def test_split_rate_curves_match_the_full_space_oracle_where_fix_t_is_near_a_fixed_direction():
    # a draw of the test above under another Hypothesis seed: the closed-form
    # P_Fix has ||P^2 - P|| = 4.5e-11, so Id - P_Fix has a singular value of that
    # size on a fixed direction, which a rank cutoff of 1e-12 put into the
    # oracle's Fix^perp (the curves differed by 1.57e-2, its lower one above 1)
    lams = default_lambda_grid()
    problems = _rate_problems(np.random.default_rng(1), 4, 4, "gaussian")
    got, want = _rate_curves(problems, lams), full_space_rate_curves(problems, lams)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-13)
    assert np.all(got <= 1.0)


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-2.3e-308, 2.3e-308),  # subnormals and their neighbours
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308]),
    st.integers(-2**53, 2**53).map(float),
)
_LAMS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_ROW_ENDS = dict(
    metric_name=st.sampled_from(["mean_spectral_radius", "median_shadow_distance",
                                 "iterations", "solution_0", "shadow_distance"]),
    metric_value=st.one_of(_FLOATS, _FLOATS.map(np.float64), st.integers(-2**63, 2**63)),
    iteration=st.one_of(st.none(), st.just(0), st.integers(0, 2**63)),
)


@st.composite
def _tables(draw):
    """``(experiment, seed, rows)`` of one table: groups of rows that share the
    drawn experiment and seed and, within a group, algorithm and lambda, so
    that the iteration and the metric decide their order."""
    experiment = draw(st.sampled_from(["exp1", "exp2", "exp3", "single"]))
    seed = draw(st.integers(0, 2**63))
    firsts = st.builds(Row, experiment=st.just(experiment),
                       algorithm=st.sampled_from(["ryu", "mt"]), lam=_LAMS | _LAMS.map(np.float64),
                       instance_seed=st.just(seed), **_ROW_ENDS)
    groups = firsts.flatmap(lambda r: st.lists(st.builds(r._replace, **_ROW_ENDS), max_size=4)
                            .map(lambda rows: [r, *rows]))
    return experiment, seed, [r for group in draw(st.lists(groups, max_size=8)) for r in group]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(table=_tables())
def test_row_writer_gives_the_csv_writer_bytes(table):
    experiment, seed, records = table
    assert records_to_csv(table_of(experiment, seed, records)) == csv_writer_rendering(records)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(table=_tables())
def test_json_writer_gives_the_json_dumps_text(table):
    # a table holds its values as floats
    experiment, seed, records = table
    records = [r._replace(metric_value=float(r.metric_value)) for r in records]
    assert records_to_json(table_of(experiment, seed, records)) == json_dumps_rendering(records)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), algorithm=st.sampled_from(["ryu", "mt"]), d=st.integers(3, 10),
       size=st.integers(1, 7), seed=st.integers(0, 2**32 - 1), first=st.integers(0, 40))
def test_chunk_built_instances_equal_the_ones_built_alone(data, algorithm, d, size, seed, first):
    n = 3 if algorithm == "ryu" else data.draw(st.integers(3, 5))
    dims = tuple(data.draw(st.lists(st.integers(1 + -(-2 * d // 3), d), min_size=n, max_size=n)))
    indices = range(first, first + size)
    wants = []
    try:
        for index in indices:
            p = _build_problem(algorithm, _instance_subspaces(seed, index, d, dims))
            wants.append((p, intersect_all(p.subspaces), fix_decomposition(p)))
    except NumericalFailure:
        # a projector check that fails alone (iterated Anderson-Duffin can
        # lose idempotence on nearly parallel subspaces) fails in the chunk,
        # which computes the same bits
        with pytest.raises(NumericalFailure):
            _fill_fix_spaces(_instances(seed, indices, d, dims, (algorithm,))[algorithm])
        return
    problems = _instances(seed, indices, d, dims, (algorithm,))[algorithm]
    _fill_fix_spaces(problems)
    for (want, meet, fix), got in zip(wants, problems, strict=True):
        for a, b in zip(got.subspaces, want.subspaces):
            assert np.array_equal(a.projector, b.projector)
        assert np.array_equal(got.intersection().projector, meet.projector)
        assert np.array_equal(got._fix_space.projector, fix.projector)
