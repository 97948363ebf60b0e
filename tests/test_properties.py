"""Property tests: the blocked counts kernel against its per-step oracle, and
the row writer against the `csv.writer` rendering."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import csv_writer_rendering, random_instance, stepwise_batch_counts  # noqa: E402
from splitproj import MTProblem, RyuProblem, batch_iteration_counts  # noqa: E402
from splitproj.cli import ExperimentRecord, records_to_csv  # noqa: E402


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 300), max_iters=st.integers(0, 400),
       n=st.sampled_from([0, 3, 4]), affine=st.booleans(), tol=st.sampled_from([1e-2, 1e-6]))
def test_block_counts_equal_the_stepwise_oracle(seed, k, max_iters, n, affine, tol):
    # n = 0 is the Ryu operator, otherwise MT on n subspaces
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


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-2.3e-308, 2.3e-308),  # subnormals and their neighbours
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308]),
    st.integers(-2**53, 2**53).map(float),
)
_LAMS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_RECORDS = st.builds(
    ExperimentRecord,
    experiment=st.sampled_from(["exp1", "exp2", "exp3", "single"]),
    algorithm=st.sampled_from(["ryu", "mt"]),
    lam=_LAMS | _LAMS.map(np.float64),
    instance_seed=st.integers(0, 2**63),
    metric_name=st.sampled_from(["mean_spectral_radius", "median_shadow_distance",
                                 "iterations", "solution_0", "shadow_distance"]),
    metric_value=st.one_of(_FLOATS, _FLOATS.map(np.float64), st.integers(-2**63, 2**63)),
    iteration=st.one_of(st.none(), st.just(0), st.integers(0, 2**63)),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(records=st.lists(_RECORDS, max_size=20))
def test_row_writer_gives_the_csv_writer_bytes(records):
    assert records_to_csv(records) == csv_writer_rendering(records)
