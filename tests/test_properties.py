"""Property tests: the blocked counts kernel against its per-step oracle."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import random_instance, stepwise_batch_counts  # noqa: E402
from splitproj import MTProblem, RyuProblem, batch_iteration_counts  # noqa: E402


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
