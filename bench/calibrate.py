"""Host-speed calibration: a fixed kernel timed next to every measurement.

The benchmark runs on small shared hosts whose speed moves by a quarter or
more within seconds and between minutes, on identical work, with CPU time
equal to wall time (contention for shared hardware that a guest cannot see
or control).  Medians over one run do not remove a slowdown that lasts the
whole run.  So every timed job is bracketed by this kernel, every set-up
is followed by it in the same process, and the benchmark reports times
scaled to a host on which the kernel takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / kernel time around the measurement

The kernel is fixed here, in the benchmark's own files, and uses only
numpy: a change to ``splitproj`` cannot change it, so the scaled times move
with the program and not with the host.  Its mix resembles the program's
work: Python-level loops with small arrays, 12x12 LAPACK calls (SVD and
nonsymmetric eigenvalues, as at d = 6) and a 60x60 SVD (as at d = 60).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel time on the host where the benchmark was defined (2 vCPUs, Intel
#: Xeon 2.0 GHz, one OpenBLAS thread), so that scaled times read as seconds
#: there.
REFERENCE_S = 0.004
#: The kernel is timed as the median of this many repetitions, so that one
#: preemption inside it does not set its time.
REPEATS = 3

_rng = np.random.default_rng(20210923)
_SMALL = _rng.standard_normal((12, 12))
_LARGE = _rng.standard_normal((60, 60))


def _once() -> float:
    a = _SMALL
    acc = 0.0
    for _ in range(40):
        s = np.linalg.svd(a, compute_uv=False)
        b = a @ a.T - s[0] * np.eye(12)
        acc += float(np.abs(np.linalg.eigvals(b)).max())
        acc += sum(float(v) for v in b[0])
    acc += float(np.linalg.svd(_LARGE, compute_uv=False)[0])
    return acc


_once()  # first-call costs of numpy and LAPACK are not host speed


def kernel_s() -> float:
    """Time of one kernel pass: the median of ``REPEATS`` repetitions."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _once()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(measured: float, before: float, after: float) -> float:
    """``measured`` scaled by the kernel times taken just before and after."""
    return measured * REFERENCE_S * 2.0 / (before + after)
