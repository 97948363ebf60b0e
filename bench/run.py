"""splitproj benchmark: the CLI driven in-process as a closed loop.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

One client calls ``splitproj.cli.main(argv)`` with ``--jobs 1`` and starts
the next job only when the previous one returns.  Each workload runs in its
own worker processes (``worker.py``): ``SETUP_PROBES`` fresh processes that
only set up, then one that sets up and runs the jobs, so set-up time and
peak memory are per workload.  Without ``--workload`` all four run in turn.
A timed run lasts ``--seconds``, which defaults to ``run_seconds`` of
``BENCHMARK.json``, the run length's one definition.  Job and set-up times
are scaled to a reference host speed by a calibration kernel timed next to
each of them (``calibrate.py``); the unscaled figures are printed too.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced pass (and the tracing overhead against an untraced
pass of the same jobs; the run length does not apply, so that call counts
repeat exactly).  Every job's output is checked.  The output ends with a
manifest line and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
1 if any output check failed, 2 if a worker could not run (for instance
when ``src/splitproj`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
WORKLOADS = ("rate_curves", "iteration_counts", "shadow_traces", "affine_solve")
#: Set-up-only processes per workload.  With the worker's own set-up this
#: gives fifteen samples; ``setup_s`` is the median of their scaled times.
SETUP_PROBES = 14
#: A single-workload run must exit within 180 s.
DEADLINE_S = 175.0
#: One BLAS thread: the loop has one client, and on a small shared host a
#: second BLAS thread mostly adds noise.  Workers inherit this environment.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

UNITS = {"units_per_s": "units/s", "job_p50_s": "s", "job_tail_s": "s", "setup_s": "s",
         "peak_rss_mib": "MiB"}


class WorkerError(Exception):
    """A worker process failed or timed out."""


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_gflop"):
        return "GFLOP"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith(("_frac", "_speedup")):
        return "ratio"
    return "count"


def worker(args, deadline):
    cmd = [sys.executable, WORKER, *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{' '.join(args)}: timed out") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{' '.join(args)}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, deadline):
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    probes = []
    if not trace:
        probes = [worker(common + ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    result = worker(common + (["--trace"] if trace else []), deadline)
    metrics = result["metrics"]
    samples = result["samples"]
    if not trace:
        probes.append(result)
        metrics["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        samples["setup_samples"] = len(probes)
        samples["raw_setup_s"] = statistics.median(p["raw_setup_s"] for p in probes)
    samples["failures"] = len(result["failures"])
    return result


def describe(name, result, trace):
    """Human-readable lines: every metric with its unit and sample count."""
    m, smp = result["metrics"], result["samples"]
    lines = [f"{name}  ({'traced pass' if trace else 'closed loop, 1 client, --jobs 1'})"]
    if trace:
        for key in sorted(m):
            lines.append(f"  {key:34s} {m[key]:.6g} {unit_of(key)}")
        shares = ", ".join(f"{k} {v:.1%}" for k, v in smp["layer_shares"].items())
        lines.append(f"  self-time shares: {shares}")
        return lines
    n = smp["jobs"]
    failed = len(result["failures"])
    lines += [
        "  times are scaled to the reference host speed (bench/calibrate.py); "
        "unscaled in brackets",
        f"  units_per_s   {m['units_per_s']:.6g} units/s over {n} jobs "
        f"[{smp['raw_units_per_s']:.6g}]; unit: {smp['work_unit']}",
        f"  job_p50_s     {m['job_p50_s']:.6g} s (median of {n} jobs) "
        f"[{smp['raw_job_p50_s']:.6g}]",
        f"  job_tail_s    {m['job_tail_s']:.6g} s (p{smp['job_tail_percentile']:.1f} of {n} jobs, "
        f"{smp['job_tail_beyond']} beyond)",
        f"  setup_s       {m['setup_s']:.6g} s (median of {smp['setup_samples']} fresh processes) "
        f"[{smp['raw_setup_s']:.6g}]",
        f"  peak_rss_mib  {m['peak_rss_mib']:.6g} MiB",
        f"  failed_frac   {failed / result['attempted']:.6g} ratio ({failed} of "
        f"{result['attempted']} jobs)",
    ]
    return lines


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def manifest(seed, trace, results):
    import numpy as np

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": deps["blas"]["name"], "version": deps["blas"]["version"],
                 "threads": blas_threads()},
        "lapack": {"name": deps["lapack"]["name"], "version": deps["lapack"]["version"]},
        "git_commit": git_commit(),
        "seed": seed,
        "trace": trace,
        "samples": {name: r["samples"] for name, r in results.items()},
    }


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="splitproj closed-loop CLI benchmark")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    seconds = args.seconds if args.seconds is not None else run_seconds()
    names = [args.workload] if args.workload else list(WORKLOADS)
    os.environ.update(BLAS_ENV)

    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results[name] = run_workload(name, args.seed, seconds, args.trace, deadline)
    except WorkerError as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 2

    for name, result in results.items():
        print("\n".join(describe(name, result, args.trace)))
        for failure in result["failures"][:20]:
            print(f"  FAILED: {failure}", file=sys.stderr)
    print("manifest " + json.dumps(manifest(args.seed, args.trace, results)))

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(len(r["failures"]) for r in results.values())
    metrics = {}
    for name, result in results.items():
        prefix = "" if args.workload else f"{name}."
        for key, value in result["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": unit_of(key)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
