"""One workload in a fresh process: set-up, timed jobs, checks, traces.

Started by ``run.py``; prints one JSON object on stdout.  Set-up time runs
from before ``import splitproj`` to the end of generating the first
``trace_jobs`` jobs' inputs, so this module imports only the standard
library at the top; the calibration kernel (``calibrate.py``) runs right
after it, and every job is bracketed by the kernel.  Inputs of later jobs
are made between jobs, outside the job timer.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def import_package():
    """Import splitproj from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "splitproj", "__init__.py")):
        raise SystemExit(f"error: no splitproj package under {SRC}")
    sys.path.insert(0, SRC)
    import splitproj
    import splitproj.cli
    if os.path.dirname(os.path.abspath(splitproj.__file__)) != os.path.join(SRC, "splitproj"):
        raise SystemExit(f"error: imported splitproj from {splitproj.__file__}, not {SRC}")
    return splitproj


def call(cli, argv):
    """One job: ``cli.main(argv)`` with stdout captured.  Returns (rc, out, s)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a job that raises is a failed job
        rc = f"raised {exc!r}"
    return rc, buf.getvalue(), time.perf_counter() - start


class Runner:
    """Runs a workload's jobs and checks every output."""

    def __init__(self, cli, workload, check_error):
        import calibrate

        self.calibrate = calibrate
        self.cli = cli
        self.workload = workload
        self.check_error = check_error
        self.times: list = []
        #: Job times scaled to the reference host speed (``calibrate.py``).
        self.scaled: list = []
        self.kernel: list = []
        #: Kernel time just before the next job; None when it must be taken.
        self.before = None
        self.units = 0
        self.attempted = 0
        self.failures: list = []

    def run_job(self, job, expect=None):
        """Run and check one job; ``expect`` is output it must reproduce.

        The calibration kernel runs just before and just after the job; the
        one after serves as the next job's kernel before."""
        if self.before is None:
            self.before = self.calibrate.kernel_s()
        rc, out, seconds = call(self.cli, job.argv)
        after = self.calibrate.kernel_s()
        self.attempted += 1
        self.times.append(seconds)
        self.scaled.append(self.calibrate.scaled(seconds, self.before, after))
        self.kernel.append(after)
        self.before = after
        error = None
        if rc != 0:
            error = f"exit {rc}"
        elif expect is not None and out != expect:
            error = "traced output differs from untraced"
        else:
            try:
                self.workload.check(job, out)
            except self.check_error as exc:
                error = str(exc)
            except (KeyError, ValueError) as exc:  # a missing or unparsable row
                error = f"malformed output: {exc!r}"
        if error is None:
            self.units += job.units
        else:
            self.failures.append(f"{' '.join(job.argv)}: {error}")
        return out


def tail(times):
    """Highest percentile with at least ten samples beyond it.

    With n >= 11 samples that is the 11th largest, percentile 100 (n - 10) / n.
    With fewer there is no such percentile and the maximum is reported.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, n, 10


def timed_run(runner, first_jobs, seed, workdir, seconds):
    """As many jobs as fit in ``seconds``, at least one; a fixed suite only
    in whole rounds.  The metrics use the scaled job times."""
    workload = runner.workload
    step = workload.suite_size or 1
    start = time.perf_counter()
    index = 0
    while True:
        if index < len(first_jobs):
            job = first_jobs[index]
        elif workload.suite_size:
            job = first_jobs[index % workload.suite_size]
        else:
            job = workload.job(seed, index, workdir)
        runner.run_job(job)
        index += 1
        if index % step == 0:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / index * step > seconds:
                break
    times, raw = runner.scaled, runner.times
    value, pct, n, beyond = tail(times)
    return {
        "metrics": {
            "units_per_s": runner.units / sum(times),
            "job_p50_s": statistics.median(times),
            "job_tail_s": value,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "samples": {"jobs": n, "rounds": n // step, "job_tail_percentile": pct,
                    "job_tail_beyond": beyond, "work_unit": workload.unit,
                    "raw_units_per_s": runner.units / sum(raw),
                    "raw_job_p50_s": statistics.median(raw),
                    "kernel_p50_s": statistics.median(runner.kernel)},
    }


def traced_run(package, runner, jobs, seed, pool_probe):
    """Untraced pass, pool probe, traced pass over the same jobs."""
    import tracing

    cli = package.cli
    call(cli, jobs[0].argv)  # warm-up, so first-call costs do not land in one pass
    plain = [runner.run_job(job) for job in jobs]
    plain_s = sum(runner.scaled)

    # --jobs 2 against --jobs 1 on one two-set iteration_counts job, untraced
    probe_s = []
    probe_out = []
    for argv in pool_probe:
        rc, out, seconds = call(cli, argv)
        runner.attempted += 1
        probe_s.append(seconds)
        probe_out.append(out)
        if rc != 0:
            runner.failures.append(f"pool probe {' '.join(argv)}: exit {rc}")
    if probe_out[0] != probe_out[1]:
        runner.failures.append("pool probe: --jobs 2 output differs from --jobs 1")

    tracer = tracing.Tracer(package)
    tracer.install()
    before = len(runner.times)
    runner.before = None  # the pool probe ran since the last kernel
    try:
        traced = [runner.run_job(job, expect=out) for job, out in zip(jobs, plain)]
    finally:
        tracer.uninstall()
    traced_s = sum(runner.scaled[before:])

    metrics = tracer.metrics()
    metrics["cli.rows"] = sum(max(out.count("\n") - 1, 0) for out in traced)
    metrics["cli.jobs2_speedup"] = probe_s[0] / probe_s[1]
    metrics["trace_overhead_frac"] = (traced_s - plain_s) / plain_s
    root_s = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{runner.workload.name}-seed{seed}.npz")
    tracer.save(spans_path)
    return {
        "metrics": metrics,
        "samples": {"traced_jobs": len(traced), "spans": len(tracer.names),
                    "traced_s": traced_s, "untraced_s": plain_s,
                    "layer_shares": {layer: metrics[f"{layer}.self_s"] / root_s
                                     for layer in tracing.LAYERS},
                    "spans_file": os.path.relpath(spans_path, ROOT),
                    "pool_probe": {"argv": pool_probe[1], "jobs1_s": probe_s[0],
                                   "jobs2_s": probe_s[1], "nproc": os.cpu_count()}},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    package = import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        jobs = [workload.job(args.seed, i, workdir) for i in range(workload.trace_jobs)]
        raw_setup_s = time.perf_counter() - start
        import calibrate  # numpy: only after set-up has been timed

        # the kernel right after set-up, in the same process, gives its speed
        kernel = calibrate.kernel_s()
        setup = {"raw_setup_s": raw_setup_s,
                 "setup_s": calibrate.scaled(raw_setup_s, kernel, kernel)}
        if args.setup_only:
            result = setup
        else:
            runner = Runner(package.cli, workload, workloads.CheckError)
            if args.trace:
                probe = workloads.WORKLOADS["iteration_counts"].pool_probe()
                result = traced_run(package, runner, jobs, args.seed, probe)
            else:
                result = timed_run(runner, jobs, args.seed, workdir, args.seconds)
            result.update(setup, attempted=runner.attempted, failures=runner.failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
