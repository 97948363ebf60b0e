"""The four benchmark workloads: their jobs, work units and output checks.

A job is one call of the public CLI entry point ``splitproj.cli.main(argv)``.
Each workload turns the benchmark seed into a stream of jobs, job 0, 1, 2,
...  ``rate_curves`` and ``shadow_traces`` draw every job from the seed;
``iteration_counts`` and ``affine_solve`` repeat a fixed suite of
``suite_size`` jobs, and a timed run takes that suite in whole rounds.  A
traced run takes exactly the first ``trace_jobs`` jobs.  The program sees
only CLI arguments and, for ``affine_solve``, problem files that the
benchmark writes.

Every job's CSV output is checked here:

* invariants that hold for any seed;
* for the first ``REFERENCE_JOBS`` ``rate_curves``/``shadow_traces`` jobs
  of the default seed and for every ``iteration_counts`` job, a stored
  reference CSV (``reference/<workload>/<job.reference>.csv``, written by
  ``make_reference.py`` from the unchanged program), which must exist:
  iteration counts must match exactly, floats within ``REL_TOL``/``ABS_TOL``;
* for ``affine_solve``, the projection computed by an independent route:
  one SVD of the stacked complements of the subspaces (bases made
  orthonormal by QR), not the Anderson-Duffin formula the program uses.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 0
#: Default-seed jobs of ``rate_curves`` and ``shadow_traces`` with a reference.
REFERENCE_JOBS = 2
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
HEADER = ["experiment", "algorithm", "lambda", "instance_seed",
          "metric_name", "iteration", "metric_value"]
#: The CLI's default relaxation grid, restated so the checks do not take
#: it from the program under test.
LAMBDA_GRID = [round(0.01 * k, 12) for k in range(1, 100)]
ALGORITHMS = ("ryu", "mt")
#: Tolerance for float outputs against the stored references: tight enough
#: to catch a changed formula, loose enough for a reordered reduction.
REL_TOL = 1e-9
ABS_TOL = 1e-12
#: Allowed distance of an ``affine_solve`` solution from the oracle
#: projection, relative to 1 + its norm.  The run stops at governing
#: distance 1e-6; the shadow error is of the same order.
SOLUTION_TOL = 1e-4


class CheckError(Exception):
    """A job's output failed a correctness check."""


@dataclass
class Job:
    """One CLI call, the work units it completes, and what to check."""

    argv: list
    units: int
    cli_seed: int | None = None
    #: Name of the job's reference CSV, which must then exist.
    reference: str | None = None
    problem: dict | None = field(default=None, repr=False)


def job_seed(seed: int, tag: int, index: int) -> int:
    """Well-separated nonnegative CLI seed for job ``index`` of a workload.

    The CLI derives instance seeds as ``seed XOR index``, so nearby master
    seeds share instances; hashing through SeedSequence avoids that.
    """
    state = np.random.SeedSequence([seed, tag, index]).generate_state(1)[0]
    return int(state >> 1)


def default_reference(seed: int, index: int, cli_seed: int) -> str | None:
    """Reference name of a seed-drawn job: only the first default-seed jobs."""
    return str(cli_seed) if seed == DEFAULT_SEED and index < REFERENCE_JOBS else None


def parse_csv(text: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != HEADER:
        raise CheckError("output does not start with the CSV header")
    body = rows[1:]
    if any(len(r) != len(HEADER) for r in body):
        raise CheckError("output has a row with the wrong number of fields")
    return body


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise CheckError(f"non-finite value {text}")
    return value


def reference_path(workload: str, job: Job) -> str:
    return os.path.join(REFERENCE_DIR, workload, f"{job.reference}.csv")


def compare_reference(rows, job, workload, exact: bool) -> None:
    """Compare rows with the job's reference CSV, if it has one."""
    if job.reference is None:
        return
    path = reference_path(workload, job)
    if not os.path.exists(path):
        raise CheckError(f"reference {os.path.relpath(path, REFERENCE_DIR)} is missing")
    with open(path) as fh:
        ref = parse_csv(fh.read())
    if len(ref) != len(rows):
        raise CheckError(f"{len(rows)} rows, reference has {len(ref)}")
    for got, want in zip(rows, ref):
        if got[:6] != want[:6]:
            raise CheckError(f"row key {got[:6]} differs from reference {want[:6]}")
        if exact:
            if got[6] != want[6]:
                raise CheckError(f"{got[:6]}: {got[6]} != reference {want[6]}")
        else:
            a, b = float(got[6]), float(want[6])
            if abs(a - b) > REL_TOL * abs(b) + ABS_TOL:
                raise CheckError(f"{got[:6]}: {a!r} differs from reference {b!r}")


class RateCurves:
    """exp1: rate-bound curves over the default grid, no iteration."""

    name = "rate_curves"
    tag = 1
    unit = "(instance, algorithm, lambda) evaluation"
    instances = 4
    suite_size = 0
    trace_jobs = 20

    def job(self, seed, index, workdir):
        s = job_seed(seed, self.tag, index)
        return Job(["exp1", "--n", str(self.instances), "--seed", str(s),
                    "--dim", "6", "--sub-dims", "5,5,5", "--jobs", "1"],
                   units=self.instances * len(ALGORITHMS) * len(LAMBDA_GRID), cli_seed=s,
                   reference=default_reference(seed, index, s))

    def check(self, job, text):
        rows = parse_csv(text)
        if len(rows) != 2 * len(ALGORITHMS) * len(LAMBDA_GRID):
            raise CheckError(f"expected {4 * len(LAMBDA_GRID)} rows, got {len(rows)}")
        bounds = {}
        for exp, alg, lam, inst, metric, it, value in rows:
            if exp != "exp1" or int(inst) != job.cli_seed or it != "":
                raise CheckError(f"unexpected row {exp},{alg},{inst},{it}")
            bounds.setdefault((alg, float(lam)), {})[metric] = _finite(value)
        if sorted(bounds) != sorted((a, lam) for a in ALGORITHMS for lam in LAMBDA_GRID):
            raise CheckError("rows do not cover both algorithms over the default grid")
        for key, b in bounds.items():
            lower, upper = b["mean_spectral_radius"], b["mean_operator_norm"]
            if not 0.0 <= lower <= upper * (1 + REL_TOL) + ABS_TOL:
                raise CheckError(f"{key}: spectral radius {lower} exceeds operator norm {upper}")
        compare_reference(rows, job, self.name, exact=False)


class IterationCounts:
    """exp2: iterations to tol over the full default grid, one algorithm a job.

    The stream repeats a fixed suite of 16 instances, each as a Ryu job and
    an MT job, whatever the seed.  One instance costs 1 to 5 s, depending on
    how slowly it converges, so a run holds about a dozen instances;
    drawing them from the seed would move the run's throughput by an
    estimated 20% between seeds.  The suite is long enough that one round
    stays well above half of ``run_seconds``, so a run does not flip between
    one and two rounds.  Splitting each instance by algorithm gives a round
    32 jobs, so that ``job_tail_s`` (the 11th largest) lies above the median.
    """

    name = "iteration_counts"
    tag = 2
    unit = "run: one (set, point, algorithm, lambda) to tol"
    instances = 16
    suite_size = instances * len(ALGORITHMS)
    trace_jobs = suite_size
    max_iters = 10_000

    def argv(self, cli_seed, algorithm, n_sets=1, jobs=1):
        return ["exp2", "--n", str(n_sets), "--n-points", "1", "--seed", str(cli_seed),
                "--tol", "1e-6", "--max-iters", str(self.max_iters),
                "--dim", "6", "--sub-dims", "5,5,5", "--algorithm", algorithm,
                "--jobs", str(jobs)]

    def job(self, seed, index, workdir):
        instance, alg = divmod(index % self.suite_size, len(ALGORITHMS))
        s = job_seed(DEFAULT_SEED, self.tag, instance)
        return Job(self.argv(s, ALGORITHMS[alg]), units=len(LAMBDA_GRID), cli_seed=s,
                   reference=f"{s}-{ALGORITHMS[alg]}")

    def pool_probe(self):
        """Two-set job for comparing ``--jobs 1`` with ``--jobs 2``."""
        s = job_seed(DEFAULT_SEED, self.tag, 0)
        return [self.argv(s, "both", n_sets=2, jobs=j) for j in (1, 2)]

    def check(self, job, text):
        rows = parse_csv(text)
        if len(rows) != 2 * len(LAMBDA_GRID):
            raise CheckError(f"expected {2 * len(LAMBDA_GRID)} rows, got {len(rows)}")
        algorithm = job.argv[job.argv.index("--algorithm") + 1]
        for exp, alg, lam, inst, metric, it, value in rows:
            if exp != "exp2" or alg != algorithm or it != "":
                raise CheckError(f"unexpected row {exp},{alg},{it}")
            count = _finite(value)
            if count != int(count) or not 0 <= count <= self.max_iters:
                raise CheckError(f"{alg},{lam},{metric}: count {value} outside [0, --max-iters]")
        compare_reference(rows, job, self.name, exact=True)


class ShadowTraces:
    """exp3: 150 fixed iterations at lambda 0.99, distance every step."""

    name = "shadow_traces"
    tag = 3
    unit = "iteration of one run"
    sets, points, iters = 4, 4, 150
    suite_size = 0
    trace_jobs = 20

    def job(self, seed, index, workdir):
        s = job_seed(seed, self.tag, index)
        return Job(["exp3", "--n", str(self.sets), "--n-points", str(self.points),
                    "--lambda", "0.99", "--iters", str(self.iters), "--seed", str(s),
                    "--dim", "6", "--sub-dims", "5,5,5", "--jobs", "1"],
                   units=self.sets * self.points * len(ALGORITHMS) * self.iters, cli_seed=s,
                   reference=default_reference(seed, index, s))

    def check(self, job, text):
        rows = parse_csv(text)
        if len(rows) != len(ALGORITHMS) * self.iters:
            raise CheckError(f"expected {2 * self.iters} rows, got {len(rows)}")
        seen = set()
        for exp, alg, lam, inst, metric, it, value in rows:
            if exp != "exp3" or float(lam) != 0.99 or metric != "median_shadow_distance":
                raise CheckError(f"unexpected row {exp},{lam},{metric}")
            if _finite(value) < 0.0:
                raise CheckError(f"negative distance {value}")
            seen.add((alg, int(it)))
        if seen != {(a, k) for a in ALGORITHMS for k in range(1, self.iters + 1)}:
            raise CheckError("rows do not cover iterations 1..150 for both algorithms")
        compare_reference(rows, job, self.name, exact=False)


class AffineSolve:
    """run --trace on d=60 consistent affine problem files.

    Files alternate Ryu (3 subspaces of dimension 45, a 15-dimensional
    intersection) and MT (4 subspaces of dimension 54, 36-dimensional).
    Three subspaces at the feasibility bound 41 meet in 3 dimensions at tiny
    principal angles: spectral radii at lambda 0.5 of 0.995..0.9998, so
    most solves stop at the 10000-iteration cap short of tol.  Four at 41
    meet only in {0}, which makes the projection check trivial, and about
    one draw in a thousand trips the iterated Anderson-Duffin idempotence
    check (exit 2); four at 48 need up to 7800 iterations.  Over 300 draws,
    Ryu at 45 needs at most about 2500 iterations.  MT at 54 takes 200..300
    iterations, so that MT and Ryu solves overlap in cost (both 0.05..0.13
    s here) and the median job time does not fall in a gap between two
    clusters, where it would be set by their extreme jobs.

    The stream repeats a fixed suite of 16 files from the default seed:
    seed-drawn d=60 problems make LAPACK's gesdd fail to converge inside
    ``linalg.svd`` in about 1 Ryu solve in 250 (exit 3; see NOTES.md).
    """

    name = "affine_solve"
    tag = 4
    unit = "solve"
    d = 60
    suite_size = 16
    trace_jobs = 16
    max_iters = 10_000

    def job(self, seed, index, workdir):
        """Writes the problem file of suite entry ``index``."""
        rng = np.random.default_rng(job_seed(DEFAULT_SEED, self.tag, index))
        problem = self.make_problem(rng, n=3 if index % 2 == 0 else 4)
        path = os.path.join(workdir, f"problem-{index}.json")
        with open(path, "w") as fh:
            json.dump(problem["file"], fh)
        return Job(["run", "--problem", path, "--trace", "--tol", "1e-6",
                    "--max-iters", str(self.max_iters)], units=1, problem=problem)

    def make_problem(self, rng, n):
        """Problem file whose affine subspaces share a planted point."""
        d, k = self.d, (45 if n == 3 else 54)
        point = rng.standard_normal(d)
        bases = [rng.standard_normal((d, k)) for _ in range(n)]
        anchors = [point + b @ rng.standard_normal(k) for b in bases]
        x0 = rng.standard_normal(d)
        data = {
            "algorithm": "ryu" if n == 3 else "mt",
            "d": d,
            "subspaces": [{"d": d, "basis": b.T.tolist()} for b in bases],
            "anchors": [a.tolist() for a in anchors],
            "lambda": 0.5,
            # diagonal start: both operators then project x0 itself
            "start": [x0.tolist()] * (n - 1),
        }
        return {"file": data, "bases": bases, "point": point, "x0": x0}

    def oracle(self, problem) -> np.ndarray:
        """Projection of x0 onto the affine intersection, by one SVD."""
        d = self.d
        comps = []
        for b in problem["bases"]:
            q, _ = np.linalg.qr(b)
            comps.append(np.eye(d) - q @ q.T)
        _, s, vt = np.linalg.svd(np.vstack(comps))
        kernel = vt[int(np.sum(s > 1e-10 * s[0])):].T
        point, x0 = problem["point"], problem["x0"]
        return point + kernel @ (kernel.T @ (x0 - point))

    def check(self, job, text):
        rows = parse_csv(text)
        single = {}
        history = {"governing_distance": 0, "shadow_distance": 0}
        for exp, alg, lam, inst, metric, it, value in rows:
            if exp != "single" or float(lam) != 0.5:
                raise CheckError(f"unexpected row {exp},{lam}")
            if metric in history:
                history[metric] += 1
                _finite(value)
            else:
                single[metric] = _finite(value)
        if single.get("converged") != 1.0:
            raise CheckError("solve did not converge")
        iterations = int(single["iterations"])
        if any(count != iterations + 1 for count in history.values()):
            raise CheckError(f"trace rows {history} do not match {iterations} iterations")
        if not single["rate_lower_bound"] <= single["rate_upper_bound"] * (1 + REL_TOL) < 1.0:
            raise CheckError("rate bounds not ordered below 1")
        solution = np.array([single[f"solution_{i}"] for i in range(self.d)])
        if "oracle" not in job.problem:
            job.problem["oracle"] = self.oracle(job.problem)
        want = job.problem["oracle"]
        err = float(np.linalg.norm(solution - want))
        if err > SOLUTION_TOL * (1.0 + np.linalg.norm(want)):
            raise CheckError(f"solution is {err:.3e} from the oracle projection")


WORKLOADS = {w.name: w for w in (RateCurves(), IterationCounts(), ShadowTraces(), AffineSolve())}
