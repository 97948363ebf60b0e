"""Command-line experiment harness.

Subcommands reproduce the three numerical studies on random subspace
instances and run single problems from JSON files:

* ``exp1`` -- averages of the spectral-radius lower bound and operator-norm
  upper bound on the convergence rate, over a relaxation grid;
* ``exp2`` -- median iteration counts for the governing and shadow sequences
  to reach a prescribed accuracy, over a relaxation grid;
* ``exp3`` -- median per-iteration shadow distance to the known limit;
* ``run``  -- solve one problem file, emitting the computed projection,
  iteration count, rate bounds, and optionally the full trace.

Output is CSV (default) or JSON rows with the schema
``experiment,algorithm,lambda,instance_seed,metric_name,iteration,metric_value``.
Runs are deterministic: instance seeds derive from the master seed XOR an
instance index (start points use a disjoint index range), rows are reduced
and sorted in fixed key order, and floats are serialized with 17 significant
digits, so equal seeds give byte-identical output at any parallelism level.
A start point x0 in R^d is lifted diagonally into the governing space, so
both algorithms share the shadow limit: n copies of the projection of x0.

Exit codes: 0 success, 2 usage or input-format error, 3 numerical failure,
4 inconsistent (empty-intersection) affine input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .driver import (
    IterationConfig,
    _relaxations,
    batch_iteration_counts,
    iterate,
    orbit,
    rate_bounds,
    rate_curve,
    shadow_limit,
)
from .linalg import NumericalFailure
from .splitting import InconsistentAffineError, MTProblem, RyuProblem
from .subspaces import GenerationError, _ambient_dim, _spanned_draw, feasible_dims, subspace_from_dict

CSV_HEADER = ("experiment", "algorithm", "lambda", "instance_seed",
              "metric_name", "iteration", "metric_value")

#: Start-point seeds are offset into their own index range so they can
#: never collide with subspace-set seeds (seed XOR index is injective).
_POINT_INDEX_BASE = 1 << 20

_ALGORITHMS = ("ryu", "mt")


class ProblemFormatError(Exception):
    """A problem file could not be parsed or fails schema validation."""


@dataclass
class ExperimentRecord:
    """One output row of the harness."""

    experiment: str
    algorithm: str
    lam: float
    instance_seed: int
    metric_name: str
    metric_value: float
    iteration: int | None = None

    def __post_init__(self):
        if not np.isfinite(self.metric_value):
            raise ValueError(f"metric {self.metric_name} is not finite")
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lambda must lie in (0, 1), got {self.lam}")


def default_lambda_grid() -> list:
    """The 0.01-spaced relaxation grid 0.01, 0.02, ..., 0.99."""
    return [round(0.01 * k, 12) for k in range(1, 100)]


def lower_median(values):
    """Deterministic median: the lower of the two middle values when even."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of empty sequence")
    return ordered[(len(ordered) - 1) // 2]


# ---------------------------------------------------------------------------
# Deterministic instance generation
# ---------------------------------------------------------------------------

def _instance_subspaces(seed: int, index: int, d: int, dims):
    """Random experiment instance: spans of uniform [0, 1) row matrices.

    Experiment instances deliberately use uniform rather than Gaussian
    entries: the reference experiments this harness reproduces were run in
    an environment whose default matrix sampler is uniform on [0, 1), and
    the location of the general-n operator's best relaxation is sensitive
    to that choice (uniform entries give the subspaces a shared dominant
    direction).  The library-level `random_subspace` sampler stays
    Gaussian.
    """
    rng = np.random.default_rng(seed ^ index)
    return [_spanned_draw(d, k, rng.random, "uniform") for k in dims]


def _start_point(seed: int, point_index: int, d: int) -> np.ndarray:
    rng = np.random.default_rng(seed ^ (_POINT_INDEX_BASE + point_index))
    return rng.standard_normal(d)


def _build_problem(algorithm: str, subs, anchors=None):
    if algorithm == "ryu":
        if len(subs) != 3:
            raise ValueError(f"the ryu operator needs exactly 3 subspaces, got {len(subs)}")
        return RyuProblem(*subs, affine_anchors=anchors)
    return MTProblem(subs, affine_anchors=anchors)


def _lift_start(x0: np.ndarray, n: int) -> np.ndarray:
    return np.tile(x0, n - 1)


def _run_parallel(worker, arglist, jobs: int):
    """The worker's results, in argument order."""
    if jobs <= 1:
        return [worker(args) for args in arglist]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, arglist))


# ---------------------------------------------------------------------------
# Experiment 1: rate-bound curves
# ---------------------------------------------------------------------------

def _exp1_worker(args):
    seed, index, d, dims, grid, algorithms = args
    subs = _instance_subspaces(seed, index, d, dims)
    out = {}
    for algorithm in algorithms:
        lower, upper = rate_curve(_build_problem(algorithm, subs), grid)
        for lam, lo, up in zip(grid, lower.tolist(), upper.tolist()):
            out[(algorithm, lam)] = (lo, up)
    return out


def exp1(n_instances: int = 1000, lambda_grid=None, d: int = 6, dims=(5, 5, 5),
         seed: int = 0, algorithms=_ALGORITHMS, jobs: int = 1):
    """Mean rate bounds over random instances, per (algorithm, lambda).

    Emits ``mean_spectral_radius`` (lower bound) and ``mean_operator_norm``
    (upper bound) rows; the instance_seed column carries the master seed.
    """
    dims = _checked_dims(d, dims)
    grid = _checked_grid(lambda_grid)
    results = _run_parallel(
        _exp1_worker,
        [(seed, i, d, dims, grid, tuple(algorithms)) for i in range(n_instances)],
        jobs,
    )
    records = []
    for algorithm in algorithms:
        for lam in grid:
            lowers = np.array([res[(algorithm, lam)][0] for res in results])
            uppers = np.array([res[(algorithm, lam)][1] for res in results])
            records.append(ExperimentRecord("exp1", algorithm, lam, seed,
                                            "mean_spectral_radius", float(lowers.mean())))
            records.append(ExperimentRecord("exp1", algorithm, lam, seed,
                                            "mean_operator_norm", float(uppers.mean())))
    return records


# ---------------------------------------------------------------------------
# Experiment 2: iterations to prescribed accuracy
# ---------------------------------------------------------------------------

def _exp2_worker(args):
    """All (point, lambda) runs of one subspace set, one kernel call per algorithm.

    Column ``j * len(grid) + l`` of the kernel is point j at relaxation
    ``grid[l]``, so each (algorithm, lambda) array of (governing, shadow)
    rows stays in point order.
    """
    seed, set_index, d, dims, grid, algorithms, n_points, tol, max_iters = args
    subs = _instance_subspaces(seed, set_index, d, dims)
    points = [_start_point(seed, j, d) for j in range(n_points)]
    out = {}
    for algorithm in algorithms:
        problem = _build_problem(algorithm, subs)
        starts = np.repeat(np.column_stack([_lift_start(x0, problem.n) for x0 in points]),
                           len(grid), axis=1)
        lams = np.tile(grid, n_points)
        pairs = np.column_stack(batch_iteration_counts(problem, starts, lams, tol, max_iters))
        for i, lam in enumerate(grid):
            out[(algorithm, lam)] = pairs[i::len(grid)]
    return out


def exp2_counts(n_sets: int = 100, n_points: int = 100, lambda_grid=None,
                tol: float = 1e-6, max_iters: int = 10_000, d: int = 6,
                dims=(5, 5, 5), seed: int = 0, algorithms=_ALGORITHMS, jobs: int = 1):
    """Per-run (governing, shadow) iteration counts keyed by (algorithm, lambda).

    Each value is a ``(runs, 2)`` integer array, one (governing, shadow)
    row per run.

    A run is one (set, point, algorithm, lambda).  For each subspace set
    and algorithm, all ``n_points * len(grid)`` runs are the columns of one
    call of the column kernel `batch_iteration_counts`: the problem and its
    limits are built once, the columns are stepped together, and a column
    leaves the working set as soon as both its governing and its shadow
    count are known.  Runs that never reach ``tol`` contribute
    ``max_iters``.  Rows are ordered by (set index, point index).
    """
    dims = _checked_dims(d, dims)
    grid = _checked_grid(lambda_grid)
    results = _run_parallel(
        _exp2_worker,
        [(seed, i, d, dims, grid, tuple(algorithms), n_points, tol, max_iters)
         for i in range(n_sets)],
        jobs,
    )
    # popping frees each set's arrays as soon as they are concatenated
    return {key: np.concatenate([out.pop(key) for out in results])
            for key in [(algorithm, lam) for algorithm in algorithms for lam in grid]}


def exp2(n_sets: int = 100, n_points: int = 100, lambda_grid=None,
         tol: float = 1e-6, max_iters: int = 10_000, d: int = 6,
         dims=(5, 5, 5), seed: int = 0, algorithms=_ALGORITHMS, jobs: int = 1):
    """Median iterations to reach ``tol``, per (algorithm, lambda).

    Emits ``median_governing_iterations`` (distance to the fixed-point
    projection of the start) and ``median_shadow_iterations`` (distance of
    the stacked forward blocks to their limit): the lower medians over all
    (set, point) runs of the counts from `exp2_counts`, which steps every
    run of a set and algorithm together as a column and drops a column once
    both its counts are known.
    """
    counts = exp2_counts(n_sets, n_points, lambda_grid, tol, max_iters, d,
                         dims, seed, algorithms, jobs)
    records = []
    for (algorithm, lam), values in counts.items():
        gov = lower_median(values[:, 0].tolist())
        sh = lower_median(values[:, 1].tolist())
        records.append(ExperimentRecord("exp2", algorithm, lam, seed,
                                        "median_governing_iterations", float(gov)))
        records.append(ExperimentRecord("exp2", algorithm, lam, seed,
                                        "median_shadow_iterations", float(sh)))
    return records


# ---------------------------------------------------------------------------
# Experiment 3: shadow convergence traces
# ---------------------------------------------------------------------------

def _exp3_worker(args):
    """Shadow distances after steps 1..n_iters of all start points of one
    set, stepped together as the columns of one `orbit`."""
    seed, set_index, d, dims, lam, algorithms, n_points, n_iters = args
    subs = _instance_subspaces(seed, set_index, d, dims)
    points = [_start_point(seed, j, d) for j in range(n_points)]
    out = {}
    for algorithm in algorithms:
        problem = _build_problem(algorithm, subs)
        z = np.column_stack([_lift_start(x0, problem.n) for x0 in points])
        limit = shadow_limit(problem, z)
        dists, steps = [], 0
        for block in orbit(problem, z, lam):
            dists.append(np.linalg.norm(block[:, :len(limit)] - limit, axis=1))
            steps += len(block)
            if steps > n_iters:
                break
        out[algorithm] = np.concatenate(dists)[1:n_iters + 1].T  # slice 0 is the start
    return out


def exp3(n_sets: int = 100, n_points: int = 100, lam: float = 0.99,
         n_iters: int = 150, d: int = 6, dims=(5, 5, 5), seed: int = 0,
         algorithms=_ALGORITHMS, jobs: int = 1):
    """Median shadow distance to the limit at each iteration 1..n_iters."""
    dims = _checked_dims(d, dims)
    _relaxations(lam)
    results = _run_parallel(
        _exp3_worker,
        [(seed, i, d, dims, lam, tuple(algorithms), n_points, n_iters)
         for i in range(n_sets)],
        jobs,
    )
    records = []
    for algorithm in algorithms:
        stacked = np.vstack([out[algorithm] for out in results])
        for k in range(n_iters):
            med = lower_median(stacked[:, k].tolist())
            records.append(ExperimentRecord("exp3", algorithm, lam, seed,
                                            "median_shadow_distance", float(med),
                                            iteration=k + 1))
    return records


# ---------------------------------------------------------------------------
# Single problem runs
# ---------------------------------------------------------------------------

def load_problem(path: str):
    """Load a problem JSON file; returns (problem, lambda, start vector)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemFormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"{path}: invalid JSON at line {exc.lineno}, "
                                 f"column {exc.colno}: {exc.msg}") from exc
    try:
        algorithm = data["algorithm"]
        if algorithm not in _ALGORITHMS:
            raise ValueError(f"algorithm must be one of {_ALGORITHMS}, got {algorithm!r}")
        d = _ambient_dim(data)
        subs = [subspace_from_dict(obj) for obj in data["subspaces"]]
        if any(s.ambient_dim != d for s in subs):
            raise ValueError("subspace ambient dimensions disagree with d")
        anchors = data.get("anchors")
        lam = float(data["lambda"])
        _relaxations(lam)
        problem = _build_problem(algorithm, subs, anchors)
        blocks = [np.asarray(b, dtype=float) for b in data["start"]]
        if len(blocks) != problem.n - 1 or any(b.shape != (d,) for b in blocks):
            raise ValueError(f"start must be {problem.n - 1} blocks of length {d}")
        if not all(np.isfinite(b).all() for b in blocks):
            raise ValueError("start must be finite")
        start = np.concatenate(blocks)
    except InconsistentAffineError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{path}: {exc}") from exc
    return problem, lam, start


def run_single(path: str, tol: float = 1e-6, max_iters: int = 10_000,
               include_trace: bool = False):
    """Solve one problem file; emit summary rows (experiment ``single``).

    The solution row coordinates are the first block of the final shadow
    point, i.e. the computed projection onto the (affine) intersection.
    """
    problem, lam, start = load_problem(path)
    config = IterationConfig(lam, tol=tol, max_iters=max_iters)
    trace = iterate(problem, config, start, record_history=include_trace)
    bounds = rate_bounds(problem.parallel(), lam)
    algorithm = "ryu" if isinstance(problem, RyuProblem) else "mt"

    def row(metric, value, iteration=None):
        return ExperimentRecord("single", algorithm, lam, 0, metric, float(value), iteration)

    records = [row("iterations", trace.iterations),
               row("converged", 1.0 if trace.converged else 0.0),
               row("rate_lower_bound", bounds.lower), row("rate_upper_bound", bounds.upper)]
    records += [row(f"solution_{i}", v) for i, v in enumerate(trace.final_shadow[:problem.d])]
    if include_trace:
        records += [row("governing_distance", v, k) for k, v in enumerate(trace.governing_distances)]
        records += [row("shadow_distance", v, k) for k, v in enumerate(trace.shadow_distances)]
    return records


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _sort_key(record: ExperimentRecord):
    return (record.experiment, record.algorithm, record.lam, record.instance_seed,
            -1 if record.iteration is None else record.iteration, record.metric_name)


def records_to_csv(records) -> str:
    """Stable CSV rendering: fixed sort order, 17-significant-digit floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in sorted(records, key=_sort_key):
        writer.writerow([
            r.experiment, r.algorithm, format(r.lam, ".17g"), r.instance_seed,
            r.metric_name, "" if r.iteration is None else r.iteration,
            format(r.metric_value, ".17g"),
        ])
    return buf.getvalue()


def records_to_json(records) -> str:
    rows = [
        {
            "experiment": r.experiment,
            "algorithm": r.algorithm,
            "lambda": r.lam,
            "instance_seed": r.instance_seed,
            "metric_name": r.metric_name,
            "iteration": r.iteration,
            "metric_value": r.metric_value,
        }
        for r in sorted(records, key=_sort_key)
    ]
    return json.dumps(rows, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------

def _checked_dims(d: int, dims):
    dims = tuple(int(k) for k in dims)
    if not feasible_dims(d, dims):
        bound = 1 + -(-2 * d // 3)
        raise ValueError(
            f"infeasible subspace dimensions {dims} for d={d}: every dimension "
            f"must be at least 1 + ceil(2d/3) = {bound} to guarantee a "
            "nontrivial intersection"
        )
    return dims


def _checked_grid(grid):
    grid = list(default_lambda_grid() if grid is None else grid)
    if not grid or any(not 0.0 < lam < 1.0 for lam in grid):
        raise ValueError("lambda grid must be nonempty with all values in (0, 1)")
    return grid


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected start:step:end")
    start, step, end = (float(p) for p in parts)
    if step <= 0 or end < start:
        raise argparse.ArgumentTypeError("need step > 0 and end >= start")
    values = []
    i = 0
    while True:
        v = round(start + i * step, 12)
        if v > end + 1e-12:
            break
        values.append(v)
        i += 1
    return values


def _count(text: str, minimum: int = 1) -> int:
    """An integer argument of at least ``minimum`` (a count by default)."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


def _parse_dims(text: str):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected comma-separated integers") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitproj",
        description="Projection onto subspace intersections by resolvent "
                    "splitting: experiment harness and single-problem runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_instances=True):
        p.add_argument("--dim", type=int, default=6, help="ambient dimension d")
        p.add_argument("--sub-dims", type=_parse_dims, default=(5, 5, 5),
                       metavar="a,b,c", help="subspace dimensions per instance")
        p.add_argument("--seed", type=lambda t: _count(t, 0), default=0, help="master seed (nonnegative)")
        p.add_argument("--algorithm", choices=("ryu", "mt", "both"), default="both")
        p.add_argument("--jobs", type=_count, default=1, help="parallel worker processes")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if with_instances:
            p.add_argument("--n", type=_count,
                           help="number of random instances / subspace sets")

    p1 = sub.add_parser("exp1", help="mean rate bounds over a lambda grid")
    add_common(p1)
    group1 = p1.add_mutually_exclusive_group()
    group1.add_argument("--lambda", dest="lam", type=float, help="single relaxation value")
    group1.add_argument("--lambda-grid", dest="grid", type=_parse_grid,
                        metavar="start:step:end", help="relaxation grid (default 0.01:0.01:0.99)")

    p2 = sub.add_parser("exp2", help="median iterations to reach tolerance")
    add_common(p2)
    group2 = p2.add_mutually_exclusive_group()
    group2.add_argument("--lambda", dest="lam", type=float)
    group2.add_argument("--lambda-grid", dest="grid", type=_parse_grid, metavar="start:step:end")
    p2.add_argument("--n-points", type=_count, default=100, help="start points per subspace set")
    p2.add_argument("--tol", type=float, default=1e-6)
    p2.add_argument("--max-iters", type=int, default=10_000)

    p3 = sub.add_parser("exp3", help="median shadow distance per iteration")
    add_common(p3)
    p3.add_argument("--lambda", dest="lam", type=float, default=0.99)
    p3.add_argument("--n-points", type=_count, default=100)
    p3.add_argument("--iters", type=_count, default=150, help="iterations per run")

    pr = sub.add_parser("run", help="solve a single problem file")
    pr.add_argument("--problem", required=True, help="problem JSON file")
    pr.add_argument("--tol", type=float, default=1e-6)
    pr.add_argument("--max-iters", type=int, default=10_000)
    pr.add_argument("--trace", action="store_true", help="include per-iteration rows")
    pr.add_argument("--out", help="output path (default stdout)")
    pr.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _dispatch(args) -> list:
    if args.command == "run":
        return run_single(args.problem, tol=args.tol, max_iters=args.max_iters,
                          include_trace=args.trace)
    algorithms = _ALGORITHMS if args.algorithm == "both" else (args.algorithm,)
    if "ryu" in algorithms and len(args.sub_dims) != 3:
        raise ValueError("the ryu operator needs exactly 3 subspaces; "
                         "use --algorithm mt for other counts")
    if args.command == "exp1":
        grid = [args.lam] if args.lam is not None else args.grid
        return exp1(n_instances=args.n if args.n is not None else 1000,
                    lambda_grid=grid, d=args.dim, dims=args.sub_dims,
                    seed=args.seed, algorithms=algorithms, jobs=args.jobs)
    if args.command == "exp2":
        grid = [args.lam] if args.lam is not None else args.grid
        return exp2(n_sets=args.n if args.n is not None else 100,
                    n_points=args.n_points, lambda_grid=grid, tol=args.tol,
                    max_iters=args.max_iters, d=args.dim, dims=args.sub_dims,
                    seed=args.seed, algorithms=algorithms, jobs=args.jobs)
    return exp3(n_sets=args.n if args.n is not None else 100,
                n_points=args.n_points, lam=args.lam, n_iters=args.iters,
                d=args.dim, dims=args.sub_dims, seed=args.seed,
                algorithms=algorithms, jobs=args.jobs)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out", None):
        try:  # fail before any work; append mode truncates nothing
            open(args.out, "a").close()
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    try:
        records = _dispatch(args)
    except InconsistentAffineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (NumericalFailure, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ProblemFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = records_to_csv(records) if args.format == "csv" else records_to_json(records)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
