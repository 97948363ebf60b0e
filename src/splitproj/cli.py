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

Each subcommand calls `exp1`, `exp2`, `exp3` or `run_single` with the
flags it was given as keywords, so a flag that is left out takes that
function's default.

Exit codes: 0 success, 2 usage or input-format error, 3 numerical failure,
4 inconsistent (empty-intersection) affine input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

from .driver import (
    _BLOCK_ENTRIES,
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
        if not math.isfinite(self.metric_value):
            raise ValueError(f"metric {self.metric_name} is not finite")
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lambda must lie in (0, 1), got {self.lam}")


def default_lambda_grid() -> list:
    """The 0.01-spaced relaxation grid 0.01, 0.02, ..., 0.99."""
    return [round(0.01 * k, 12) for k in range(1, 100)]


def lower_median(values):
    """Deterministic median along axis 0: the lower of the two middle values
    when their number is even."""
    ordered = np.sort(values, axis=0)
    if not len(ordered):
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


def _start_points(seed: int, n_points: int, d: int) -> np.ndarray:
    """The ``(d, n_points)`` matrix whose column j is start point j."""
    return np.array([np.random.default_rng(seed ^ (_POINT_INDEX_BASE + j)).standard_normal(d)
                     for j in range(n_points)]).reshape(n_points, d).T


def _build_problem(algorithm: str, subs, anchors=None):
    if algorithm == "ryu":
        if len(subs) != 3:
            raise ValueError(f"the ryu operator needs exactly 3 subspaces, got {len(subs)}; use "
                             '--algorithm mt (in a problem file, "algorithm": "mt") for other counts')
        return RyuProblem(*subs, affine_anchors=anchors)
    return MTProblem(subs, affine_anchors=anchors)


def _instances(seed: int, index: int, d: int, dims, algorithms, points=None):
    """(algorithm, problem, starts) for each algorithm on instance ``index``.

    Column j of ``starts`` is column j of the ``(d, k)`` matrix ``points``
    (none by default) lifted diagonally into the governing space: x0 in
    each of the problem's n - 1 blocks.  The problems share one
    intersection of the subspaces, built by the first.
    """
    subs = _instance_subspaces(seed, index, d, dims)
    if points is None:
        points = np.empty((d, 0))
    first = None
    for algorithm in algorithms:
        problem = _build_problem(algorithm, subs)
        if first is None:
            first = problem
        else:  # fills the cached property
            problem._intersection = first._intersection
        yield algorithm, problem, np.tile(points, (problem.n - 1, 1))


def _run_parallel(worker, arglist, jobs: int):
    """The worker's results, in argument order."""
    if jobs <= 1:
        return [worker(args) for args in arglist]
    from concurrent.futures import ProcessPoolExecutor  # ~20 ms to import, so only here
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, arglist))


# ---------------------------------------------------------------------------
# Experiment 1: rate-bound curves
# ---------------------------------------------------------------------------

def _exp1_worker(args):
    """The (lower, upper) rate curves over the grid, per algorithm."""
    seed, index, d, dims, grid, algorithms = args
    return {algorithm: rate_curve(problem, grid)
            for algorithm, problem, _ in _instances(seed, index, d, dims, algorithms)}


def exp1(n_instances: int = 1000, lambda_grid=None, d: int = 6, dims=(5, 5, 5),
         seed: int = 0, algorithms=_ALGORITHMS, jobs: int = 1):
    """Mean rate bounds over random instances, per (algorithm, lambda).

    Emits ``mean_spectral_radius`` (lower bound) and ``mean_operator_norm``
    (upper bound) rows; the instance_seed column carries the master seed.
    """
    _check_counts(n_instances=n_instances, jobs=jobs)
    dims = _checked_dims(d, dims)
    grid = _checked_grid(lambda_grid)
    results = _run_parallel(
        _exp1_worker,
        [(seed, i, d, dims, grid, tuple(algorithms)) for i in range(n_instances)],
        jobs,
    )
    records = []
    for algorithm in algorithms:
        # (lambda, instance) rows, so each mean sums as the 1-D mean of its lambda
        lowers, uppers = (np.column_stack([res[algorithm][k] for res in results]).mean(axis=1)
                          for k in (0, 1))
        for lam, lo, up in zip(grid, lowers.tolist(), uppers.tolist()):
            records.append(ExperimentRecord("exp1", algorithm, lam, seed,
                                            "mean_spectral_radius", lo))
            records.append(ExperimentRecord("exp1", algorithm, lam, seed,
                                            "mean_operator_norm", up))
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
    lams = np.tile(grid, n_points)
    out = {}
    points = _start_points(seed, n_points, d)
    for algorithm, problem, starts in _instances(seed, set_index, d, dims, algorithms, points):
        starts = np.repeat(starts, len(grid), axis=1)
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
    _check_counts(n_sets=n_sets, n_points=n_points, jobs=jobs)
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
        gov, sh = lower_median(values).tolist()
        records.append(ExperimentRecord("exp2", algorithm, lam, seed,
                                        "median_governing_iterations", float(gov)))
        records.append(ExperimentRecord("exp2", algorithm, lam, seed,
                                        "median_shadow_iterations", float(sh)))
    return records


# ---------------------------------------------------------------------------
# Experiment 3: shadow convergence traces
# ---------------------------------------------------------------------------

def _exp3_worker(args):
    """Shadow distances after steps 1..n_iters of all start points of a run
    of consecutive sets, one ``(points, n_iters)`` row block per set and
    algorithm, stacked in set order.

    The chunk's (set, algorithm) problems whose steps share one shape step
    together, their start points as columns, through one stacked `orbit`.
    """
    seed, sets, d, dims, lam, algorithms, n_points, n_iters = args
    points = _start_points(seed, n_points, d)  # the same for every set
    groups = {}
    for i in sets:
        for run in _instances(seed, i, d, dims, algorithms, points):
            groups.setdefault(run[1]._step[0].shape, []).append(run)
    out = {algorithm: [] for algorithm in algorithms}
    for group in groups.values():
        names, problems, starts = zip(*group)
        limit = np.stack([shadow_limit(p, z) for p, z in zip(problems, starts)])
        dists, steps = [], 0
        for block in orbit(problems, np.stack(starts), lam):
            dists.append(np.linalg.norm(block[..., :limit.shape[-2], :] - limit, axis=-2))
            steps += len(block)
            if steps > n_iters:
                break
        # slice 0 is the start; then one (points, n_iters) trace per problem
        for algorithm, trace in zip(names, np.concatenate(dists)[1:n_iters + 1].transpose(1, 2, 0)):
            out[algorithm].append(trace)
    return {algorithm: np.vstack(traces) for algorithm, traces in out.items()}


def exp3(n_sets: int = 100, n_points: int = 100, lam: float = 0.99,
         n_iters: int = 150, d: int = 6, dims=(5, 5, 5), seed: int = 0,
         algorithms=_ALGORITHMS, jobs: int = 1):
    """Median shadow distance to the limit at each iteration 1..n_iters.

    Each `_exp3_worker` call steps a contiguous chunk of sets together, so
    the work per Python-level step grows with the chunk while every
    distance keeps its bits.
    """
    _check_counts(n_sets=n_sets, n_points=n_points, n_iters=n_iters, jobs=jobs)
    dims = _checked_dims(d, dims)
    _relaxations(lam)
    # a chunk holds at most ceil(n_sets / jobs) sets, and no more than keep
    # one stacked step within an orbit block (a larger set goes alone); a
    # problem's step has (3n - 2) d rows: n shadow blocks, then the iterate
    # and its displacement, n - 1 blocks each
    per_set = len(algorithms) * n_points * (3 * len(dims) - 2) * d
    size = max(1, min(-(-n_sets // jobs), _BLOCK_ENTRIES // per_set))
    chunks = [range(i, min(i + size, n_sets)) for i in range(0, n_sets, size)]
    results = _run_parallel(
        _exp3_worker,
        [(seed, sets, d, dims, lam, tuple(algorithms), n_points, n_iters) for sets in chunks],
        jobs,
    )
    records = []
    for algorithm in algorithms:
        medians = lower_median(np.vstack([out[algorithm] for out in results]))
        records += [ExperimentRecord("exp3", algorithm, lam, seed, "median_shadow_distance",
                                     med, iteration=k + 1)
                    for k, med in enumerate(medians.tolist())]
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
        records += [row("governing_distance", v, k)
                    for k, v in enumerate(trace.governing_distances.tolist())]
        records += [row("shadow_distance", v, k)
                    for k, v in enumerate(trace.shadow_distances.tolist())]
    return records


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _sort_key(record: ExperimentRecord):
    return (record.experiment, record.algorithm, record.lam, record.instance_seed,
            -1 if record.iteration is None else record.iteration, record.metric_name)


def records_to_csv(records) -> str:
    """Stable CSV rendering: fixed sort order, 17-significant-digit floats.

    Each row is one ``%`` format, and the text one join.  The text fields
    are the harness's own names, none of which needs CSV quoting.
    """
    rows = ["%s,%s,%.17g,%s,%s,%s,%.17g\n" % (
        r.experiment, r.algorithm, r.lam, r.instance_seed, r.metric_name,
        "" if r.iteration is None else r.iteration, r.metric_value)
        for r in sorted(records, key=_sort_key)]
    return ",".join(CSV_HEADER) + "\n" + "".join(rows)


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


def _check_counts(**counts) -> None:
    """Raise a ValueError naming the first count below 1 (`_count`'s rule)."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _checked_grid(grid):
    grid = list(default_lambda_grid() if grid is None else grid)
    if not grid:
        raise ValueError("lambda grid must be nonempty")
    _relaxations(grid)
    return grid


_MAX_GRID = 10_000  # values in a --lambda-grid: about 100 times the default grid


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected start:step:end")
    start, step, end = (float(p) for p in parts)
    if not np.all(np.isfinite((start, step, end))):
        raise argparse.ArgumentTypeError("start, step and end must be finite")
    if step <= 0 or end < start:
        raise argparse.ArgumentTypeError("need step > 0 and end >= start")
    # value i is round(start + i * step, 12) while that is at most end + 1e-12;
    # the quotient may miss the last one by rounding, so count on from it
    count = int(min((end - start) / step, _MAX_GRID)) + 1
    while count <= _MAX_GRID and round(start + count * step, 12) <= end + 1e-12:
        count += 1
    if count > _MAX_GRID:
        raise argparse.ArgumentTypeError(f"more than {_MAX_GRID} values")
    values = [round(start + i * step, 12) for i in range(count)]
    if len(set(values)) < count:
        raise argparse.ArgumentTypeError("values repeat after rounding to 12 decimal places")
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


def _parse_algorithms(text: str):
    if text not in ("ryu", "mt", "both"):
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from 'ryu', 'mt', 'both')")
    return _ALGORITHMS if text == "both" else (text,)


@cache  # parsing leaves the parser unchanged, so one per process serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitproj",
        description="Projection onto subspace intersections by resolvent "
                    "splitting: experiment harness and single-problem runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a flag that is left out stays out of the namespace, so the function
    # that the subcommand calls applies its own default
    p1, p2, p3, pr = (sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
                      for name, text in (("exp1", "mean rate bounds over a lambda grid"),
                                         ("exp2", "median iterations to reach tolerance"),
                                         ("exp3", "median shadow distance per iteration"),
                                         ("run", "solve a single problem file")))
    p1.add_argument("--n", dest="n_instances", type=_count, metavar="N",
                    help="number of random instances")
    for p in (p2, p3):
        p.add_argument("--n", dest="n_sets", type=_count, metavar="N",
                       help="number of subspace sets")
        p.add_argument("--n-points", type=_count, help="start points per subspace set")
    for p in (p1, p2, p3):
        p.add_argument("--dim", dest="d", type=int, metavar="DIM", help="ambient dimension d")
        p.add_argument("--sub-dims", dest="dims", type=_parse_dims, metavar="a,b,c",
                       help="subspace dimensions per instance")
        p.add_argument("--seed", type=lambda t: _count(t, 0), help="master seed (nonnegative)")
        p.add_argument("--algorithm", dest="algorithms", type=_parse_algorithms,
                       metavar="{ryu,mt,both}")
        p.add_argument("--jobs", type=_count, help="parallel worker processes")
    for p in (p1, p2):
        group = p.add_mutually_exclusive_group()
        group.add_argument("--lambda", dest="lambda_grid", type=float, nargs=1, metavar="LAM",
                           help="single relaxation value")
        group.add_argument("--lambda-grid", dest="lambda_grid", type=_parse_grid,
                           metavar="start:step:end", help="relaxation grid")
    p3.add_argument("--lambda", dest="lam", type=float, metavar="LAM")
    p3.add_argument("--iters", dest="n_iters", type=_count, metavar="ITERS",
                    help="iterations per run")
    pr.add_argument("--problem", dest="path", required=True, metavar="PROBLEM",
                    help="problem JSON file")
    for p in (p2, pr):
        p.add_argument("--tol", type=float)
        p.add_argument("--max-iters", type=int)
    pr.add_argument("--trace", dest="include_trace", action="store_true",
                    help="include per-iteration rows")
    for p in (p1, p2, p3, pr):
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"))
    return parser


def _dispatch(kwargs) -> list:
    """Call the subcommand's function with the parsed flags as keywords."""
    # looked up at each call, so that wrappers installed on this module's
    # globals are what runs
    functions = {"exp1": exp1, "exp2": exp2, "exp3": exp3, "run": run_single}
    return functions[kwargs.pop("command")](**kwargs)


def main(argv=None) -> int:
    kwargs = vars(_build_parser().parse_args(argv))
    out = kwargs.pop("out", None)
    as_json = kwargs.pop("format", "csv") == "json"
    created = False
    if out:
        try:  # fail before any work; append mode truncates nothing
            created = not os.path.exists(out)
            open(out, "a").close()
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    code = None
    try:
        code = _run(kwargs, out, as_json)
    finally:  # a failed run leaves no --out file that it created
        if created and code != 0:
            os.remove(out)
    return code


def _run(kwargs, out, as_json) -> int:
    """Run the subcommand and write its rows; the exit code."""
    try:
        records = _dispatch(kwargs)
    except InconsistentAffineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (NumericalFailure, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ProblemFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = records_to_json(records) if as_json else records_to_csv(records)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
