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

Each subcommand calls `exp1`, `exp2`, `exp3` or `run_single` with its
flags as keywords (a flag that is left out takes the function's default)
and writes the `Table` of columns it returns as CSV (default) or JSON rows
with the fields of `CSV_HEADER`.  Runs are deterministic: instance seeds
derive from the master seed XOR an instance index (start points use a
disjoint index range), the writers sort the rows in fixed key order, and
floats are serialized with 17 significant digits, so equal seeds give
byte-identical output at any parallelism level.  A start point x0 in R^d
is lifted diagonally into the governing space, so both algorithms share
the shadow limit: n copies of the projection of x0.

Exit codes: 0 success, 2 usage or input-format error, 3 numerical failure,
4 inconsistent (empty-intersection) affine input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import NamedTuple

import numpy as np

from .driver import (
    _BLOCK_ENTRIES,
    IterationConfig,
    _check_stop,
    _rate_curves,
    _relaxations,
    batch_iteration_counts,
    iterate,
    orbit,
    rate_bounds,
    shadow_limit,
)
from .linalg import NumericalFailure
from .splitting import InconsistentAffineError, MTProblem, RyuProblem, _fill_fix_spaces, _read_only
from .subspaces import (
    GenerationError,
    _ambient_dim,
    _bases,
    _integer,
    _intersections,
    _numbers,
    _spanned_draw,
    _spans,
    _unchecked,
    feasible_dims,
    subspace_from_dict,
)

CSV_HEADER = ("experiment", "algorithm", "lambda", "instance_seed",
              "metric_name", "iteration", "metric_value")

#: Start-point seeds are offset into their own index range so they can
#: never collide with subspace-set seeds (seed XOR index is injective).
_POINT_INDEX_BASE = 1 << 20

#: The problem class of each operator name; each class describes its operator.
_OPERATORS = {cls.name: cls for cls in (RyuProblem, MTProblem)}
_ALGORITHMS = tuple(_OPERATORS)


class ProblemFormatError(Exception):
    """A problem file could not be parsed or fails schema validation."""


class Table(NamedTuple):
    """The rows of one experiment call as columns: row i is (experiment, algorithm[i],
    lam[i], seed, metric[i], iteration[i] (-1 for none), value[i]); writers check them.
    Text columns are numpy unicode arrays, which drop trailing NUL characters."""

    experiment: str
    seed: int
    algorithm: np.ndarray
    lam: np.ndarray
    metric: np.ndarray
    iteration: np.ndarray
    value: np.ndarray


def _table(experiment: str, seed: int, algorithm, lam, metric, value, iteration=-1) -> Table:
    """The Table of the columns broadcast against each other and flattened."""
    columns = np.broadcast_arrays(algorithm, lam, metric, iteration, np.asarray(value, dtype=float))
    return Table(experiment, seed, *(c.ravel() for c in columns))


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
    """The problem of the operator named ``algorithm``, one of `_ALGORITHMS`."""
    if algorithm not in _ALGORITHMS:
        raise ValueError(f"algorithm must be one of {_ALGORITHMS}, got {algorithm!r}")
    _check_count(algorithm, len(subs))
    return _OPERATORS[algorithm]._of(subs, affine_anchors=anchors)


def _check_count(name: str, count: int) -> None:
    if (needed := _OPERATORS[name]._arity) not in (None, count):
        raise ValueError(f"the {name} operator needs exactly {needed} subspaces, got {count}; use "
                         '--algorithm mt (in a problem file, "algorithm": "mt") for other counts')


def _instances(seed: int, indices, d: int, dims, algorithms) -> dict:
    """``{algorithm: [problem of each instance of indices, in index order]}``.

    The draws of `_instance_subspaces`, in its order, are spanned as one
    stack per subspace, and the shared intersection of each instance's
    problems comes from one fold over those stacks; an instance with a
    draw below full rank is redrawn whole.
    """
    rngs = [np.random.default_rng(seed ^ i) for i in indices]
    spans = [_spans(np.stack([rng.random((k, d)) for rng in rngs]).transpose(0, 2, 1))
             for k in dims]
    ranks = _bases(np.concatenate(spans))[1].reshape(len(dims), -1)
    for i in np.flatnonzero(np.any(ranks != np.array(dims)[:, None], axis=0)):
        for p, s in zip(spans, _instance_subspaces(seed, indices[i], d, dims)):
            p[i] = s.projector
    meets = _intersections(spans)
    _read_only(meets)
    out = {a: [_build_problem(a, [_unchecked(p[i]) for p in spans]) for i in range(len(meets))]
           for a in algorithms}
    for problems in out.values():
        for problem, meet in zip(problems, meets):
            problem._intersection = _unchecked(meet)  # fills the cached property
    return out


def _chunks(count: int, jobs: int, entries: int) -> list:
    """Consecutive ranges of at most ceil(count / jobs) indices, and no more
    than keep ``entries`` per index within ``_BLOCK_ENTRIES`` (a larger
    index goes alone)."""
    size = max(1, min(-(-count // jobs), _BLOCK_ENTRIES // entries))
    return [range(i, min(i + size, count)) for i in range(0, count, size)]


def _run_parallel(worker, arglist, jobs: int):
    """The worker's results, in argument order, from at most one process per
    task (a fork pool starts all its workers at the first), or serially."""
    if (workers := min(jobs, len(arglist))) <= 1:
        return [worker(args) for args in arglist]
    from concurrent.futures import ProcessPoolExecutor  # ~20 ms to import, so only here
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, arglist))


# ---------------------------------------------------------------------------
# Experiment 1: rate-bound curves
# ---------------------------------------------------------------------------

def _exp1_worker(args):
    """The (lower, upper) rate curves over the grid of each instance of a
    run of consecutive ones, per algorithm: a ``(2, algorithms, grid,
    instances)`` array from one `_rate_curves` call for every problem of the run."""
    seed, indices, d, dims, grid, algorithms = args
    instances = _instances(seed, indices, d, dims, algorithms)
    for problems in instances.values():
        _fill_fix_spaces(problems)
    curves = _rate_curves([p for a in algorithms for p in instances[a]], grid)
    return np.ascontiguousarray(curves.reshape(2, len(algorithms), len(indices), -1).swapaxes(2, 3))


def exp1(n_instances: int = 1000, lambda_grid=None, d: int = 6, dims=(5, 5, 5),
         seed: int = 0, algorithms=_ALGORITHMS, jobs: int = 1):
    """Mean rate bounds over random instances, per (algorithm, lambda).

    Emits ``mean_spectral_radius`` (lower bound) and ``mean_operator_norm``
    (upper bound) rows; the instance_seed column carries the master seed.
    """
    dims, algorithms = _checked(d, dims, algorithms, seed, n_instances=n_instances, jobs=jobs)
    grid = _checked_grid(lambda_grid)
    # a chunk keeps one stacked T, (n - 1) d square, in a block
    chunks = _chunks(n_instances, jobs, ((len(dims) - 1) * d) ** 2)
    results = _run_parallel(
        _exp1_worker, [(seed, c, d, dims, grid, algorithms) for c in chunks], jobs)
    # (lambda, instance) rows, so each mean sums as the 1-D mean of its lambda
    bounds = [[np.concatenate([out[side, a] for out in results], axis=1).mean(axis=1)
               for side in (0, 1)] for a in range(len(algorithms))]
    return _table("exp1", seed, np.array(algorithms)[:, None, None], grid,
                  np.array(["mean_spectral_radius", "mean_operator_norm"])[:, None], bounds)


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
    points = np.repeat(_start_points(seed, n_points, d), len(grid), axis=1)
    out = {}
    for algorithm, [problem] in _instances(seed, range(set_index, set_index + 1), d, dims,
                                           algorithms).items():
        starts = np.tile(points, (problem.n - 1, 1))
        pairs = np.column_stack(batch_iteration_counts(problem, starts, lams, tol, max_iters))
        for i, lam in enumerate(grid):
            out[(algorithm, lam)] = pairs[i::len(grid)]
    return out


def exp2_counts(n_sets: int = 100, n_points: int = 100, lambda_grid=None,
                tol: float = 1e-6, max_iters: int = 10_000, d: int = 6,
                dims=(5, 5, 5), seed: int = 0, algorithms=_ALGORITHMS, jobs: int = 1):
    """Per-run (governing, shadow) iteration counts keyed by (algorithm, lambda):
    ``(runs, 2)`` integer arrays, the items of one ``(keys, runs, 2)`` array,
    one (governing, shadow) row per run.

    A run is one (set, point, algorithm, lambda).  The runs of a subspace set
    and algorithm are the columns of one `batch_iteration_counts` call; runs
    that never reach ``tol`` contribute ``max_iters``.  Rows are ordered by
    (set index, point index).
    """
    dims, algorithms = _checked(d, dims, algorithms, seed, n_sets=n_sets, n_points=n_points,
                                jobs=jobs)
    _check_stop(tol, max_iters)
    grid = _checked_grid(lambda_grid)
    results = _run_parallel(_exp2_worker, [(seed, i, d, dims, grid, algorithms, n_points,
                                            tol, max_iters) for i in range(n_sets)], jobs)
    keys = [(algorithm, lam) for algorithm in algorithms for lam in grid]
    counts = np.empty((len(keys), n_sets * n_points, 2), dtype=np.int64)
    for item, key in zip(counts, keys):  # popping frees each set's arrays once copied
        np.concatenate([out.pop(key) for out in results], out=item)
    return dict(zip(keys, counts))


def exp2(n_sets: int = 100, n_points: int = 100, lambda_grid=None,
         tol: float = 1e-6, max_iters: int = 10_000, d: int = 6,
         dims=(5, 5, 5), seed: int = 0, algorithms=_ALGORITHMS, jobs: int = 1):
    """Median iterations to reach ``tol``, per (algorithm, lambda).

    Emits ``median_governing_iterations`` (distance to the fixed-point
    projection of the start) and ``median_shadow_iterations`` (distance of
    the stacked forward blocks to their limit): the lower medians over all
    (set, point) runs of the counts from `exp2_counts`, from one sort.
    """
    counts = exp2_counts(n_sets, n_points, lambda_grid, tol, max_iters, d,
                         dims, seed, algorithms, jobs)
    algorithm, lam = zip(*counts)
    ordered = counts[algorithm[0], lam[0]].base  # every key's runs: one array, sorted in place
    ordered.sort(axis=1)
    return _table("exp2", seed, np.array(algorithm)[:, None], np.array(lam)[:, None],
                  ["median_governing_iterations", "median_shadow_iterations"],
                  ordered[:, (ordered.shape[1] - 1) // 2])


# ---------------------------------------------------------------------------
# Experiment 3: shadow convergence traces
# ---------------------------------------------------------------------------

def _exp3_worker(args):
    """Shadow distances after steps 1..n_iters of all start points of a run
    of consecutive sets, one ``(points, n_iters)`` row block per set and
    algorithm, stacked in set order.

    Every problem of the chunk, each algorithm of each set, steps with the
    others, its start points as columns, through one stacked `orbit`: the
    problems all have ``len(dims)`` subspaces of R^d, and Ryu's step
    matrix has the shape of MT's at n = 3.
    """
    seed, sets, d, dims, lam, algorithms, n_points, n_iters = args
    points = _start_points(seed, n_points, d)  # the same for every set
    instances = _instances(seed, sets, d, dims, algorithms)
    problems = [p for a in algorithms for p in instances[a]]
    starts = np.stack([np.tile(points, (p.n - 1, 1)) for p in problems])
    limit = np.stack([shadow_limit(p, z) for p, z in zip(problems, starts)])
    dists, steps = [], 0
    for block in orbit(problems, starts, lam):
        dists.append(np.linalg.norm(block[..., :limit.shape[-2], :] - limit, axis=-2))
        steps += len(block)
        if steps > n_iters:
            break
    # slice 0 is the start; then one (points, n_iters) trace per problem
    traces = np.concatenate(dists)[1:n_iters + 1].transpose(1, 2, 0)
    return {a: np.vstack(t) for a, t in zip(algorithms, np.split(traces, len(algorithms)))}


def exp3(n_sets: int = 100, n_points: int = 100, lam: float = 0.99,
         n_iters: int = 150, d: int = 6, dims=(5, 5, 5), seed: int = 0,
         algorithms=_ALGORITHMS, jobs: int = 1):
    """Median shadow distance to the limit at each iteration 1..n_iters.

    Each `_exp3_worker` call steps a contiguous chunk of sets together, so
    the work per Python-level step grows with the chunk while every
    distance keeps its bits.
    """
    dims, algorithms = _checked(d, dims, algorithms, seed, n_sets=n_sets, n_points=n_points,
                                n_iters=n_iters, jobs=jobs)
    if np.ndim(_relaxations(lam)):
        raise ValueError(f"lam must be a single value, got {lam!r}")
    # a chunk keeps one stacked step in a block; a problem's step has
    # (3n - 2) d rows: n shadow blocks, then the iterate and its
    # displacement, n - 1 blocks each
    chunks = _chunks(n_sets, jobs, len(algorithms) * n_points * (3 * len(dims) - 2) * d)
    results = _run_parallel(_exp3_worker, [(seed, sets, d, dims, lam, algorithms, n_points,
                                            n_iters) for sets in chunks], jobs)
    medians = [lower_median(np.vstack([out[a] for out in results])) for a in algorithms]
    return _table("exp3", seed, np.array(algorithms)[:, None], lam, "median_shadow_distance",
                  medians, np.arange(1, n_iters + 1))


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
        d = _ambient_dim(data)
        subs = [subspace_from_dict(obj) for obj in data["subspaces"]]
        if any(s.ambient_dim != d for s in subs):
            raise ValueError("subspace ambient dimensions disagree with d")
        anchors = data.get("anchors")
        if anchors is not None:
            anchors = [_numbers(a, "anchors") for a in anchors]
        _relaxations(data["lambda"])  # float() would take a string
        lam = float(data["lambda"])
        problem = _build_problem(data["algorithm"], subs, anchors)
        blocks = [_numbers(b, "start") for b in data["start"]]
        if len(blocks) != problem.n - 1 or any(b.shape != (d,) for b in blocks):
            raise ValueError(f"start must be {problem.n - 1} blocks of length {d}")
        if not all(np.isfinite(b).all() for b in blocks):
            raise ValueError("start must be finite")
        start = np.concatenate(blocks)
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
    metric = ["iterations", "converged", "rate_lower_bound", "rate_upper_bound",
              *(f"solution_{i}" for i in range(problem.d))]
    value = [trace.iterations, trace.converged, bounds.lower, bounds.upper,
             *trace.final_shadow[:problem.d]]
    iteration = [-1] * len(metric)
    if include_trace:
        gov, sh = trace.governing_distances.tolist(), trace.shadow_distances.tolist()
        metric += ["governing_distance"] * len(gov) + ["shadow_distance"] * len(sh)
        iteration += [*range(len(gov)), *range(len(sh))]
        value += gov + sh
    return _table("single", 0, problem.name, lam, metric, value, iteration)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _render(table: Table, text, real: str, blank: str, head: str, row: str, glue: str) -> str:
    """The rows of the table, checked and in order, joined by ``glue``.

    A value that is not finite raises a NumericalFailure, and a lambda outside
    (0, 1) a ValueError.  One `np.lexsort` orders the rows by algorithm,
    lambda, iteration (none first) and metric.  A run of rows that share
    algorithm and lambda formats ``head % (experiment, algorithm, lambda, seed)``
    once, and one ``%`` per row puts that text before ``row % (metric,
    iteration, value)``.  `text` renders each distinct text field, ``real % lam``
    each distinct lambda, and ``blank`` a missing iteration."""
    if not len(table.value):
        return ""
    order = np.lexsort((table.metric, table.iteration, table.lam, table.algorithm))
    algorithm, lam, metric, iteration, value = (c[order] for c in table[2:])
    if not np.isfinite(value).all():
        raise NumericalFailure(f"metric {metric[~np.isfinite(value)][0]} is not finite")
    outside = lam[~((0.0 < lam) & (lam < 1.0))]
    if len(outside):
        raise ValueError(f"lambda must lie in (0, 1), got {outside[0]}")
    new = np.concatenate([[True], (algorithm[1:] != algorithm[:-1]) | (lam[1:] != lam[:-1])])
    algorithms, lams, names = algorithm[new].tolist(), lam[new].tolist(), metric.tolist()
    texts = {x: text(x) for x in {table.experiment, *algorithms, *names}}
    reals = {x: real % x for x in set(lams)}
    heads = np.array([head % (texts[table.experiment], texts[a], reals[x], table.seed)
                      for a, x in zip(algorithms, lams)], dtype=object)
    iterations = np.where(iteration < 0, blank, iteration.astype(object))
    return glue.join(map(("%s" + row).__mod__, zip(heads[np.cumsum(new) - 1].tolist(),
                                                   map(texts.__getitem__, names),
                                                   iterations.tolist(), value.tolist())))


def records_to_csv(table: Table) -> str:
    """The rows of the table as `csv.writer` writes them, floats to 17
    significant digits.  No field is quoted, so the text must hold six commas
    and one LF per row and no double quote or CR, or a ValueError is raised."""
    body = _render(table, str, "%.17g", "", "%s,%s,%s,%s,", "%s,%s,%.17g\n", "")
    rows = len(table.value)
    if body.count(",") != 6 * rows or body.count("\n") != rows or '"' in body or "\r" in body:
        raise ValueError("a text field holds a comma, a double quote, CR or LF")
    return ",".join(CSV_HEADER) + "\n" + body


def records_to_json(table: Table) -> str:
    """`json.dumps(rows, indent=2)` of the rows of the table as objects
    keyed by `CSV_HEADER`."""
    keys = [f'    "{key}": %s' for key in CSV_HEADER]
    body = _render(table, json.dumps, "%r", "null", "  {\n" + "".join(k + ",\n" for k in keys[:4]),
                   ",\n".join(keys[4:]) + "\n  }", ",\n")
    return f"[\n{body}\n]\n" if body else "[]\n"


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------

def _checked(d: int, dims, algorithms, seed, **counts):
    """``(dims, algorithms)`` as tuples, after each check an experiment makes before any draw:
    an integer seed of at least 0 and integer counts of at least 1 (`_count`'s rules), an
    integer d, 3 or more feasible integer dims (exactly 3 for ryu), distinct `_ALGORITHMS`."""
    if not _integer(seed) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    for name, value in counts.items():
        if not _integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    dims = tuple(dims)
    if not all(map(_integer, (d, *dims))):
        raise ValueError(f"d and dims must be integers, got d={d!r}, dims={dims!r}")
    dims = tuple(int(k) for k in dims)
    if len(dims) < 3:
        raise ValueError(f"need at least 3 subspaces, got {len(dims)}")
    if not feasible_dims(d, dims):
        bound = 1 + -(-2 * d // 3)
        raise ValueError(
            f"infeasible subspace dimensions {dims} for d={d}: every dimension "
            f"must be at least 1 + ceil(2d/3) = {bound}, to guarantee a "
            f"nontrivial intersection, and at most d = {d}"
        )
    names = () if isinstance(algorithms, str) else tuple(algorithms)
    if not names or any(a not in _ALGORITHMS for a in names) or len(set(names)) < len(names):
        raise ValueError(f"need distinct algorithms from {_ALGORITHMS}, got {algorithms!r}")
    for name in names:
        _check_count(name, len(dims))
    return dims, names


def _checked_grid(grid):
    grid = list(default_lambda_grid() if grid is None else grid)
    if not grid:
        raise ValueError("lambda grid must be nonempty")
    if len(set(grid)) < len(grid):
        raise ValueError("lambda grid values repeat")
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
    values = []  # value i is round(start + i * step, 12) while that is at most end + 1e-12
    while (value := round(start + len(values) * step, 12)) <= end + 1e-12:
        if len(values) == _MAX_GRID:
            raise argparse.ArgumentTypeError(f"more than {_MAX_GRID} values")
        values.append(value)
    if len(set(values)) < len(values):
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
    choices = (*_ALGORITHMS, "both")
    if text not in choices:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})")
    return _ALGORITHMS if text == "both" else (text,)


@cache  # parsing leaves the parser unchanged, so one per process serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="splitproj", description=(
        "Projection onto subspace intersections by resolvent splitting: experiment harness "
        "and single-problem runner."))
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
    # the subcommand's function, looked up at each call so that wrappers
    # installed on this module's globals are what runs
    function = {"exp1": exp1, "exp2": exp2, "exp3": exp3, "run": run_single}[kwargs.pop("command")]
    try:
        table = function(**kwargs)
        text = records_to_json(table) if as_json else records_to_csv(table)
    except (InconsistentAffineError, NumericalFailure, GenerationError, ProblemFormatError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (4 if isinstance(exc, InconsistentAffineError)
                else 3 if isinstance(exc, (NumericalFailure, GenerationError)) else 2)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
