import json
import os
import pathlib

import numpy as np
import pytest

from helpers import nullspace_intersection, random_instance
from splitproj import forward_blocks, shadow_limit, subspace_from_dict, to_dict
from splitproj.cli import (
    CSV_HEADER,
    ExperimentRecord,
    _build_problem,
    _exp2_worker,
    _exp3_worker,
    _instance_subspaces,
    _start_points,
    default_lambda_grid,
    exp1,
    exp2,
    exp2_counts,
    exp3,
    load_problem,
    lower_median,
    main,
    records_to_csv,
    records_to_json,
    run_single,
)
import splitproj.cli as cli
import splitproj.splitting as splitting
from splitproj.splitting import displacement

SMALL_GRID = [0.3, 0.5, 0.7, 0.9]
GOLDEN = pathlib.Path(__file__).parent / "golden"


def write_problem(path, **overrides):
    x_basis = {"d": 2, "basis": [[1.0, 0.0]]}
    diag_basis = {"d": 2, "basis": [[1.0, 1.0]]}
    data = {
        "algorithm": "ryu",
        "d": 2,
        "subspaces": [x_basis, diag_basis, x_basis],
        "lambda": 0.5,
        "start": [[3.0, 4.0], [1.0, -2.0]],
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return str(path)


def test_default_grid_matches_protocol():
    grid = default_lambda_grid()
    assert len(grid) == 99
    assert grid[0] == pytest.approx(0.01) and grid[-1] == pytest.approx(0.99)


def test_lower_median():
    assert lower_median([3, 1, 2]) == 2
    assert lower_median([4, 1, 2, 3]) == 2


def test_record_validation():
    with pytest.raises(ValueError):
        ExperimentRecord("exp1", "ryu", 1.5, 0, "x", 0.0)
    with pytest.raises(ValueError):
        ExperimentRecord("exp1", "ryu", 0.5, 0, "x", float("nan"))


@pytest.mark.parametrize("kind", [float, np.float64])
@pytest.mark.parametrize("lam, value", [
    (0.5, "nan"), (0.5, "inf"), (0.5, "-inf"),
    (0.0, 1.0), (1.0, 1.0), (-0.5, 1.0), (1.5, 1.0), ("nan", 1.0), ("inf", 1.0),
])
def test_record_rejects_non_finite_values_and_lambda_outside_the_open_interval(kind, lam, value):
    with pytest.raises(ValueError):
        ExperimentRecord("exp1", "ryu", kind(lam), 0, "x", kind(value))


def test_csv_schema_and_float_precision():
    records = [ExperimentRecord("exp1", "ryu", 0.1 + 0.2, 7, "metric", 1.0 / 3.0)]
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1] == "exp1,ryu,0.30000000000000004,7,metric,,0.33333333333333331"


def test_exp1_bounds_ordered_and_deterministic():
    kwargs = dict(n_instances=4, lambda_grid=[0.2, 0.5, 0.8], seed=3)
    first = records_to_csv(exp1(**kwargs))
    second = records_to_csv(exp1(**kwargs))
    parallel = records_to_csv(exp1(**kwargs, jobs=2))
    assert first == second == parallel
    by_key = {}
    for r in exp1(**kwargs):
        by_key.setdefault((r.algorithm, r.lam), {})[r.metric_name] = r.metric_value
    for metrics in by_key.values():
        assert metrics["mean_spectral_radius"] <= metrics["mean_operator_norm"]


def test_exp2_run_bookkeeping():
    counts = exp2_counts(n_sets=3, n_points=4, lambda_grid=[0.5], seed=1)
    for alg in ("ryu", "mt"):
        assert len(counts[(alg, 0.5)]) == 3 * 4
        for gov, sh in counts[(alg, 0.5)]:
            assert 0 <= gov <= 10_000 and 0 <= sh <= 10_000


def test_exp2_serial_equals_parallel():
    kwargs = dict(n_sets=4, n_points=3, lambda_grid=[0.5, 0.9], seed=2)
    assert records_to_csv(exp2(**kwargs)) == records_to_csv(exp2(**kwargs, jobs=2))


def test_exp3_trace_shape_and_qualitative_behavior():
    records = exp3(n_sets=5, n_points=4, lam=0.3, n_iters=150, seed=5)
    by = {}
    for r in records:
        assert r.metric_name == "median_shadow_distance"
        by.setdefault(r.algorithm, {})[r.iteration] = r.metric_value
    for alg in ("ryu", "mt"):
        vals = by[alg]
        assert set(vals) == set(range(1, 151))
        assert vals[150] < vals[1]
        logs = np.log([vals[i] for i in range(1, 151)])
        k = np.arange(1, 151, dtype=float)
        slope, intercept = np.polyfit(k, logs, 1)
        pred = slope * k + intercept
        r2 = 1.0 - np.sum((logs - pred) ** 2) / np.sum((logs - logs.mean()) ** 2)
        assert slope < 0 and r2 > 0.9
    assert by["ryu"][150] <= by["mt"][150]


def test_exp3_columns_match_one_start_at_a_time():
    # the loop over one start vector at a time that the column pass
    # replaced; only the rounding of the matrix products differs
    seed, d, dims, lam, n_points, n_iters = 5, 6, (5, 5, 5), 0.99, 4, 120
    out = _exp3_worker((seed, range(1), d, dims, lam, ("ryu", "mt"), n_points, n_iters))
    subs = _instance_subspaces(seed, 0, d, dims)
    for algorithm in ("ryu", "mt"):
        problem = _build_problem(algorithm, subs)
        want = np.empty((n_points, n_iters))
        for j in range(n_points):
            z = np.tile(_start_points(seed, n_points, d)[:, j], problem.n - 1)
            limit = shadow_limit(problem, z)
            blocks = forward_blocks(problem, z)
            for k in range(n_iters):
                z = z + lam * displacement(problem, blocks)
                blocks = forward_blocks(problem, z)
                want[j, k] = np.linalg.norm(np.concatenate(blocks) - limit)
        np.testing.assert_allclose(out[algorithm], want, rtol=1e-9, atol=1e-13)


def test_exp3_gives_the_same_bytes_for_every_chunking(monkeypatch):
    # 5 sets run as one chunk, as 3 + 2 and as 2 + 2 + 1
    chunks = []

    def recorded(worker, arglist, jobs):
        chunks.append([args[1] for args in arglist])
        return run_parallel(worker, arglist, jobs)

    run_parallel = cli._run_parallel
    monkeypatch.setattr(cli, "_run_parallel", recorded)
    kwargs = dict(n_sets=5, n_points=4, lam=0.9, n_iters=40, seed=3)
    want = records_to_csv(exp3(**kwargs))
    for jobs in (2, 3):
        assert records_to_csv(exp3(**kwargs, jobs=jobs)) == want
    assert chunks == [[range(5)], [range(3), range(3, 5)], [range(2), range(2, 4), range(4, 5)]]


@pytest.mark.parametrize("n_points, size", [(50, 3), (100, 1), (200, 1)])
def test_exp3_chunks_keep_one_stacked_step_within_an_orbit_block(n_points, size, monkeypatch):
    # a set of two problems steps 2 * 42 * n_points entries; one of 200
    # points exceeds the 2^14 of a block alone and still gets a chunk
    chunks = []

    def recorded(worker, arglist, jobs):  # one zero distance per chunk, no work
        chunks.extend(args[1] for args in arglist)
        return [dict.fromkeys(("ryu", "mt"), np.zeros((1, 1))) for _ in arglist]

    monkeypatch.setattr(cli, "_run_parallel", recorded)
    exp3(n_sets=7, n_points=n_points, n_iters=1)
    assert chunks == [range(i, min(i + size, 7)) for i in range(0, 7, size)]


def test_infeasible_dims_rejected():
    with pytest.raises(ValueError, match="ceil"):
        exp1(n_instances=1, d=6, dims=(4, 5, 5), lambda_grid=[0.5])


def test_run_single_trivial_intersection(tmp_path):
    path = write_problem(tmp_path / "problem.json")
    records = run_single(path)
    metrics = {r.metric_name: r.metric_value for r in records}
    assert metrics["converged"] == 1.0
    # x-axis cap diagonal cap x-axis is the origin
    assert abs(metrics["solution_0"]) <= 1e-6
    assert abs(metrics["solution_1"]) <= 1e-6
    assert metrics["rate_lower_bound"] <= metrics["rate_upper_bound"]


def test_run_single_start_at_fixed_point(tmp_path):
    eye_basis = {"d": 2, "basis": [[1.0, 0.0], [0.0, 1.0]]}
    path = write_problem(
        tmp_path / "fp.json",
        subspaces=[eye_basis, eye_basis, eye_basis],
        start=[[3.0, -1.0], [0.0, 0.0]],
    )
    records = run_single(path)
    metrics = {r.metric_name: r.metric_value for r in records}
    assert metrics["iterations"] == 0.0
    assert metrics["converged"] == 1.0
    assert metrics["solution_0"] == pytest.approx(3.0)
    assert metrics["solution_1"] == pytest.approx(-1.0)


def test_run_single_affine_translation(tmp_path):
    rng = np.random.default_rng(8)
    subs = random_instance(rng)
    v = rng.standard_normal(6)
    x0 = rng.standard_normal(6)
    data = {
        "algorithm": "ryu",
        "d": 6,
        "subspaces": [to_dict(s) for s in subs],
        "anchors": [v.tolist()] * 3,
        "lambda": 0.5,
        "start": [x0.tolist(), x0.tolist()],
    }
    path = tmp_path / "affine.json"
    path.write_text(json.dumps(data))
    records = run_single(str(path), tol=1e-8)
    metrics = {r.metric_name: r.metric_value for r in records}
    solution = np.array([metrics[f"solution_{i}"] for i in range(6)])
    pz = nullspace_intersection([s.projector for s in subs])
    want = v + pz @ (x0 - v)
    assert metrics["converged"] == 1.0
    assert np.linalg.norm(solution - want) <= 1e-6


def test_run_single_mt_problem(tmp_path):
    rng = np.random.default_rng(15)
    subs = random_instance(rng, dims=(5, 5, 5, 5))
    x0 = rng.standard_normal(6)
    data = {
        "algorithm": "mt",
        "d": 6,
        "subspaces": [to_dict(s) for s in subs],
        "lambda": 0.5,
        "start": [x0.tolist()] * 3,
    }
    path = tmp_path / "mt.json"
    path.write_text(json.dumps(data))
    records = run_single(str(path), tol=1e-8, max_iters=50_000)
    metrics = {r.metric_name: r.metric_value for r in records}
    solution = np.array([metrics[f"solution_{i}"] for i in range(6)])
    pz = nullspace_intersection([s.projector for s in subs])
    assert metrics["converged"] == 1.0
    assert np.linalg.norm(solution - pz @ x0) <= 1e-6


def test_run_single_trace_rows(tmp_path):
    path = write_problem(tmp_path / "problem.json")
    records = run_single(path, include_trace=True)
    names = {r.metric_name for r in records}
    assert "governing_distance" in names and "shadow_distance" in names
    gov = [r for r in records if r.metric_name == "governing_distance"]
    assert gov[0].iteration == 0
    assert all(r.iteration is not None for r in gov)


def test_main_writes_csv_and_json(tmp_path, capsys):
    path = write_problem(tmp_path / "problem.json")
    out = tmp_path / "rows.csv"
    assert main(["run", "--problem", path, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert main(["run", "--problem", path, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {row["metric_name"] for row in rows} >= {"iterations", "converged"}


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--problem", str(bad)]) == 2
    assert "bad.json" in capsys.readouterr().err

    x_basis = {"d": 2, "basis": [[1.0, 0.0]]}
    inconsistent = write_problem(
        tmp_path / "inconsistent.json",
        subspaces=[x_basis, x_basis, x_basis],
        anchors=[[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
    )
    assert main(["run", "--problem", inconsistent]) == 4

    # anchors slid 1e6 along the lines pass the common-point check, and the
    # fixed-point rule still finds the 1e-3 gap
    slid = write_problem(
        tmp_path / "slid.json",
        subspaces=[x_basis, x_basis, x_basis],
        anchors=[[1e6, 0.0], [1e6, 1e-3], [1e6, 0.0]],
    )
    assert main(["run", "--problem", slid]) == 4
    assert "affine intersection is empty" in capsys.readouterr().err

    assert main(["exp1", "--n", "1", "--sub-dims", "4,5,5", "--lambda", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "ceil" in err

    with pytest.raises(SystemExit) as exc:
        main(["exp1", "--no-such-flag"])
    assert exc.value.code == 2


def test_main_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    from splitproj.linalg import NumericalFailure
    import splitproj.cli as cli_mod

    path = write_problem(tmp_path / "p.json")

    def boom(*args, **kwargs):
        raise NumericalFailure("SVD did not converge for 2x2 matrix")

    monkeypatch.setattr(cli_mod, "run_single", boom)
    assert main(["run", "--problem", path]) == 3
    assert "converge" in capsys.readouterr().err


def test_main_exp_smoke(tmp_path):
    out = tmp_path / "e1.csv"
    code = main(["exp1", "--n", "2", "--lambda-grid", "0.2:0.3:0.8",
                 "--seed", "9", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    # 2 algorithms x 3 lambdas x 2 metrics + header
    assert len(lines) == 1 + 12


def test_exp1_means_equal_the_1d_mean_of_each_lambda():
    # from 8 instances up, numpy's pairwise sum over a strided axis groups
    # the terms differently from the 1-D mean of the same values
    n, seed, grid = 9, 3, default_lambda_grid()
    got = {(r.algorithm, r.lam, r.metric_name): r.metric_value
           for r in exp1(n_instances=n, seed=seed)}
    results = [cli._exp1_worker((seed, i, 6, (5, 5, 5), grid, ("ryu", "mt"))) for i in range(n)]
    for algorithm in ("ryu", "mt"):
        for k, metric in enumerate(("mean_spectral_radius", "mean_operator_norm")):
            for i, lam in enumerate(grid):
                want = np.mean(np.array([res[algorithm][k][i] for res in results]))
                assert got[(algorithm, lam, metric)] == want, (algorithm, lam, metric)


def test_json_records_roundtrip():
    records = exp1(n_instances=2, lambda_grid=[0.5], seed=4)
    rows = json.loads(records_to_json(records))
    assert len(rows) == len(records)
    assert rows[0]["experiment"] == "exp1"


def test_load_problem_validates_shapes(tmp_path):
    path = write_problem(tmp_path / "p.json", start=[[1.0, 2.0]])
    with pytest.raises(Exception, match="blocks"):
        load_problem(path)


@pytest.mark.parametrize("argv, flag", [
    (["exp1", "--n", "0"], "--n"),
    (["exp2", "--n-points", "0"], "--n-points"),
    (["exp3", "--n-points", "0"], "--n-points"),
    (["exp3", "--iters", "0"], "--iters"),
    (["exp2", "--jobs", "-3"], "--jobs"),
])
def test_counts_below_one_are_usage_errors(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least 1" in err


@pytest.mark.parametrize("function, kwargs, name", [
    (exp1, dict(n_instances=0), "n_instances"),
    (exp1, dict(jobs=0), "jobs"),
    (exp2, dict(n_sets=0), "n_sets"),
    (exp2, dict(n_points=0), "n_points"),
    (exp2, dict(jobs=0), "jobs"),
    (exp2_counts, dict(n_points=0), "n_points"),
    (exp3, dict(n_sets=0), "n_sets"),
    (exp3, dict(n_points=0), "n_points"),
    (exp3, dict(n_iters=0), "n_iters"),
    (exp3, dict(jobs=0), "jobs"),
])
def test_api_counts_below_one_raise_a_value_error_naming_the_argument(function, kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be at least 1, got 0$"):
        function(**kwargs)


@pytest.mark.parametrize("grid", ["nan:0.1:0.5", "0.1:0.1:inf", "0.2:nan:0.5",
                                  "-inf:0.1:0.5", "0.1:inf:0.5"])
def test_non_finite_lambda_grid_is_a_usage_error(grid, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exp1", "--n", "1", f"--lambda-grid={grid}"])
    assert exc.value.code == 2
    assert "argument --lambda-grid: start, step and end must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["exp1", "exp2"])
def test_lambda_grid_outside_the_relaxation_range_is_a_usage_error(command, capsys):
    assert main([command, "--n", "1", "--lambda-grid", "0:0.5:1"]) == 2
    assert "relaxation must lie in (0, 1), got 0.0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--algorithm", "mt", "--lambda-grid", "0.5:1e-13:0.5000000000003"],
     "values repeat after rounding to 12 decimal places"),
    (["--lambda-grid", "0.1:1e-9:0.9"], "more than 10000 values"),
], ids=["repeats", "too-many"])
def test_repeating_or_oversized_lambda_grid_is_a_usage_error(argv, message, capsys):
    # both used to be accepted: the first printed the lambda = 0.5 rows 5
    # times, the second built 8e8 values before any work
    with pytest.raises(SystemExit) as exc:
        main(["exp1", "--n", "1", *argv])
    assert exc.value.code == 2
    assert f"argument --lambda-grid: {message}" in capsys.readouterr().err


def test_lambda_grid_of_the_largest_size_is_accepted():
    grid = cli._parse_grid("0.0001:0.0001:1")
    assert len(grid) == cli._MAX_GRID == 10_000 and grid[-1] == 1.0


@pytest.mark.parametrize("argv, function, kwargs", [
    (["exp1", "--n", "2"], exp1, dict(n_instances=2)),
    (["exp2", "--n", "1", "--n-points", "2", "--lambda", "0.9"], exp2,
     dict(n_sets=1, n_points=2, lambda_grid=[0.9])),
    (["exp3", "--n", "2", "--n-points", "2", "--iters", "5"], exp3,
     dict(n_sets=2, n_points=2, n_iters=5)),
    (["run", "--problem", str(GOLDEN / "run_affine_ryu.json")], run_single,
     dict(path=str(GOLDEN / "run_affine_ryu.json"))),
], ids=["exp1", "exp2", "exp3", "run"])
def test_an_omitted_flag_takes_the_default_of_the_function(argv, function, kwargs, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == records_to_csv(function(**kwargs))


def test_main_calls_the_functions_bound_on_the_module(monkeypatch, capsys):
    # the benchmark's tracer wraps these module attributes; a dispatch table
    # taken at import would run the originals and leave its cli spans empty
    calls = _count_calls(monkeypatch, cli, "exp3", "run_single")
    assert main(["exp3", "--n", "1", "--n-points", "2", "--iters", "3"]) == 0
    assert main(["run", "--problem", str(GOLDEN / "run_affine_mt.json")]) == 0
    assert calls == {"exp3": 1, "run_single": 1}


@pytest.mark.parametrize("argv, message", [
    (["exp3", "--n", "1", "--sub-dims", "5,5,5,5"],
     "the ryu operator needs exactly 3 subspaces, got 4; use --algorithm mt"),
    (["exp2", "--n", "1", "--algorithm", "dr"],
     "argument --algorithm: invalid choice: 'dr' (choose from 'ryu', 'mt', 'both')"),
], ids=["ryu-needs-three", "unknown-algorithm"])
def test_algorithm_choice_errors(argv, message, capsys):
    code, _, err = _outcome(argv, capsys)
    assert code == 2 and message in err


def _outcome(argv, capsys):
    """Exit code, stdout and stderr of one `main` call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_call_of_a_process(capsys):
    calls = [
        ["exp1", "--n", "0"],
        ["exp1", "--n", "1", "--lambda", "0.5", "--algorithm", "mt", "--format", "json"],
        ["exp1", "--n", "2", "--lambda-grid", "0.2:0.3:0.8"],
        ["exp2", "--bogus"],
        ["exp3", "--n", "1", "--n-points", "2", "--iters", "3", "--seed", "4"],
        ["run", "--problem", str(GOLDEN / "run_affine_mt.json")],
        ["exp2", "--n", "1", "--n-points", "2", "--lambda", "0.9", "--algorithm", "ryu"],
    ]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(_outcome(argv, capsys))
    cli._build_parser.cache_clear()
    assert [_outcome(argv, capsys) for argv in calls] == fresh
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize("name, argv", [
    ("seed5", []),
    ("seed5_mt4", ["--algorithm", "mt", "--sub-dims", "5,5,5,5"]),
], ids=["seed5", "seed5_mt4"])
def test_exp3_csv_matches_golden_file(name, argv, capsys):
    # written by the loop over the step matrix that `orbit` replaced
    assert main(["exp3", "--n", "5", "--n-points", "4", "--seed", "5", *argv]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"exp3_{name}.csv").read_text()


def test_exp2_csv_matches_golden_file():
    # written by the step-by-step loop that the column kernel replaced
    golden = GOLDEN / "exp2_seed7.csv"
    records = exp2(n_sets=2, n_points=3, lambda_grid=[0.05, 0.5, 0.95], seed=7)
    assert records_to_csv(records) == golden.read_text()


# The *_default.csv goldens are the paper-size runs (every flag at its
# default, seed 0), written by the code that stepped the iterate in exp2.

def test_exp1_at_full_defaults_matches_golden_file(capsys):
    assert main(["exp1"]) == 0
    assert_csv_close(capsys.readouterr().out, (GOLDEN / "exp1_default.csv").read_text())


def test_exp3_at_full_defaults_matches_golden_file(capsys):
    assert main(["exp3"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "exp3_default.csv").read_text()


@pytest.mark.skipif(not os.environ.get("SPLITPROJ_FULL_EXP2"),
                    reason="full-default exp2 takes minutes; set SPLITPROJ_FULL_EXP2=1 to run it")
def test_exp2_at_full_defaults_matches_golden_file(capsys):
    assert main(["exp2"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "exp2_default.csv").read_text()


def _d60_reproducer():
    """d=60 Ryu problem of the benchmark's affine_solve generator (seed
    derivation as there): LAPACK's gesdd does not converge on the stacked
    180x60 complements of its subspaces.  Returns (point, bases, anchors, x0)."""
    seed = int(np.random.SeedSequence([2, 4, 106]).generate_state(1)[0] >> 1)
    rng = np.random.default_rng(seed)
    d, k = 60, 45
    point = rng.standard_normal(d)
    bases = [rng.standard_normal((d, k)) for _ in range(3)]
    anchors = [point + b @ rng.standard_normal(k) for b in bases]
    return point, bases, anchors, rng.standard_normal(d)


def test_run_d60_problem_where_lapack_svd_does_not_converge(tmp_path):
    # the gesdd failure used to end in exit 3
    point, bases, anchors, x0 = _d60_reproducer()
    d = point.shape[0]
    data = {
        "algorithm": "ryu",
        "d": d,
        "subspaces": [{"d": d, "basis": b.T.tolist()} for b in bases],
        "anchors": [a.tolist() for a in anchors],
        "lambda": 0.5,
        "start": [x0.tolist()] * 2,
    }
    path = tmp_path / "d60.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "rows.csv"
    assert main(["run", "--problem", str(path), "--out", str(out)]) == 0
    rows = {line.split(",")[4]: float(line.split(",")[6])
            for line in out.read_text().strip().split("\n")[1:]}
    assert rows["converged"] == 1.0
    solution = np.array([rows[f"solution_{i}"] for i in range(d)])
    # oracle projectors from QR bases, not from the program's subspaces
    projectors = [q @ q.T for q in (np.linalg.qr(b)[0] for b in bases)]
    want = point + nullspace_intersection(projectors) @ (x0 - point)
    assert np.linalg.norm(solution - want) <= 1e-5 * (1.0 + np.linalg.norm(want))


def test_nullspace_oracle_on_d60_reproducer_projectors():
    # the oracle's own SVD of the stacked complements hits the same gesdd
    # failure on the projectors that `run` loads and retries on the transpose
    point, bases, _, _ = _d60_reproducer()
    subs = [subspace_from_dict({"d": point.shape[0], "basis": b.T.tolist()}) for b in bases]
    got = nullspace_intersection([s.projector for s in subs])
    want = nullspace_intersection([q @ q.T for q in (np.linalg.qr(b)[0] for b in bases)])
    assert np.linalg.norm(got - want) <= 1e-8
    assert np.linalg.matrix_rank(got, tol=0.5) == 15  # 3 * 45 - 2 * 60
    for s in subs:
        assert np.linalg.norm(s.projector @ got - got) <= 1e-8


@pytest.mark.parametrize("field, overrides", [
    ("anchors", {"anchors": [[0.0, 0.0], [float("nan"), 0.0], [0.0, 0.0]]}),
    ("start", {"start": [[3.0, float("nan")], [1.0, -2.0]]}),
])
def test_non_finite_input_is_a_format_error(tmp_path, capsys, field, overrides):
    path = write_problem(tmp_path / "nan.json", **overrides)
    assert main(["run", "--problem", path]) == 2
    err = capsys.readouterr().err
    assert f"{field} must be finite" in err and "nan.json" in err


@pytest.mark.parametrize("where", ["top", "subspace"])
@pytest.mark.parametrize("d", [2.0, 2.5, True, 0])
def test_non_integer_d_is_a_format_error(tmp_path, capsys, where, d):
    x_basis = {"d": 2, "basis": [[1.0, 0.0]]}
    overrides = ({"d": d} if where == "top"
                 else {"subspaces": [x_basis, {"d": d, "basis": [[1.0, 1.0]]}, x_basis]})
    path = write_problem(tmp_path / "d.json", **overrides)
    assert main(["run", "--problem", path]) == 2
    assert f"d must be an integer >= 1, got {d!r}" in capsys.readouterr().err


def test_negative_seed_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exp1", "--n", "1", "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err


def test_unwritable_out_fails_before_any_work(tmp_path, monkeypatch, capsys):
    def no_work(args):
        raise AssertionError("dispatched despite an unwritable --out")

    monkeypatch.setattr(cli, "_dispatch", no_work)
    out = tmp_path / "missing" / "rows.csv"
    assert main(["exp1", "--n", "1", "--lambda", "0.5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write --out: ") and "Traceback" not in err
    assert not out.exists()


def test_failed_run_keeps_an_existing_out_file(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    out.write_text("earlier rows\n")
    argv = ["exp1", "--n", "1", "--sub-dims", "4,5,5", "--lambda", "0.5", "--out", str(out)]
    assert main(argv) == 2
    assert out.read_text() == "earlier rows\n"
    path = write_problem(tmp_path / "problem.json")
    assert main(["run", "--problem", path, "--out", str(out)]) == 0
    assert out.read_text().startswith(",".join(CSV_HEADER))


def test_failed_run_removes_the_out_file_it_created(tmp_path, capsys):
    out = tmp_path / "new.csv"
    assert main(["exp1", "--n", "2", "--sub-dims", "3,3,3", "--out", str(out)]) == 2
    assert "infeasible subspace dimensions" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, value", [
    (["exp2", "--n", "1", "--n-points", "2", "--lambda", "0.5", "--tol", "nan",
      "--max-iters", "50", "--algorithm", "ryu"], "nan"),
    (["run", "--problem", str(GOLDEN / "run_affine_ryu.json"), "--tol", "inf"], "inf"),
])
def test_non_finite_tol_is_a_usage_error(argv, value, capsys):
    assert main(argv) == 2
    assert f"tol must be positive and finite, got {value}" in capsys.readouterr().err


def assert_csv_close(got, want, close=None):
    """``got`` is the CSV text ``want``, except that the values of the rows
    whose metric is a key of ``close`` need only agree to within its
    ``(rel, abs)`` tolerance (all rows to 1e-12 relative when None)."""
    got_rows, want_rows = got.split("\n"), want.split("\n")
    assert len(got_rows) == len(want_rows) and got_rows[0] == want_rows[0]
    for g, w in zip(got_rows[1:], want_rows[1:]):
        key, value = w.rpartition(",")[::2]
        metric = key.split(",")[4] if value else None
        tol = (1e-12, 0.0) if close is None else close.get(metric)
        if value and tol:
            got_key, got_value = g.rpartition(",")[::2]
            assert got_key == key
            assert float(got_value) == pytest.approx(float(value), rel=tol[0], abs=tol[1]), key
        else:
            assert g == w


@pytest.mark.parametrize("algorithm", ["ryu", "mt"])
def test_run_trace_matches_golden_file(algorithm, capsys):
    # written by the code that rebuilt every derived form on each call, took
    # the rate bounds from the full error matrix and shifted P_FixT by a
    # pseudo-inverse of Id - L, so those rows differ in the last bits
    problem = GOLDEN / f"run_affine_{algorithm}.json"
    assert main(["run", "--problem", str(problem), "--trace"]) == 0
    assert_csv_close(capsys.readouterr().out,
                     (GOLDEN / f"run_affine_{algorithm}.csv").read_text(),
                     close={"rate_lower_bound": (1e-12, 0.0), "rate_upper_bound": (1e-12, 0.0),
                            "governing_distance": (0.0, 1e-13)})


@pytest.mark.parametrize("name, argv", [
    ("seed5", ["--seed", "5"]),
    ("seed9_mt4", ["--seed", "9", "--algorithm", "mt", "--sub-dims", "5,5,5,5"]),
], ids=["seed5", "seed9_mt4"])
def test_exp1_csv_matches_golden_file(name, argv, capsys):
    # written by the code that took both bounds of every lambda from the
    # full error matrix
    assert main(["exp1", "--n", "3", *argv]) == 0
    assert_csv_close(capsys.readouterr().out, (GOLDEN / f"exp1_{name}.csv").read_text())


def _count_calls(monkeypatch, module, *names):
    counts = dict.fromkeys(names, 0)

    def counted(name, original):
        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return counts


@pytest.mark.parametrize("algorithm", ["ryu", "mt"])
def test_run_single_builds_each_derived_form_once(algorithm, monkeypatch):
    counts = _count_calls(monkeypatch, splitting, "intersect_all", "fix_decomposition")
    run_single(str(GOLDEN / f"run_affine_{algorithm}.json"))
    assert counts == {"intersect_all": 1, "fix_decomposition": 1}


def test_exp2_worker_builds_one_intersection_per_instance(monkeypatch):
    counts = _count_calls(monkeypatch, splitting, "intersect_all", "fix_decomposition")
    _exp2_worker((3, 0, 6, (5, 5, 5), [0.3, 0.9], ("ryu", "mt"), 4, 1e-6, 10_000))
    assert counts == {"intersect_all": 1, "fix_decomposition": 2}


def test_failed_projector_check_is_a_numerical_failure(capsys):
    # iterated Anderson-Duffin loses idempotence on one of these instances
    argv = ["exp1", "--n", "4", "--seed", "1444635452", "--dim", "6", "--sub-dims", "5,5,5"]
    assert main(argv) == 3
    assert "projector not idempotent: ||P^2 - P||_F = " in capsys.readouterr().err


def test_failed_fixed_point_projector_check_is_a_numerical_failure(monkeypatch, capsys):
    # an E part that is the whole space makes Z + E fail its idempotence check
    from splitproj.subspaces import Subspace

    monkeypatch.setattr(splitting, "intersect_pair", lambda u, v: Subspace(np.eye(u.ambient_dim)))
    assert main(["exp1", "--n", "1", "--lambda", "0.5"]) == 3
    assert "projector not idempotent: ||P^2 - P||_F = " in capsys.readouterr().err
