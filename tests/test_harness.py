"""Experiment orchestration: trials, sweeps, CSV output, and the CLI.

Every numeric expectation here was measured once for the pinned master
seeds and then frozen; the runs are deterministic, so the assertions keep
generous margins only where a different BLAS could plausibly flip a
borderline trial.
"""

import ast
import csv
import importlib
import io
import math
import os
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import robustphase
from robustphase import (
    Algorithm,
    CorruptionSpec,
    InvalidInputError,
    IterateTrace,
    OutlierModel,
    SolverConfig,
    derive_seed,
)
from robustphase.harness import (
    EXPERIMENTS,
    ITERATION_HEADER,
    RESULT_HEADER,
    ExperimentConfig,
    ResultRow,
    TrialCell,
    _build_parser,
    cli_main,
    main,
    run_experiment,
    run_trial,
    write_iteration_csv,
    write_result_csv,
)

CLEAN = CorruptionSpec()
FIXED_MTWF = SolverConfig(Algorithm.MEDIAN_TWF, fixed_iterations=True)


def success_counts(rows, key=lambda r: r.algorithm):
    counts = defaultdict(int)
    for r in rows:
        counts[key(r)] += r.success
    return counts


def final_errors(trials):
    """Last-iterate rel_err per (experiment, algorithm, seed) curve."""
    return {
        (r.experiment, r.algorithm, r.seed): float(trace.errors[-1])
        for r, trace in trials
        if trace is not None
    }


# ---------------------------------------------------------------- run_trial


def test_run_trial_noise_free_mrwf_succeeds():
    row, trace = run_trial(
        TrialCell("single", 64, 384, CLEAN), SolverConfig(Algorithm.MEDIAN_RWF), 12345
    )
    assert row.success == 1
    assert row.final_rel_err <= 1e-8
    assert 0 < row.iterations <= 500
    assert row.experiment == "single"
    assert row.algorithm == "median-rwf"
    assert (row.n, row.m, row.seed) == (64, 384, 12345)
    assert trace is not None and trace.final_error == row.final_rel_err


def test_run_trial_mean_twf_fails_under_outliers():
    spec = CorruptionSpec(
        outlier_fraction=0.3,
        outlier_model=OutlierModel.UNIFORM,
        eta_max_rel=1.0,
    )
    row, _ = run_trial(TrialCell("single", 64, 512, spec), SolverConfig(Algorithm.MEAN_TWF), 12345)
    assert row.success == 0
    assert row.final_rel_err > 1e-4
    assert row.s == 0.3 and row.eta_max_rel == 1.0


def test_run_trial_same_inputs_identical_rows():
    cell = TrialCell("single", 32, 160, CLEAN)
    row1, trace1 = run_trial(cell, SolverConfig(Algorithm.MEDIAN_TWF), 77)
    row2, trace2 = run_trial(cell, SolverConfig(Algorithm.MEDIAN_TWF), 77)
    assert row1 == row2
    np.testing.assert_array_equal(trace1.errors, trace2.errors)


def test_run_trial_records_failures_as_rows():
    # n=0 makes problem generation raise; the sweep must get a row anyway
    row, trace = run_trial(TrialCell("single", 0, 10, CLEAN), FIXED_MTWF, 5)
    assert row.success == 0
    assert row.iterations == 0
    assert math.isnan(row.final_rel_err)
    assert trace is None


def test_run_trial_zero_scale_estimate_is_a_failed_row():
    # At m=3 the Poisson counts are often all zero: the init has no scale
    # to screen with, which fails the trial like any other degenerate input
    row, trace = run_trial(TrialCell("single", 1, 3, CorruptionSpec(poisson=True)), FIXED_MTWF, 0)
    assert math.isnan(row.final_rel_err)
    assert (row.iterations, row.success) == (0, 0)
    assert trace is None


def test_run_trial_wall_time_opt_in():
    cell = TrialCell("single", 16, 48, CLEAN)
    short = SolverConfig(Algorithm.MEDIAN_TWF, max_iters=5, fixed_iterations=True)
    row, _ = run_trial(cell, short, 5)
    assert row.wall_time_ms == 0.0
    timed, _ = run_trial(cell, short, 5, timing=True)
    assert timed.wall_time_ms > 0.0


def test_run_experiment_gives_each_cell_and_algorithm_one_solver_config(monkeypatch):
    received = []

    def record(cell, solver, trial_seed, timing=False):
        received.append((cell, solver, timing))
        return run_trial(cell, solver, trial_seed, timing)

    monkeypatch.setattr("robustphase.harness.run_trial", record)
    cfg = ExperimentConfig(
        experiment="outlier_sweep", n_values=(64,), m_values=(384,), m_over_n=None,
        trials=2, algorithms=(Algorithm.MEDIAN_TWF, Algorithm.TRIMEAN_TWF),
        s_values=(0.0, 0.1), eta_values=(1.0,), fixed_T=False,
    )
    rows = run_experiment(cfg)
    solvers = defaultdict(list)
    for cell, solver, timing in received:
        solvers[(cell.corruption.outlier_fraction, solver.algorithm)].append(solver)
        assert solver.known_s == cell.corruption.outlier_fraction  # trimean-twf reads it
        settings = (solver.max_iters, solver.success_tol, solver.fixed_iterations, timing)
        assert settings == (500, 1e-8, False, False)
    assert len(solvers) == 4
    assert all(len(trials) == 2 and trials[0] is trials[1] for trials in solvers.values())
    # told its clean cell's fraction (0), trimean-twf recovers the signal
    assert [r.success for r in rows if r.algorithm == "trimean-twf" and r.s == 0.0] == [1, 1]


# --------------------------------------------------------- config validation


def _cfg(**overrides):
    base = dict(experiment="single", n_values=(16,), m_values=(48,), m_over_n=None)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(experiment="mystery"),
        dict(trials=0),
        dict(threads=0),
        dict(max_iters=0),
        dict(tol=0.0),
        dict(n_values=()),
        dict(n_values=(0,)),
        dict(m_values=(0,)),
        dict(m_values=None, m_over_n=None),
        dict(m_over_n=(3.0,)),
        dict(s_values=()),
        dict(s_values=(0.7,)),
        dict(s_values=(-0.1,)),
        dict(eta_values=(-1.0,)),
        dict(w_values=(-0.5,)),
        dict(tol=float("nan")),
        dict(tol=float("inf")),
        dict(s_values=(float("nan"),)),
        dict(eta_values=(float("nan"),)),
        dict(eta_values=(float("inf"),)),
        dict(w_values=(float("nan"),)),
        dict(w_values=(float("inf"),)),
        dict(m_values=None, m_over_n=(0.0,)),
        dict(m_values=None, m_over_n=(-1.0,)),
        dict(m_values=None, m_over_n=(float("nan"),)),
        dict(m_values=None, m_over_n=(float("inf"),)),
        dict(m_values=()),
        dict(master_seed=-1),
        dict(algorithms=("median-twf", "median-twf")),
        dict(algorithms=("twf", Algorithm.MEAN_TWF)),  # one algorithm, two spellings
        dict(trials=2.5),  # counts must be integers
        dict(threads=2.0),
        dict(max_iters=3.5),
        dict(n_values=(8.5,)),  # grid values and the seed must be integers too
        dict(m_values=(48.0,)),
        dict(master_seed=2.7),
    ],
)
def test_config_rejects_bad_values(overrides):
    with pytest.raises(InvalidInputError):
        _cfg(**overrides)


def test_config_coerces_algorithm_names():
    cfg = _cfg(algorithms=("median-rwf", "twf"))
    assert cfg.algorithms == (Algorithm.MEDIAN_RWF, Algorithm.MEAN_TWF)


def test_m_over_n_rounds_to_nearest_with_floor_one():
    cfg = ExperimentConfig(
        experiment="single", n_values=(64,), m_over_n=(2.0, 2.5),
        algorithms=(Algorithm.MEDIAN_TWF,), max_iters=1,
    )
    assert [r.m for r in run_experiment(cfg)] == [128, 160]
    tiny = ExperimentConfig(
        experiment="single", n_values=(10,), m_over_n=(0.05,),
        algorithms=(Algorithm.MEDIAN_TWF,), max_iters=1,
    )
    assert [r.m for r in run_experiment(tiny)] == [1]


# --------------------------------------------------------------- phase_grid


def test_phase_grid_empty_algorithm_list_is_rejected():
    # Like every other empty grid: a run that could only write a header fails.
    with pytest.raises(InvalidInputError):
        ExperimentConfig(
            experiment="phase_grid", n_values=(16,), m_values=(48,), m_over_n=None,
            algorithms=(), max_iters=1,
        )


# Every trial seed hashes its algorithm's code; these are the published ones.
SEED_CODES = {
    Algorithm.MEDIAN_TWF: 0,
    Algorithm.MEDIAN_RWF: 1,
    Algorithm.MEAN_TWF: 2,
    Algorithm.PLAIN_RWF: 3,
    Algorithm.TRIMEAN_TWF: 4,
}


def test_algorithm_declaration_order_is_the_seed_code_order():
    assert list(Algorithm) == sorted(SEED_CODES, key=SEED_CODES.get)


# Every trial seed hashes its experiment's code too; these are the published ones.
EXPERIMENT_CODES = {
    "single": 0, "phase_grid": 1, "outlier_sweep": 2, "noise_curve": 3, "poisson": 4,
}


def test_experiment_table_order_is_the_seed_code_order():
    assert list(EXPERIMENTS) == sorted(EXPERIMENT_CODES, key=EXPERIMENT_CODES.get)


def test_phase_grid_canonical_order_and_seed_derivation():
    cfg = ExperimentConfig(
        experiment="phase_grid", n_values=(16,), m_values=(32, 48), m_over_n=None,
        trials=2, algorithms=(Algorithm.MEDIAN_TWF, Algorithm.MEDIAN_RWF),
        master_seed=9, max_iters=2,
    )
    rows = run_experiment(cfg)
    assert [r.m for r in rows] == [32] * 4 + [48] * 4
    assert [r.algorithm for r in rows] == ["median-twf"] * 2 + ["median-rwf"] * 2 + [
        "median-twf"
    ] * 2 + ["median-rwf"] * 2
    expected = [
        derive_seed(9, EXPERIMENT_CODES["phase_grid"], cell, SEED_CODES[algo], trial)
        for cell in (0, 1)
        for algo in (Algorithm.MEDIAN_TWF, Algorithm.MEDIAN_RWF)
        for trial in (0, 1)
    ]
    assert [r.seed for r in rows] == expected
    assert run_experiment(cfg) == rows


def test_phase_grid_success_rate_monotone_in_m():
    cfg = ExperimentConfig(
        experiment="phase_grid", n_values=(48,), m_over_n=(2.0, 4.0, 6.0),
        trials=10, algorithms=(Algorithm.MEDIAN_TWF,), master_seed=0, fixed_T=False,
    )
    counts = success_counts(run_experiment(cfg), key=lambda r: r.m)
    ms = sorted(counts)
    # measured 1/10, 8/10, 9/10; allow 2-trial counting noise on the trend
    for lo, hi in zip(ms, ms[1:]):
        assert counts[hi] >= counts[lo] - 2
    assert counts[ms[-1]] >= 8
    assert counts[ms[0]] <= 3


# ------------------------------------------------------------- outlier_sweep


def test_outlier_sweep_ordering_at_small_fraction():
    cfg = ExperimentConfig(
        experiment="outlier_sweep", n_values=(64,), m_values=(512,), m_over_n=None,
        trials=10,
        algorithms=(Algorithm.MEDIAN_TWF, Algorithm.MEDIAN_RWF, Algorithm.MEAN_TWF),
        s_values=(0.05,), eta_values=(1.0,), master_seed=0, fixed_T=False,
    )
    counts = success_counts(run_experiment(cfg))
    assert counts["median-rwf"] >= counts["median-twf"] >= counts["twf"]
    assert counts["twf"] == 0
    assert counts["median-rwf"] >= 8  # measured 10/10


def test_outlier_sweep_trimean_survives_very_large_outliers():
    # at s=0.30 with outliers up to 100x the signal power the shared
    # median-scaled initialization degrades; the trimmed baseline, told the
    # exact fraction, keeps occasional successes while mean-TWF-style
    # truncation of the median family breaks down first
    cfg = ExperimentConfig(
        experiment="outlier_sweep", n_values=(64,), m_values=(512,), m_over_n=None,
        trials=20, algorithms=(Algorithm.MEDIAN_TWF, Algorithm.TRIMEAN_TWF),
        s_values=(0.30,), eta_values=(100.0,), master_seed=0, fixed_T=False,
    )
    counts = success_counts(run_experiment(cfg))
    assert counts["trimean-twf"] >= 1  # measured 2/20
    assert counts["median-twf"] == 0


def test_outlier_sweep_s_zero_reduces_to_noise_free():
    cfg = ExperimentConfig(
        experiment="outlier_sweep", n_values=(64,), m_values=(384,), m_over_n=None,
        trials=3, algorithms=tuple(Algorithm), s_values=(0.0,), eta_values=(1.0,),
        master_seed=0, fixed_T=False,
    )
    counts = success_counts(run_experiment(cfg))
    assert all(counts[a.value] == 3 for a in Algorithm)


def test_outlier_sweep_crosses_s_and_eta_grids():
    cfg = ExperimentConfig(
        experiment="outlier_sweep", n_values=(16,), m_values=(48,), m_over_n=None,
        trials=1, algorithms=(Algorithm.MEDIAN_TWF,),
        s_values=(0.0, 0.1), eta_values=(1.0, 10.0), master_seed=0, max_iters=2,
    )
    rows = run_experiment(cfg)
    assert [(r.s, r.eta_max_rel) for r in rows] == [
        (0.0, 1.0), (0.0, 10.0), (0.1, 1.0), (0.1, 10.0)
    ]
    assert all(r.experiment == "outlier_sweep" for r in rows)


# -------------------------------------------------------------- noise_curve


def test_noise_curve_clean_regime_reaches_tolerance():
    cfg = ExperimentConfig(
        experiment="noise_curve", n_values=(64,), m_values=(384,), m_over_n=None,
        trials=1, algorithms=(Algorithm.MEDIAN_TWF,), s_values=(0.0,),
        w_values=(0.0,), master_seed=0,
    )
    trials = run_experiment(cfg)
    assert [(r.experiment, r.algorithm) for r, _ in trials] == [
        ("noise_curve:w=0:corrupted", "median-twf"),
        ("noise_curve:w=0:clean", "twf"),
    ]
    for _, trace in trials:
        assert len(trace.errors) == 501  # fixed budget: t = 0..500
        assert trace.errors[-1] <= 1e-8


def test_noise_curve_tenfold_reduction_and_outlier_tracking():
    cfg = ExperimentConfig(
        experiment="noise_curve", n_values=(64,), m_values=(512,), m_over_n=None,
        trials=1,
        algorithms=(Algorithm.MEDIAN_TWF, Algorithm.MEDIAN_RWF, Algorithm.MEAN_TWF),
        s_values=(0.1,), w_values=(0.01, 0.001), master_seed=0,
    )
    finals = final_errors(run_experiment(cfg))
    by = lambda exp, algo: next(
        v for (e, a, _), v in finals.items() if e == exp and a == algo
    )
    hi = by("noise_curve:w=0.01:corrupted", "median-twf")
    lo = by("noise_curve:w=0.001:corrupted", "median-twf")
    assert 5.0 <= hi / lo <= 20.0  # measured 8.8 for this master seed
    # with outliers present the median curves stay within a factor 3 of the
    # mean-statistic baseline running on the dense noise alone
    for w in ("0.01", "0.001"):
        clean = by(f"noise_curve:w={w}:clean", "twf")
        assert by(f"noise_curve:w={w}:corrupted", "median-twf") <= 3.0 * clean
        assert by(f"noise_curve:w={w}:corrupted", "median-rwf") <= 3.0 * clean


# ------------------------------------------------------------------ poisson


def test_poisson_curves_track_clean_baseline():
    cfg = ExperimentConfig(
        experiment="poisson", n_values=(64,), m_values=(512,), m_over_n=None,
        trials=1,
        algorithms=(Algorithm.MEDIAN_TWF, Algorithm.MEDIAN_RWF, Algorithm.MEAN_TWF),
        s_values=(0.1,), master_seed=0,
    )
    finals = final_errors(run_experiment(cfg))
    by = lambda exp, algo: next(
        v for (e, a, _), v in finals.items() if e == exp and a == algo
    )
    clean = by("poisson:clean", "twf")
    assert 0.001 < clean < 0.2  # counting noise floor, not exact recovery
    assert by("poisson:corrupted", "median-twf") <= 3.0 * clean
    assert by("poisson:corrupted", "median-rwf") <= 3.0 * clean


def test_poisson_deterministic_per_master_seed():
    cfg = ExperimentConfig(
        experiment="poisson", n_values=(32,), m_values=(160,), m_over_n=None,
        trials=1, algorithms=(Algorithm.MEDIAN_TWF,), s_values=(0.1,),
        master_seed=4, max_iters=40,
    )
    first, second = run_experiment(cfg), run_experiment(cfg)
    assert [row for row, _ in first] == [row for row, _ in second]
    for (_, a), (_, b) in zip(first, second):
        for column in ("errors", "kept", "median_stat"):
            assert np.array_equal(getattr(a, column), getattr(b, column))


# ----------------------------------------------------------- run_experiment

MTWF_CODE = SEED_CODES[Algorithm.MEDIAN_TWF]
BASELINE_CODE = SEED_CODES[Algorithm.MEAN_TWF]

# experiment -> (per-iteration, [(cell index, algorithm code)] in seed order)
# for one (n, m) pair, one s/eta/w value, one trial and median-twf alone
EXPERIMENT_LAYOUT = {
    "single": (False, [(0, MTWF_CODE)]),
    "phase_grid": (False, [(0, MTWF_CODE)]),
    "outlier_sweep": (False, [(0, MTWF_CODE)]),
    "noise_curve": (True, [(0, MTWF_CODE), (1, BASELINE_CODE)]),
    "poisson": (True, [(0, MTWF_CODE), (1, BASELINE_CODE)]),
}


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_run_experiment_tags_and_seeds_come_from_cfg_experiment(exp_id):
    # only noise_curve reads w per cell; poisson rejects a nonzero w
    w_grid = dict(w_values=(0.01,)) if exp_id == "noise_curve" else {}
    cfg = ExperimentConfig(
        experiment=exp_id, n_values=(8,), m_values=(48,), m_over_n=None,
        algorithms=(Algorithm.MEDIAN_TWF,), s_values=(0.1,), master_seed=3, max_iters=2,
        **w_grid,
    )
    results = run_experiment(cfg)
    per_iteration, seeded = EXPERIMENT_LAYOUT[exp_id]
    if per_iteration:  # (row, trace) pairs
        assert all(type(trace) is IterateTrace for _, trace in results)
        rows = [row for row, _ in results]
    else:
        rows = results
    assert rows and all(type(r) is ResultRow for r in rows)
    assert all(r.experiment == exp_id or r.experiment.startswith(exp_id + ":") for r in rows)
    assert list(dict.fromkeys(r.seed for r in rows)) == [
        derive_seed(3, EXPERIMENT_CODES[exp_id], cell, algo, 0) for cell, algo in seeded
    ]


def test_pool_never_starts_more_workers_than_tasks(monkeypatch):
    # A fork-based pool starts all max_workers processes at the first
    # submit; a serial stand-in records the count without starting any.
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    cfg = ExperimentConfig(
        experiment="single", n_values=(8,), m_values=(24,), m_over_n=None,
        trials=3, threads=64, max_iters=2,
    )
    rows = run_experiment(cfg)
    assert started == [3]
    assert rows == run_experiment(replace(cfg, threads=1))
    assert started == [3]  # one thread runs in-process


def test_harness_import_leaves_the_process_pool_unloaded():
    # A fresh interpreter: pytest itself may have loaded the pool already.
    # Only a multi-process run pays for concurrent.futures.process.
    package_root = str(Path(robustphase.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, robustphase.harness; "
         "print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# -------------------------------------------------------------- CSV output


def test_result_csv_round_trip_is_exact(tmp_path):
    rows = [
        ResultRow("single", "median-twf", 64, 384, 0.1, 1.0, 0.3 - 0.2, 42, 1,
                  0.1 + 0.2, 137, 0.0),
        ResultRow("single", "rwf", 8, 16, 0.0, 0.0, 0.0, 7, 0, float("nan"), 0, 0.0),
        ResultRow("single", "twf", 8, 16, 0.0, 0.0, 0.0, 8, 0, 8.14e-17, 500, 1.25),
    ]
    path = tmp_path / "rows.csv"
    write_result_csv(rows, str(path))
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == RESULT_HEADER
    assert "0.30000000000000004" in lines[1]  # 17 significant digits
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        parsed = list(reader)
    assert len(parsed) == 3
    for row, rec in zip(rows, parsed):
        assert int(rec["n"]) == row.n and int(rec["m"]) == row.m
        assert int(rec["seed"]) == row.seed
        assert int(rec["success"]) == row.success
        assert int(rec["iterations"]) == row.iterations
        for field in ("s", "eta_max_rel", "w_max_rel", "final_rel_err", "wall_time_ms"):
            want = getattr(row, field)
            got = float(rec[field])
            assert got == want or (math.isnan(got) and math.isnan(want))


def _csv_writer_bytes(header, records):
    """The reference: ``csv.writer`` over 17-digit floats and ``str`` otherwise."""
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header.split(","))
    for record in records:
        writer.writerow([format(v, ".17g") if isinstance(v, float) else str(v) for v in record])
    return expected.getvalue().encode("utf-8")


def test_result_csv_bytes_match_csv_writer(tmp_path):
    inf, nan = float("inf"), float("nan")
    rows = [
        ResultRow("outlier_sweep", "trimean-twf", 64, 512, 0.1 + 0.2, inf, -0.0, 2**63, 1,
                  5e-324, 500, 12.345678901234567),
        ResultRow("single", "rwf", 8, 16, 0, -inf, 0.0, 0, 0, nan, 0, 0.0),
        ResultRow("phase_grid", "median-rwf", 512, 2048, 0.0, 1.0, 1e-3, 7, 0, -0.0, 3, 0.5),
    ]
    path = tmp_path / "rows.csv"
    assert write_result_csv(rows, str(path)) == 3
    data = path.read_bytes()
    assert data == _csv_writer_bytes(RESULT_HEADER, [vars(r).values() for r in rows])
    assert b",0.30000000000000004,inf,-0,9223372036854775808,1,4.9406564584124654e-324," in data


def test_result_csv_formats_each_field_by_its_declared_type(tmp_path):
    # Integers in float fields still take the 17-digit float format.
    row = ResultRow("single", "twf", 8, 16, 0, 10**20, 1, 3, 0, 1, 500, 0)
    path = tmp_path / "rows.csv"
    write_result_csv([row], str(path))
    assert path.read_text(encoding="utf-8").splitlines()[1] == "single,twf,8,16,0,1e+20,1,3,0,1,500,0"


def _trace(errors, kept, median_stat):
    return IterateTrace(np.array(errors), np.array(kept, dtype=np.int64),
                        np.array(median_stat), np.zeros(len(errors)), None)


def test_iteration_csv_bytes_match_csv_writer(tmp_path):
    def row(tag, algorithm, seed):
        return ResultRow(tag, algorithm, 64, 512, 0.1, 0.0, 0.01, seed, 0, 0.5, 2, 0.0)

    trials = [
        (row("noise_curve:w=0.01:corrupted", "median-rwf", 3),
         _trace([1.0 / 3.0, 5e-324, 0.0], [400, 512, 0], [2.0 ** -40, 0.0, 1.0 / 3.0])),
        (row("poisson:clean", "twf", 4), None),  # a failed trial writes nothing
        (row("poisson:clean", "twf", 5), _trace([0.0], [512], [5e-324])),
    ]
    path = tmp_path / "iters.csv"
    assert write_iteration_csv(trials, str(path)) == 4

    expected = _csv_writer_bytes(ITERATION_HEADER, [
        (r.experiment, r.algorithm, r.n, r.m, r.seed, t, *values)
        for r, trace in trials
        if trace is not None
        for t, values in enumerate(
            zip(trace.errors.tolist(), trace.kept.tolist(), trace.median_stat.tolist())
        )
    ])
    assert path.read_bytes() == expected
    assert b"1,4.9406564584124654e-324,512," in expected


# ---------------------------------------------------------------------- CLI


def test_cli_single_writes_csv(tmp_path):
    out = tmp_path / "run.csv"
    code = cli_main(
        ["single", "--algo", "median-rwf", "--n", "64", "--m", "384",
         "--seed", "1", "--no-fixed-T", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == RESULT_HEADER
    assert len(lines) == 2
    record = dict(zip(RESULT_HEADER.split(","), lines[1].split(",")))
    assert record["algorithm"] == "median-rwf"
    assert record["success"] == "1"
    assert record["wall_time_ms"] == "0"


def test_cli_single_crosses_s_and_eta_grids(tmp_path):
    out = tmp_path / "run.csv"
    assert cli_main(
        ["single", "--n", "8", "--m", "48", "--s", "0,0.1", "--eta-max-rel", "0,1",
         "--max-iters", "2", "--out", str(out)]
    ) == 0
    with out.open(newline="") as f:
        pairs = [(float(r["s"]), float(r["eta_max_rel"])) for r in csv.DictReader(f)]
    assert pairs == [(0.0, 0.0), (0.0, 1.0), (0.1, 0.0), (0.1, 1.0)]


def test_cli_trimean_under_huge_outliers_writes_no_infinite_error(tmp_path):
    # One trial lets an infinite residual through the trim; its step must be
    # refused (a failed row), not taken to an infinite error.
    out = tmp_path / "sweep.csv"
    assert cli_main(
        ["outlier-sweep", "--n", "16", "--m", "128", "--s", "0.2", "--eta-max-rel", "1e250",
         "--algos", "trimean-twf", "--trials", "8", "--seed", "3", "--max-iters", "100",
         "--out", str(out)]
    ) == 0
    with out.open(newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 8
    for r in rows:
        err, failed = float(r["final_rel_err"]), (r["iterations"], r["success"]) == ("0", "0")
        assert math.isfinite(err) or (math.isnan(err) and failed)


@pytest.mark.parametrize("flags", [["--s", "0.1", "--eta-max-rel", "1e308"],
                                   ["--w-max-rel", "1e308"]], ids=["eta", "w"])
def test_cli_overflowing_magnitude_is_a_failed_row(tmp_path, flags):
    # bound = rel * ||x||^2 overflows to inf: the draw gives non-finite
    # measurements, which the init refuses, instead of an error escaping.
    out = tmp_path / "single.csv"
    argv = ["single", "--n", "64", "--m", "256", *flags, "--max-iters", "5"]
    assert cli_main(argv + ["--out", str(out)]) == 0
    with out.open(newline="") as f:
        (row,) = csv.DictReader(f)
    assert math.isnan(float(row["final_rel_err"]))
    assert (row["iterations"], row["success"]) == ("0", "0")


def test_cli_noise_curve_with_overflowing_noise_exits_zero(tmp_path):
    # Every trial fails, and a failed trial writes no per-iteration rows.
    out = tmp_path / "noise.csv"
    argv = ["noise-curve", "--n", "64", "--m", "256", "--w-max-rel", "1e307", "--max-iters", "5"]
    assert cli_main(argv + ["--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").splitlines() == [ITERATION_HEADER]


def test_cli_help_exits_zero(capsys):
    assert cli_main(["phase-grid", "--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_cli_rejects_outlier_fraction_half_or_more(tmp_path, capsys):
    code = cli_main(
        ["single", "--n", "16", "--m", "48", "--s", "0.7",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--algos", "bogus"), ("--n", "abc"), ("--m-over-n", "x"), ("--s", "0.1,y"),
     ("--m-over-n", "nan"), ("--seed", "-1")],
    ids=["algos", "n", "m-over-n", "s", "m-over-n-nan", "seed"],
)
def test_cli_rejects_malformed_values(tmp_path, flag, value):
    out = tmp_path / "x.csv"
    assert cli_main(["single", flag, value, "--out", str(out)]) == 2
    assert not out.exists()


TINY = ["--n", "4", "--m", "16", "--algos", "median-twf", "--max-iters", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["single", "--w-max-rel", "0,0.01"],
        ["phase-grid", "--w-max-rel", "0,0.01", "--trials", "1"],
        ["outlier-sweep", "--w-max-rel", "0,0.01", "--trials", "1"],
        ["noise-curve", "--s", "0.1,0.2"],
        ["poisson", "--s", "0.1,0.2"],
        ["noise-curve", "--eta-max-rel", "5"],
        ["poisson", "--eta-max-rel", "5,7"],
        ["poisson", "--w-max-rel", "0.01"],
        ["noise-curve", "--timing"],
        ["poisson", "--timing"],
        ["single", "--m-over-n", "3"],  # with TINY's --m
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:2]),
)
def test_cli_rejects_values_the_experiment_would_drop(tmp_path, argv):
    out = tmp_path / "x.csv"
    assert cli_main(argv + TINY + ["--out", str(out)]) == 2
    assert not out.exists()


def test_cli_rejects_a_repeated_algorithm(tmp_path, capsys):
    # A repeat would derive the same trial seeds and write every row twice.
    out = tmp_path / "x.csv"
    argv = ["single", "--algos", "median-twf,median-twf", "--trials", "2", "--n", "4",
            "--m", "16", "--max-iters", "2", "--out", str(out)]
    assert cli_main(argv) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_an_empty_algorithm_list(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli_main(["single", "--algos", ",", "--n", "4", "--m", "16", "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_readme_cli_examples_parse_into_accepted_configs():
    """Every ``robust-phase`` line of the README's usage block is accepted."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples = [
        line.split()[1:]
        for line in readme.read_text(encoding="utf-8").splitlines()
        if line.startswith("robust-phase ")
    ]
    assert sorted(argv[0] for argv in examples) == sorted(
        exp_id.replace("_", "-") for exp_id in EXPERIMENTS
    )
    parser = _build_parser()
    for argv in examples:
        ns = parser.parse_args(argv)
        del ns.command, ns.out  # the output path is the CLI's, not the config's
        ExperimentConfig(**vars(ns))


def _cells(tag, ns, ratios, s=0.0, eta=0.0, w=0.0):
    return [(tag, n, round(r * n), s, eta, w) for n in ns for r in ratios]


TWF3 = ("median-twf", "median-rwf", "twf")

# subcommand -> ([(cell, algorithms)] in run order, trials per cell and algorithm)
CLI_DEFAULTS = {
    "single": ([(c, ("median-twf",)) for c in _cells("single", [64], [6])], 1),
    "phase-grid": (
        [(c, ("median-twf", "median-rwf", "twf", "rwf"))
         for c in _cells("phase_grid", [64, 128], [2, 3, 4, 5, 6])],
        20,
    ),
    "outlier-sweep": (
        [(c, ("median-twf", "median-rwf", "twf", "trimean-twf"))
         for s in (0.05, 0.1, 0.15, 0.2)
         for c in _cells("outlier_sweep", [64], [8], s=s, eta=1.0)],
        100,
    ),
    "noise-curve": (
        [pair
         for w in (0.01, 0.001)
         for pair in (
             ((f"noise_curve:w={w:g}:corrupted", 64, 512, 0.1, 0.0, w), TWF3),
             ((f"noise_curve:w={w:g}:clean", 64, 512, 0.0, 0.0, w), ("twf",)),
         )],
        1,
    ),
    "poisson": (
        [(("poisson:corrupted", 64, 512, 0.1, 0.0, 0.0), TWF3),
         (("poisson:clean", 64, 512, 0.0, 0.0, 0.0), ("twf",))],
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_DEFAULTS))
def test_cli_subcommand_defaults(name, tmp_path, monkeypatch):
    calls = []

    def record(cell, cfg, trial_seed, timing=False):
        c = cell.corruption
        key = (cell.experiment_id, cell.n, cell.m, c.outlier_fraction, c.eta_max_rel,
               c.w_max_rel)
        settings = (cfg.fixed_iterations, cfg.max_iters, cfg.success_tol, timing)
        calls.append((key, cfg.algorithm.value, settings))
        row = ResultRow(cell.experiment_id, cfg.algorithm.value, cell.n, cell.m,
                        c.outlier_fraction, c.eta_max_rel, c.w_max_rel, trial_seed,
                        0, 0.0, 0, 0.0)
        return row, None

    monkeypatch.setattr("robustphase.harness.run_trial", record)
    monkeypatch.chdir(tmp_path)
    assert cli_main([name]) == 0
    assert (tmp_path / f"{name}.csv").exists()

    expected_cells, trials = CLI_DEFAULTS[name]
    cells = []
    for key, algo, _ in calls:
        if not cells or cells[-1][0] != key:
            cells.append((key, []))
        if algo not in cells[-1][1]:
            cells[-1][1].append(algo)
    assert [(k, tuple(a)) for k, a in cells] == expected_cells
    assert set(Counter((key, algo) for key, algo, _ in calls).values()) == {trials}
    assert {settings for _, _, settings in calls} == {(True, 500, 1e-8, False)}


def test_cli_rejects_unknown_flag():
    assert cli_main(["single", "--warp-speed"]) == 2


def test_cli_unwritable_output_is_runtime_failure(tmp_path, capsys):
    code = cli_main(
        ["single", "--n", "16", "--m", "48", "--max-iters", "2",
         "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv")]
    )
    assert code == 1
    assert "runtime failure" in capsys.readouterr().err


def test_cli_programming_error_is_runtime_failure_not_a_failed_row(
    tmp_path, capsys, monkeypatch
):
    def broken(problem, cfg):
        raise TypeError("bug in the solver")

    monkeypatch.setattr("robustphase.harness.run_solver", broken)
    out = tmp_path / "x.csv"
    code = cli_main(["single", "--n", "16", "--m", "48", "--max-iters", "2", "--out", str(out)])
    assert code == 1
    assert "runtime failure: bug in the solver" in capsys.readouterr().err
    assert not out.exists()


def test_console_script_entry_point(tmp_path):
    """The `[project.scripts]` declaration runs as a command.

    The `robust-phase` wrapper is built from `pyproject.toml` the way
    pip/setuptools build a console script, so the declaration of this
    checkout is checked whether or not the package is installed.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["robust-phase"]
    module, func = target.split(":")
    script = tmp_path / "robust-phase"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    script.chmod(0o755)
    package_root = str(Path(robustphase.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PATH")]))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        ["robust-phase", "single", "--n", "16", "--m", "48", "--max-iters", "5",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert "wrote 1 rows" in proc.stdout
    assert out.exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    package_root = str(Path(robustphase.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    out = tmp_path / "dash-m.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "robustphase", "single", "--n", "16", "--m", "48",
         "--max-iters", "5", "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote 1 rows" in proc.stdout
    assert out.exists()


def test_main_raises_system_exit(tmp_path, monkeypatch):
    out = tmp_path / "m.csv"
    monkeypatch.setattr(
        sys, "argv",
        ["robust-phase", "single", "--n", "16", "--m", "48", "--max-iters", "2",
         "--out", str(out)],
    )
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert out.exists()


# ---------------------------------------------------------- package surface


def _defined_public_names(source: str) -> set[str]:
    """Top-level public functions, classes and UPPER_CASE constants."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and n.id.isupper()
            )
    return {n for n in names if not n.startswith("_")}


def test_package_reexports_every_public_name():
    """Every public name a module defines is in its ``__all__``, and every
    ``__all__`` outside the harness is reachable from the package."""
    paths = sorted(Path(robustphase.__file__).parent.glob("[!_]*.py"))
    assert "errors" in [p.stem for p in paths] and "harness" in [p.stem for p in paths]
    for path in paths:
        module = importlib.import_module(f"robustphase.{path.stem}")
        unlisted = sorted(_defined_public_names(path.read_text()) - set(module.__all__))
        assert not unlisted, f"robustphase.{path.stem} leaves {unlisted} out of __all__"
        if path.stem != "harness":
            missing = [n for n in module.__all__ if not hasattr(robustphase, n)]
            assert not missing, f"robustphase does not re-export {path.stem}: {missing}"
    for gone in ("Placement", "problem_to_json", "problem_from_json", "TrialOutcome",
                 "outcome_from_errors", "surrogate_apply", "rc_probe",
                 "residual_median_stats", "dist"):
        assert not hasattr(robustphase, gone), gone
