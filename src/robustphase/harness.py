"""Experiment orchestration and the ``robust-phase`` command line tool.

Five experiments, all emitting CSV:

* ``single``        one or a few trials at a fixed design point,
* ``phase-grid``    success counts over an (n, m/n) grid,
* ``outlier-sweep`` success rates against the outlier fraction s,
* ``noise-curve``   per-iteration error under dense noise plus outliers,
* ``poisson``       per-iteration error under Poisson counts plus outliers.

Reproducibility contract: every trial derives its seed as
hash(master_seed, experiment_code, cell_index, algorithm_code, trial_index),
so a row's content depends only on the configuration, never on thread
scheduling.  Wall-clock timing is therefore opt-in (``--timing``); without
it the wall_time_ms column is 0 and output files are byte-identical across
repeated and multi-threaded runs.  Floats are written with 17 significant
digits so parsing a file recovers every value exactly.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

from .errors import InvalidInputError, _parse_choice
from .metrics import is_success
from .model import CorruptionSpec, OutlierModel, derive_seed, generate_problem
from .solvers import Algorithm, IterateTrace, SolverConfig, run_solver

__all__ = [
    "ExperimentConfig",
    "TrialCell",
    "ResultRow",
    "IterationRow",
    "RESULT_HEADER",
    "ITERATION_HEADER",
    "run_trial",
    "run_experiment",
    "write_result_csv",
    "write_iteration_csv",
    "cli_main",
    "main",
]

# Stable algorithm codes for seed derivation; never reorder.
ALGORITHM_CODES = {
    Algorithm.MEDIAN_TWF: 0,
    Algorithm.MEDIAN_RWF: 1,
    Algorithm.MEAN_TWF: 2,
    Algorithm.PLAIN_RWF: 3,
    Algorithm.TRIMEAN_TWF: 4,
}

@dataclass(frozen=True)
class TrialCell:
    """One design point of an experiment grid."""

    experiment_id: str
    n: int
    m: int
    corruption: CorruptionSpec


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of a sweep; grids are tuples, never scalars."""

    experiment: str
    n_values: tuple[int, ...] = (64,)
    m_values: tuple[int, ...] | None = None
    m_over_n: tuple[float, ...] | None = (6.0,)
    trials: int = 1
    algorithms: tuple[Algorithm, ...] = (Algorithm.MEDIAN_TWF,)
    s_values: tuple[float, ...] = (0.0,)
    eta_values: tuple[float, ...] = (0.0,)
    w_values: tuple[float, ...] = (0.0,)
    master_seed: int = 0
    threads: int = 1
    out: str = ""
    fixed_T: bool = True
    max_iters: int = 500
    tol: float = 1e-8
    timing: bool = False

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise InvalidInputError(f"unknown experiment {self.experiment!r}")
        if self.trials < 1:
            raise InvalidInputError(f"trials must be >= 1, got {self.trials}")
        if self.threads < 1:
            raise InvalidInputError(f"threads must be >= 1, got {self.threads}")
        if self.max_iters < 1:
            raise InvalidInputError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0.0 < self.tol < math.inf:
            raise InvalidInputError(f"tol must be finite and positive, got {self.tol}")
        if min(self.n_values, default=0) < 1:
            raise InvalidInputError("n grid must be nonempty with n >= 1")
        if self.m_values is None and not self.m_over_n:
            raise InvalidInputError("either an m grid or an m/n grid is required")
        if self.m_values is not None and min(self.m_values, default=0) < 1:
            raise InvalidInputError("m grid must be nonempty with m >= 1")
        if any(not 0.0 < r < math.inf for r in self.m_over_n or ()):
            raise InvalidInputError("m/n ratios must be finite and positive")
        if not self.s_values or not self.eta_values or not self.w_values:
            raise InvalidInputError("s, eta, and w grids must be nonempty")
        if not all(0.0 <= s < 0.5 for s in self.s_values):
            raise InvalidInputError(f"outlier fractions must lie in [0, 0.5): {self.s_values}")
        if not all(0.0 <= v < math.inf for v in (*self.eta_values, *self.w_values)):
            raise InvalidInputError("eta and w magnitudes must be finite and nonnegative")
        algorithms = tuple(_parse_choice(Algorithm, a) for a in self.algorithms)
        object.__setattr__(self, "algorithms", algorithms)


@dataclass(frozen=True)
class ResultRow:
    """One summary CSV row; its fields, in order, are the CSV columns."""

    experiment: str
    algorithm: str
    n: int
    m: int
    s: float
    eta_max_rel: float
    w_max_rel: float
    seed: int
    success: int
    final_rel_err: float
    iterations: int
    wall_time_ms: float


@dataclass(frozen=True)
class IterationRow:
    """One per-iteration CSV row; its fields, in order, are the CSV columns."""

    experiment: str
    algorithm: str
    n: int
    m: int
    seed: int
    t: int
    rel_err: float
    kept: int
    median_stat: float


RESULT_HEADER = ",".join(f.name for f in fields(ResultRow))
ITERATION_HEADER = ",".join(f.name for f in fields(IterationRow))


@dataclass(frozen=True)
class _Task:
    cell: TrialCell
    algorithm: Algorithm
    trial_seed: int
    cfg: ExperimentConfig


_Cells = list[tuple[TrialCell, tuple[Algorithm, ...]]]  # (cell, its algorithms)


def _pair_dims(cfg: ExperimentConfig) -> list[tuple[int, int]]:
    dims: list[tuple[int, int]] = []
    for n in cfg.n_values:
        if cfg.m_values is not None:
            dims.extend((n, m) for m in cfg.m_values)
        else:
            dims.extend((n, max(1, round(r * n))) for r in cfg.m_over_n)
    return dims


def run_trial(
    cell: TrialCell,
    algorithm: Algorithm,
    trial_seed: int,
    fixed_T: bool = True,
    max_iters: int = 500,
    tol: float = 1e-8,
    timing: bool = False,
) -> tuple[ResultRow, IterateTrace | None]:
    """Run one seeded trial; failures become a failed row, never a crash."""
    start = time.perf_counter()
    trace: IterateTrace | None = None
    try:
        known_s = (
            cell.corruption.outlier_fraction
            if algorithm is Algorithm.TRIMEAN_TWF
            else None
        )
        cfg = SolverConfig(
            algorithm=algorithm,
            max_iters=max_iters,
            success_tol=tol,
            fixed_iterations=fixed_T,
            known_s=known_s,
        )
        problem = generate_problem(cell.n, cell.m, cell.corruption, trial_seed)
        trace = run_solver(problem, cfg)
        final_err = trace.final_error
        iterations = trace.iterations
        success = int(not trace.degenerate and is_success(final_err, tol))
    except Exception:
        final_err = float("nan")
        iterations = 0
        success = 0
        trace = None
    wall_ms = (time.perf_counter() - start) * 1e3 if timing else 0.0
    row = ResultRow(
        experiment=cell.experiment_id,
        algorithm=algorithm.value,
        n=cell.n,
        m=cell.m,
        s=cell.corruption.outlier_fraction,
        eta_max_rel=cell.corruption.eta_max_rel,
        w_max_rel=cell.corruption.w_max_rel,
        seed=trial_seed,
        success=success,
        final_rel_err=final_err,
        iterations=iterations,
        wall_time_ms=wall_ms,
    )
    return row, trace


def _trace_rows(row: ResultRow, trace: IterateTrace) -> list[IterationRow]:
    out = []
    for t in range(len(trace.errors)):
        has_stats = t < len(trace.kept)
        out.append(
            IterationRow(
                experiment=row.experiment,
                algorithm=row.algorithm,
                n=row.n,
                m=row.m,
                seed=row.seed,
                t=t,
                rel_err=float(trace.errors[t]),
                kept=int(trace.kept[t]) if has_stats else 0,
                median_stat=float(trace.median_stat[t]) if has_stats else 0.0,
            )
        )
    return out


def _run_task(task: _Task) -> list[ResultRow] | list[IterationRow]:
    cfg = task.cfg
    row, trace = run_trial(
        task.cell,
        task.algorithm,
        task.trial_seed,
        fixed_T=cfg.fixed_T,
        max_iters=cfg.max_iters,
        tol=cfg.tol,
        timing=cfg.timing,
    )
    if not EXPERIMENTS[cfg.experiment].per_iteration:
        return [row]
    return _trace_rows(row, trace) if trace else []


def _execute(tasks: list[_Task], threads: int) -> list[list]:
    # executor.map preserves input order, so output rows are already in the
    # canonical (cell, algorithm, trial) order regardless of scheduling.
    if threads <= 1 or len(tasks) <= 1:
        return [_run_task(t) for t in tasks]
    # With fork, the pool starts every worker at the first submit, so never
    # ask for more workers than there are tasks.
    workers = min(threads, len(tasks))
    chunk = max(1, len(tasks) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_task, tasks, chunksize=chunk))


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow] | list[IterationRow]:
    """The rows ``cfg.experiment`` writes, for every (cell, algorithm, trial).

    ``cfg.experiment`` alone picks the cells, the seed code and whether the
    rows are one per trial (``ResultRow``) or one per iteration
    (``IterationRow``); rows come in (cell, algorithm, trial) order.
    """
    exp = EXPERIMENTS[cfg.experiment]
    tasks = [
        _Task(
            cell,
            algorithm,
            derive_seed(cfg.master_seed, exp.code, cell_index, ALGORITHM_CODES[algorithm], trial),
            cfg,
        )
        for cell_index, (cell, algorithms) in enumerate(exp.cells(cfg))
        for algorithm in algorithms
        for trial in range(cfg.trials)
    ]
    return [row for rows in _execute(tasks, cfg.threads) for row in rows]


def _sweep_cells(cfg: ExperimentConfig, crossed: bool = False) -> _Cells:
    """Uniform-outlier cells ordered s -> eta -> (n, m), all algorithms each.

    Unless ``crossed``, only the first s and eta values are used.
    """
    s_values = cfg.s_values if crossed else cfg.s_values[:1]
    eta_values = cfg.eta_values if crossed else cfg.eta_values[:1]
    specs = [
        CorruptionSpec(outlier_fraction=s, eta_max_rel=eta, w_max_rel=cfg.w_values[0])
        for s in s_values
        for eta in eta_values
    ]
    return [
        (TrialCell(cfg.experiment, n, m, spec), cfg.algorithms)
        for spec in specs
        for n, m in _pair_dims(cfg)
    ]


def _reference_cells(
    cfg: ExperimentConfig, variants: list[tuple[str, CorruptionSpec, CorruptionSpec]]
) -> _Cells:
    """Cells for (tag, corrupted, clean) variants.

    Each variant runs, per (n, m), the configured algorithms on the
    ``<tag>:corrupted`` cell and then the mean-statistic baseline alone on
    the ``<tag>:clean`` reference cell.
    """
    cells: _Cells = []
    for tag, corrupted, clean in variants:
        for n, m in _pair_dims(cfg):
            cells.append((TrialCell(f"{tag}:corrupted", n, m, corrupted), cfg.algorithms))
            cells.append((TrialCell(f"{tag}:clean", n, m, clean), (Algorithm.MEAN_TWF,)))
    return cells


def _noise_curve_cells(cfg: ExperimentConfig) -> _Cells:
    """Per w level: dense noise plus constant-magnitude outliers (value =
    ||w||_2, support Bernoulli(s)), and the dense noise alone."""
    s, model = cfg.s_values[0], OutlierModel.NOISE_NORM
    return _reference_cells(cfg, [
        (f"{cfg.experiment}:w={w:g}",
         CorruptionSpec(outlier_fraction=s, outlier_model=model, w_max_rel=w),
         CorruptionSpec(w_max_rel=w))
        for w in cfg.w_values
    ])


def _poisson_cells(cfg: ExperimentConfig) -> _Cells:
    """Poisson counts, with and without integer-valued outliers."""
    corrupted = CorruptionSpec(
        outlier_fraction=cfg.s_values[0], outlier_model=OutlierModel.INTEGER_UNIFORM, poisson=True
    )
    return _reference_cells(cfg, [(cfg.experiment, corrupted, CorruptionSpec(poisson=True))])


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header.split(","))
        for row in rows:
            writer.writerow([_fmt(v) for v in vars(row).values()])


def write_result_csv(rows: list[ResultRow], path: str) -> None:
    _write_csv(path, RESULT_HEADER, rows)


def write_iteration_csv(rows: list[IterationRow], path: str) -> None:
    _write_csv(path, ITERATION_HEADER, rows)


class _Experiment(NamedTuple):
    code: int  # seed-derivation code; never renumber
    cells: Callable[[ExperimentConfig], _Cells]  # (cell, algorithms) in seed order
    per_iteration: bool  # writes IterationRow, not ResultRow, rows
    grid: dict  # CLI defaults where they differ from ExperimentConfig's


EXPERIMENTS = {
    "single": _Experiment(0, _sweep_cells, False, {}),
    "phase_grid": _Experiment(1, _sweep_cells, False, dict(
        n_values=(64, 128), m_over_n=(2.0, 3.0, 4.0, 5.0, 6.0), trials=20,
        algorithms=("median-twf", "median-rwf", "twf", "rwf"))),
    "outlier_sweep": _Experiment(2, lambda cfg: _sweep_cells(cfg, crossed=True), False, dict(
        m_over_n=(8.0,), trials=100,
        algorithms=("median-twf", "median-rwf", "twf", "trimean-twf"),
        s_values=(0.05, 0.1, 0.15, 0.2), eta_values=(1.0,))),
    "noise_curve": _Experiment(3, _noise_curve_cells, True, dict(
        m_over_n=(8.0,), algorithms=("median-twf", "median-rwf", "twf"),
        s_values=(0.1,), w_values=(0.01, 0.001))),
    "poisson": _Experiment(4, _poisson_cells, True, dict(
        m_over_n=(8.0,), algorithms=("median-twf", "median-rwf", "twf"),
        s_values=(0.1,))),
}


def _comma_list(item: type) -> Callable[[str], tuple]:
    def parse(text: str) -> tuple:
        return tuple(item(tok.strip()) for tok in text.split(",") if tok.strip())

    parse.__name__ = f"comma list of {item.__name__}"  # named in argparse errors
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-phase",
        description="Phase-retrieval experiments with median-truncated gradient descent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ints, floats = _comma_list(int), _comma_list(float)
    for exp_id, exp in EXPERIMENTS.items():
        name = exp_id.replace("_", "-")
        # Unset flags stay out of the namespace, so ExperimentConfig's own
        # defaults apply unless the experiment's grid overrides them.
        sp = sub.add_parser(
            name, help=f"run the {name} experiment", argument_default=argparse.SUPPRESS
        )
        sp.set_defaults(experiment=exp_id, out=f"{name}.csv", **exp.grid)
        sp.add_argument("--n", dest="n_values", type=ints,
                        help="comma list of signal dimensions")
        sp.add_argument("--m", dest="m_values", type=ints,
                        help="comma list of measurement counts")
        sp.add_argument("--m-over-n", type=floats, help="comma list of m/n ratios")
        sp.add_argument("--trials", type=int)
        sp.add_argument(
            "--algos", "--algo", dest="algorithms", type=_comma_list(str),
            help="comma list: " + ", ".join(a.value for a in Algorithm),
        )
        sp.add_argument("--s", dest="s_values", type=floats,
                        help="comma list of outlier fractions")
        sp.add_argument(
            "--eta-max-rel", dest="eta_values", type=floats,
            help="comma list of outlier amplitudes in units of the signal power",
        )
        sp.add_argument(
            "--w-max-rel", dest="w_values", type=floats,
            help="comma list of dense-noise amplitudes in units of the signal power",
        )
        sp.add_argument("--seed", dest="master_seed", type=int, help="master seed")
        sp.add_argument("--threads", type=int)
        sp.add_argument("--out", help="output CSV path")
        sp.add_argument(
            "--fixed-T", action=argparse.BooleanOptionalAction,
            help="run the full iteration budget (default); --no-fixed-T stops early",
        )
        sp.add_argument("--max-iters", type=int, help="iteration budget T")
        sp.add_argument("--tol", type=float, help="success tolerance")
        sp.add_argument(
            "--timing", action="store_true",
            help="record wall time per trial (makes output files nondeterministic)",
        )
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    """Entry point; returns 0 on success, 2 on config errors, 1 otherwise."""
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags or values, 0 on --help
        return int(exc.code or 0)
    del ns.command
    try:
        cfg = ExperimentConfig(**vars(ns))
    except InvalidInputError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    # Looked up per call so rebound module attributes (perfbench's tracer
    # wraps the writers) are the ones that run.
    write = write_iteration_csv if EXPERIMENTS[cfg.experiment].per_iteration else write_result_csv
    try:
        rows = run_experiment(cfg)
        write(rows, cfg.out)
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} rows to {cfg.out}")
    return 0


def main() -> None:
    raise SystemExit(cli_main())
