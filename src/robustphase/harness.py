"""Experiment orchestration and the ``robust-phase`` command line tool.

Five experiments, all emitting CSV:

* ``single``        one or a few trials at a fixed design point,
* ``phase-grid``    success counts over an (n, m/n) grid,
* ``outlier-sweep`` success rates against the outlier fraction s,
* ``noise-curve``   per-iteration error under dense noise plus outliers,
* ``poisson``       per-iteration error under Poisson counts plus outliers.

Reproducibility contract: every trial derives its seed as
hash(master_seed, experiment_code, cell_index, algorithm_code, trial_index),
the codes being positions in ``EXPERIMENTS`` and ``Algorithm``, so a row's
content depends only on the configuration, never on thread scheduling.
Wall-clock timing is therefore opt-in (``--timing``); without it the
wall_time_ms column is 0 and output files are byte-identical across repeated
and multi-threaded runs.  Floats are written with 17 significant digits so
parsing a file recovers every value exactly.  A per-iteration trial leaves
its worker as one trace of arrays; the parent formats its rows.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

from .errors import InvalidInputError, RobustPhaseError, _parse_choice
from .errors import _require_count, _require_fraction, _require_nonnegative, _require_positive
from .metrics import is_success
from .model import CorruptionSpec, OutlierModel, derive_seed, generate_problem
from .solvers import Algorithm, IterateTrace, SolverConfig, run_solver

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "TrialCell",
    "ResultRow",
    "RESULT_HEADER",
    "ITERATION_HEADER",
    "run_trial",
    "run_experiment",
    "write_result_csv",
    "write_iteration_csv",
    "cli_main",
    "main",
]


@dataclass(frozen=True)
class TrialCell:
    """One design point of an experiment grid."""

    experiment_id: str
    n: int
    m: int
    corruption: CorruptionSpec


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of a sweep; grids are tuples, never scalars.

    A value the experiment's cells would never read is rejected, not dropped.
    """

    experiment: str
    n_values: tuple[int, ...] = (64,)
    m_values: tuple[int, ...] | None = None
    m_over_n: tuple[float, ...] | None = None
    trials: int = 1
    algorithms: tuple[Algorithm, ...] = (Algorithm.MEDIAN_TWF,)
    s_values: tuple[float, ...] = (0.0,)
    eta_values: tuple[float, ...] = (0.0,)
    w_values: tuple[float, ...] = (0.0,)
    master_seed: int = 0
    threads: int = 1
    fixed_T: bool = True
    max_iters: int = SolverConfig.max_iters
    tol: float = SolverConfig.success_tol
    timing: bool = False

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise InvalidInputError(f"unknown experiment {self.experiment!r}")
        _require_count(self.trials, "trials")
        _require_count(self.threads, "threads")
        _require_count(self.master_seed, "seed", least=0)
        _require_count(self.max_iters, "max_iters")
        _require_positive(self.tol, "tol")
        if (self.m_values is None) == (self.m_over_n is None):
            raise InvalidInputError("exactly one of an m grid and an m/n grid is required")
        if not all((self.n_values, self.m_values or self.m_over_n, self.algorithms,
                    self.s_values, self.eta_values, self.w_values)):
            raise InvalidInputError("n, m, algorithm, s, eta and w grids must be nonempty")
        for rule, what, grid in (
            (_require_count, "n", self.n_values),
            (_require_count, "m", self.m_values or ()),
            (_require_positive, "m/n ratio", self.m_over_n or ()),
            (_require_fraction, "outlier fraction", self.s_values),
            (_require_nonnegative, "eta_max_rel", self.eta_values),
            (_require_nonnegative, "w_max_rel", self.w_values),
        ):
            for value in grid:
                rule(value, what)
        per_iteration = EXPERIMENTS[self.experiment].per_iteration
        for dropped, what in (  # values the experiment's cells would never read
            (not per_iteration and len(self.w_values) > 1, "more than one w_max_rel value"),
            (per_iteration and len(self.s_values) > 1, "more than one s value"),
            (per_iteration and any(self.eta_values), "a nonzero eta_max_rel"),
            (per_iteration and self.timing, "timing: its CSV has no wall_time_ms"),
            (self.experiment == "poisson" and any(self.w_values), "a nonzero w_max_rel"),
        ):
            if dropped:
                raise InvalidInputError(f"{self.experiment} does not take {what}")
        algorithms = tuple(_parse_choice(Algorithm, a) for a in self.algorithms)
        if len(set(algorithms)) < len(algorithms):  # a repeat would rerun the same seeds
            raise InvalidInputError(f"algorithms repeat: {', '.join(a.value for a in algorithms)}")
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


RESULT_HEADER = ",".join(f.name for f in fields(ResultRow))
ITERATION_HEADER = "experiment,algorithm,n,m,seed,t,rel_err,kept,median_stat"


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
    cell: TrialCell, cfg: SolverConfig, trial_seed: int, timing: bool = False
) -> tuple[ResultRow, IterateTrace | None]:
    """Run one seeded trial; a package error becomes a failed row, not a crash."""
    start = time.perf_counter()
    try:
        problem = generate_problem(cell.n, cell.m, cell.corruption, trial_seed)
        trace = run_solver(problem, cfg)
        final_err = trace.final_error
        iterations = trace.iterations
        success = int(is_success(final_err, cfg.success_tol))
    except RobustPhaseError:  # a bug elsewhere propagates instead of becoming a row
        final_err = float("nan")
        iterations = 0
        success = 0
        trace = None
    wall_ms = (time.perf_counter() - start) * 1e3 if timing else 0.0
    row = ResultRow(
        experiment=cell.experiment_id,
        algorithm=cfg.algorithm.value,
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


_Trial = tuple[ResultRow, IterateTrace | None]  # a per-iteration experiment's result


def _run_task(task: tuple[TrialCell, SolverConfig, int, bool, bool]) -> ResultRow | _Trial:
    cell, cfg, trial_seed, timing, per_iteration = task
    row, trace = run_trial(cell, cfg, trial_seed, timing)
    # A per-iteration trial ships its trace's arrays, not one object per row.
    return (row, trace) if per_iteration else row


def _execute(tasks: list[tuple], threads: int) -> list:
    # Largest problem (m * n) first, ties in canonical order (a stable sort):
    # the smaller ensembles then reuse the heap the largest one freed, so the
    # peak holds one ensemble, not one of each size.  Each result goes back
    # to its canonical (cell, algorithm, trial) index.
    order = sorted(range(len(tasks)), key=lambda i: -tasks[i][0].m * tasks[i][0].n)
    scheduled = [tasks[i] for i in order]
    # With fork, the pool starts every worker at the first submit, so never
    # ask for more workers than there are tasks or CPUs.
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        done = [_run_task(t) for t in scheduled]
    else:
        # Imported here: the pool's modules add about 16 ms to every import.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_task, scheduled))
    results = [None] * len(tasks)
    for i, result in zip(order, done):
        results[i] = result
    return results


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow] | list[_Trial]:
    """One result per (cell, algorithm, trial), in that order.

    ``cfg.experiment`` alone picks the cells and the seed code.  A summary
    experiment returns its ``ResultRow``s; a per-iteration one returns
    ``(ResultRow, IterateTrace)`` pairs, whose trace is None for a failed
    trial.  ``write_result_csv`` and ``write_iteration_csv`` write them.
    """
    exp = EXPERIMENTS[cfg.experiment]
    exp_code = list(EXPERIMENTS).index(cfg.experiment)  # the seed code: insertion order
    tasks = []
    for cell_index, (cell, algorithms) in enumerate(exp.cells(cfg)):
        for algorithm in algorithms:
            solver = SolverConfig(  # one object, validated once, for all of its trials
                algorithm=algorithm,
                max_iters=cfg.max_iters,
                success_tol=cfg.tol,
                fixed_iterations=cfg.fixed_T,
                known_s=cell.corruption.outlier_fraction,  # only trimean-twf reads known_s
            )
            code = list(Algorithm).index(algorithm)  # the seed code: declaration order
            tasks.extend(
                (cell, solver, derive_seed(cfg.master_seed, exp_code, cell_index, code, trial),
                 cfg.timing, exp.per_iteration)
                for trial in range(cfg.trials)
            )
    return _execute(tasks, cfg.threads)


def _sweep_cells(cfg: ExperimentConfig) -> _Cells:
    """Uniform-outlier cells ordered s -> eta -> (n, m), all algorithms each."""
    specs = [
        CorruptionSpec(outlier_fraction=s, eta_max_rel=eta, w_max_rel=cfg.w_values[0])
        for s in cfg.s_values
        for eta in cfg.eta_values
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


def write_result_csv(rows: list[ResultRow], path: str) -> int:
    """Write one line per row, fields declared ``float`` to 17 significant
    digits; returns the number of data rows.  No field needs quoting:
    experiment ids and algorithm names contain no comma, quote or line break."""
    # By declared type (a string: annotations are postponed), so an int eta of 10**20 reads 1e+20.
    specs = [(f.name, ".17g" if f.type == "float" else "") for f in fields(ResultRow)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(RESULT_HEADER + "\n")
        fh.writelines(
            ",".join(format(getattr(r, name), spec) for name, spec in specs) + "\n"
            for r in rows
        )
    return len(rows)


def write_iteration_csv(trials: list[_Trial], path: str) -> int:
    """One line per iterate of each trace (none for a failed trial), in the
    number format of ``write_result_csv``; returns the row count."""
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(ITERATION_HEADER + "\n")
        for row, trace in trials:
            if trace is None:
                continue
            head = f"{row.experiment},{row.algorithm},{row.n},{row.m},{row.seed}"
            columns = zip(trace.errors.tolist(), trace.kept.tolist(), trace.median_stat.tolist())
            fh.writelines(
                f"{head},{t},{err:.17g},{kept},{stat:.17g}\n"
                for t, (err, kept, stat) in enumerate(columns)
            )
            count += len(trace.errors)
    return count


class _Experiment(NamedTuple):
    cells: Callable[[ExperimentConfig], _Cells]  # (cell, algorithms) in seed order
    per_iteration: bool  # writes one row per iterate of each trace, not per trial
    grid: dict  # CLI defaults where they differ from ExperimentConfig's


# An experiment's seed code is its position here: add new ones last, never reorder.
EXPERIMENTS = {
    "single": _Experiment(_sweep_cells, False, dict(m_over_n=(6.0,))),
    "phase_grid": _Experiment(_sweep_cells, False, dict(
        n_values=(64, 128), m_over_n=(2.0, 3.0, 4.0, 5.0, 6.0), trials=20,
        algorithms=("median-twf", "median-rwf", "twf", "rwf"))),
    "outlier_sweep": _Experiment(_sweep_cells, False, dict(
        m_over_n=(8.0,), trials=100,
        algorithms=("median-twf", "median-rwf", "twf", "trimean-twf"),
        s_values=(0.05, 0.1, 0.15, 0.2), eta_values=(1.0,))),
    "noise_curve": _Experiment(_noise_curve_cells, True, dict(
        m_over_n=(8.0,), algorithms=("median-twf", "median-rwf", "twf"),
        s_values=(0.1,), w_values=(0.01, 0.001))),
    "poisson": _Experiment(_poisson_cells, True, dict(
        m_over_n=(8.0,), algorithms=("median-twf", "median-rwf", "twf"),
        s_values=(0.1,))),
}


def _comma_list(item: type) -> Callable[[str], tuple]:
    def parse(text: str) -> tuple:
        return tuple(item(tok.strip()) for tok in text.split(",") if tok.strip())

    parse.__name__ = f"comma list of {item.__name__}"  # named in argparse errors
    return parse


class _MGrid(argparse.Action):  # --m replaces the experiment's default m/n grid
    def __call__(self, parser, namespace, values, option_string=None):
        namespace.m_values, namespace.m_over_n = values, None


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
        m_grid = sp.add_mutually_exclusive_group()
        m_grid.add_argument("--m", dest="m_values", type=ints, action=_MGrid,
                            help="comma list of measurement counts")
        m_grid.add_argument("--m-over-n", type=floats, help="comma list of m/n ratios")
        sp.add_argument("--trials", type=int)
        sp.add_argument(
            "--algos", dest="algorithms", type=_comma_list(str),
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
    out = ns.out
    del ns.command, ns.out
    try:
        cfg = ExperimentConfig(**vars(ns))
    except InvalidInputError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    # Looked up per call so rebound module attributes (perfbench's tracer
    # wraps the writers) are the ones that run.
    write = write_iteration_csv if EXPERIMENTS[cfg.experiment].per_iteration else write_result_csv
    try:
        written = write(run_experiment(cfg), out)
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {written} rows to {out}")
    return 0


def main() -> None:
    raise SystemExit(cli_main())
