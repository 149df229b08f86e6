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
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

from .errors import InvalidInputError
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
    "single",
    "phase_grid",
    "outlier_sweep",
    "noise_curve",
    "poisson_experiment",
    "write_result_csv",
    "write_iteration_csv",
    "cli_main",
    "main",
]

EXPERIMENT_CODES = {
    "single": 0,
    "phase_grid": 1,
    "outlier_sweep": 2,
    "noise_curve": 3,
    "poisson": 4,
}

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
        if self.experiment not in EXPERIMENT_CODES:
            raise InvalidInputError(f"unknown experiment {self.experiment!r}")
        if self.trials < 1:
            raise InvalidInputError(f"trials must be >= 1, got {self.trials}")
        if self.threads < 1:
            raise InvalidInputError(f"threads must be >= 1, got {self.threads}")
        if self.max_iters < 1:
            raise InvalidInputError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tol <= 0.0:
            raise InvalidInputError(f"tol must be positive, got {self.tol}")
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise InvalidInputError("n grid must be nonempty with n >= 1")
        if self.m_values is None and not self.m_over_n:
            raise InvalidInputError("either an m grid or an m/n grid is required")
        if self.m_values is not None and any(m < 1 for m in self.m_values):
            raise InvalidInputError("m grid entries must be >= 1")
        if not self.s_values or not self.eta_values or not self.w_values:
            raise InvalidInputError("s, eta, and w grids must be nonempty")
        for s in self.s_values:
            if not 0.0 <= s < 0.5:
                raise InvalidInputError(f"outlier fraction must lie in [0, 0.5), got {s}")
        if any(e < 0 for e in self.eta_values) or any(w < 0 for w in self.w_values):
            raise InvalidInputError("eta and w magnitudes must be nonnegative")
        object.__setattr__(
            self, "algorithms", tuple(Algorithm(a) for a in self.algorithms)
        )


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
    want_trace: bool


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


def _run_task(task: _Task) -> tuple[ResultRow, list[IterationRow]]:
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
    iter_rows = _trace_rows(row, trace) if (task.want_trace and trace) else []
    return row, iter_rows


def _execute(tasks: list[_Task], threads: int) -> list[tuple[ResultRow, list[IterationRow]]]:
    # executor.map preserves input order, so output rows are already in the
    # canonical (cell, algorithm, trial) order regardless of scheduling.
    if threads <= 1 or len(tasks) <= 1:
        return [_run_task(t) for t in tasks]
    chunk = max(1, len(tasks) // (threads * 4))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(_run_task, tasks, chunksize=chunk))


def _run(
    cfg: ExperimentConfig,
    cells: list[TrialCell],
    algorithms_per_cell: list[tuple[Algorithm, ...]],
    want_trace: bool = False,
) -> tuple[list[ResultRow], list[IterationRow]]:
    exp_code = EXPERIMENT_CODES[cfg.experiment]
    tasks = [
        _Task(
            cell,
            algorithm,
            derive_seed(cfg.master_seed, exp_code, cell_index, ALGORITHM_CODES[algorithm], trial),
            cfg,
            want_trace,
        )
        for cell_index, (cell, algorithms) in enumerate(zip(cells, algorithms_per_cell))
        for algorithm in algorithms
        for trial in range(cfg.trials)
    ]
    results = _execute(tasks, cfg.threads)
    rows = [r for r, _ in results]
    iter_rows = [ir for _, irs in results for ir in irs]
    return rows, iter_rows


def _sweep(
    cfg: ExperimentConfig, experiment_id: str, s_values, eta_values
) -> list[ResultRow]:
    """Result rows over uniform-outlier cells ordered s -> eta -> (n, m)."""
    cells = [
        TrialCell(
            experiment_id,
            n,
            m,
            CorruptionSpec(outlier_fraction=s, eta_max_rel=eta, w_max_rel=cfg.w_values[0]),
        )
        for s in s_values
        for eta in eta_values
        for n, m in _pair_dims(cfg)
    ]
    rows, _ = _run(cfg, cells, [cfg.algorithms] * len(cells))
    return rows


def _reference_curves(
    cfg: ExperimentConfig, variants: list[tuple[str, CorruptionSpec, CorruptionSpec]]
) -> list[IterationRow]:
    """Per-iteration rows for (tag, corrupted, clean) variants.

    Each variant runs, per (n, m), the configured algorithms on the
    ``<tag>:corrupted`` cell and then the mean-statistic baseline alone on
    the ``<tag>:clean`` reference cell.
    """
    cells: list[TrialCell] = []
    algos: list[tuple[Algorithm, ...]] = []
    for tag, corrupted, clean in variants:
        for n, m in _pair_dims(cfg):
            cells.append(TrialCell(f"{tag}:corrupted", n, m, corrupted))
            algos.append(cfg.algorithms)
            cells.append(TrialCell(f"{tag}:clean", n, m, clean))
            algos.append((Algorithm.MEAN_TWF,))
    _, iter_rows = _run(cfg, cells, algos, want_trace=True)
    return iter_rows


def single(cfg: ExperimentConfig) -> list[ResultRow]:
    """One cell per (n, m) pair with the first s/eta/w values."""
    return _sweep(cfg, "single", cfg.s_values[:1], cfg.eta_values[:1])


def phase_grid(cfg: ExperimentConfig) -> list[ResultRow]:
    """Success counts over the (n, m/n) grid, noise-free by default."""
    return _sweep(cfg, "phase_grid", cfg.s_values[:1], cfg.eta_values[:1])


def outlier_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    """Success rates over the s grid crossed with eta levels."""
    return _sweep(cfg, "outlier_sweep", cfg.s_values, cfg.eta_values)


def noise_curve(cfg: ExperimentConfig) -> list[IterationRow]:
    """Per-iteration error under dense noise, with and without outliers.

    For each w level: the configured algorithms run on noise plus
    constant-magnitude outliers (value = ||w||_2, support Bernoulli(s)),
    and the mean-statistic baseline additionally runs on the dense noise
    alone as the reference curve.
    """
    return _reference_curves(
        cfg,
        [
            (
                f"noise_curve:w={w:g}",
                CorruptionSpec(
                    outlier_fraction=cfg.s_values[0],
                    outlier_model=OutlierModel.NOISE_NORM,
                    w_max_rel=w,
                ),
                CorruptionSpec(w_max_rel=w),
            )
            for w in cfg.w_values
        ],
    )


def poisson_experiment(cfg: ExperimentConfig) -> list[IterationRow]:
    """Per-iteration error under Poisson counts, with and without outliers."""
    corrupted = CorruptionSpec(
        outlier_fraction=cfg.s_values[0],
        outlier_model=OutlierModel.INTEGER_UNIFORM,
        poisson=True,
    )
    return _reference_curves(cfg, [("poisson", corrupted, CorruptionSpec(poisson=True))])


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


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_algos(text: str) -> tuple[Algorithm, ...]:
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    try:
        return tuple(Algorithm(name) for name in names)
    except ValueError as exc:
        raise InvalidInputError(
            f"unknown algorithm in {text!r}; choose from "
            + ", ".join(a.value for a in Algorithm)
        ) from exc


_DEFAULTS = {
    "single": dict(n="64", m_over_n="6", trials=1, algos="median-twf", s="0", eta="0", w="0"),
    "phase-grid": dict(
        n="64,128", m_over_n="2,3,4,5,6", trials=20,
        algos="median-twf,median-rwf,twf,rwf", s="0", eta="0", w="0",
    ),
    "outlier-sweep": dict(
        n="64", m_over_n="8", trials=100,
        algos="median-twf,median-rwf,twf,trimean-twf",
        s="0.05,0.1,0.15,0.2", eta="1", w="0",
    ),
    "noise-curve": dict(
        n="64", m_over_n="8", trials=1,
        algos="median-twf,median-rwf,twf", s="0.1", eta="0", w="0.01,0.001",
    ),
    "poisson": dict(
        n="64", m_over_n="8", trials=1,
        algos="median-twf,median-rwf,twf", s="0.1", eta="0", w="0",
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-phase",
        description="Phase-retrieval experiments with median-truncated gradient descent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, d in _DEFAULTS.items():
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--n", default=d["n"], help="comma list of signal dimensions")
        sp.add_argument("--m", default=None, help="comma list of measurement counts")
        sp.add_argument(
            "--m-over-n", default=d["m_over_n"], help="comma list of m/n ratios"
        )
        sp.add_argument("--trials", type=int, default=d["trials"])
        sp.add_argument(
            "--algos", "--algo", dest="algos", default=d["algos"],
            help="comma list: " + ", ".join(a.value for a in Algorithm),
        )
        sp.add_argument("--s", default=d["s"], help="comma list of outlier fractions")
        sp.add_argument(
            "--eta-max-rel", default=d["eta"],
            help="comma list of outlier amplitudes in units of the signal power",
        )
        sp.add_argument(
            "--w-max-rel", default=d["w"],
            help="comma list of dense-noise amplitudes in units of the signal power",
        )
        sp.add_argument("--seed", type=int, default=0, help="master seed")
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--out", default=f"{name}.csv", help="output CSV path")
        sp.add_argument(
            "--fixed-T", action=argparse.BooleanOptionalAction, default=True,
            help="run the full iteration budget (default); --no-fixed-T stops early",
        )
        sp.add_argument("--max-iters", type=int, default=500, help="iteration budget T")
        sp.add_argument("--tol", type=float, default=1e-8, help="success tolerance")
        sp.add_argument(
            "--timing", action="store_true",
            help="record wall time per trial (makes output files nondeterministic)",
        )
    return parser


def _config_from_args(ns: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        experiment=ns.command.replace("-", "_"),
        n_values=_parse_int_list(ns.n),
        m_values=_parse_int_list(ns.m) if ns.m else None,
        m_over_n=_parse_float_list(ns.m_over_n) if ns.m_over_n else None,
        trials=ns.trials,
        algorithms=_parse_algos(ns.algos),
        s_values=_parse_float_list(ns.s),
        eta_values=_parse_float_list(ns.eta_max_rel),
        w_values=_parse_float_list(ns.w_max_rel),
        master_seed=ns.seed,
        threads=ns.threads,
        out=ns.out,
        fixed_T=ns.fixed_T,
        max_iters=ns.max_iters,
        tol=ns.tol,
        timing=ns.timing,
    )


def cli_main(argv: list[str] | None = None) -> int:
    """Entry point; returns 0 on success, 2 on config errors, 1 otherwise."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(ns)
    except (InvalidInputError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    # Built per call so rebound module attributes (perfbench's tracer wraps
    # the writers) are the ones that run.
    experiments = {
        "single": (single, write_result_csv),
        "phase_grid": (phase_grid, write_result_csv),
        "outlier_sweep": (outlier_sweep, write_result_csv),
        "noise_curve": (noise_curve, write_iteration_csv),
        "poisson": (poisson_experiment, write_iteration_csv),
    }
    run, write = experiments[cfg.experiment]
    try:
        rows = run(cfg)
        write(rows, cfg.out)
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} rows to {cfg.out}")
    return 0


def main() -> None:
    raise SystemExit(cli_main())
