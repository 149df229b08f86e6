"""The benchmark's workloads: fixed CLI grids, one round each.

A round is one pass over a workload's commands.  Every round runs the same
grid with a fresh master seed, so a run of any length attempts whole rounds
of identical operations and the share of failed trials never changes.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_ITERS = 500  # the CLI's default iteration budget T
TOL = 1e-8       # the CLI's default success tolerance


@dataclass(frozen=True)
class Command:
    """One ``robust-phase`` invocation; its grid is also what checks expect."""

    experiment: str  # CLI subcommand
    n: int
    m_over_n: tuple[int, ...]
    algos: tuple[str, ...]
    trials: int
    s: tuple[float, ...] = (0.0,)
    eta: tuple[float, ...] = (0.0,)
    fixed_T: bool = True
    threads: int = 1
    known_fault: bool = False  # every trial fails today; see README

    @property
    def m_values(self) -> tuple[int, ...]:
        return tuple(r * self.n for r in self.m_over_n)

    @property
    def per_iteration(self) -> bool:
        """Whether the command writes one row per iteration, not per trial."""
        return self.experiment == "poisson"

    @property
    def cells(self) -> list[tuple[str, str]]:
        """(experiment tag, algorithm) pairs the output must hold, in order."""
        if self.experiment == "poisson":
            return [("poisson:corrupted", a) for a in self.algos] + [("poisson:clean", "twf")]
        tag = self.experiment.replace("-", "_")
        return [(tag, a) for a in self.algos]

    @property
    def trial_count(self) -> int:
        cells_per_grid = len(self.m_values) * len(self.s) * len(self.eta)
        return cells_per_grid * len(self.cells) * self.trials

    def argv(self, seed: int, out: str, threads: int | None = None) -> list[str]:
        def join(values) -> str:
            return ",".join(f"{v:g}" for v in values)

        return [
            self.experiment,
            "--n", str(self.n),
            "--m-over-n", join(self.m_over_n),
            "--algos", ",".join(self.algos),
            "--trials", str(self.trials),
            "--s", join(self.s),
            "--eta-max-rel", join(self.eta),
            "--w-max-rel", "0",
            "--fixed-T" if self.fixed_T else "--no-fixed-T",
            "--max-iters", str(MAX_ITERS),
            "--tol", f"{TOL:g}",
            "--threads", str(self.threads if threads is None else threads),
            "--seed", str(seed),
            "--out", out,
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-n64",
            (
                Command(
                    "outlier-sweep", 64, (8,),
                    ("median-twf", "median-rwf", "twf", "trimean-twf"),
                    trials=2, s=(0.05, 0.1, 0.15, 0.2), eta=(1.0,),
                ),
                # Mean-initialised baselines at huge outliers: the known fault.
                Command(
                    "outlier-sweep", 64, (8,), ("twf", "rwf"),
                    trials=1, s=(0.1,), eta=(1e200,), known_fault=True,
                ),
            ),
        ),
        Workload(
            "grid-n512",
            (
                Command(
                    "phase-grid", 512, (4, 8),
                    ("median-twf", "median-rwf", "twf", "rwf"),
                    trials=1, fixed_T=False,
                ),
            ),
        ),
        Workload(
            "poisson-t2",
            (
                Command(
                    "poisson", 128, (8,), ("median-twf", "median-rwf", "twf"),
                    trials=4, s=(0.1,), threads=2,
                ),
            ),
        ),
    )
}


def round_seed(seed: int, index: int) -> int:
    """Master seed of round ``index`` of a run started with ``--seed seed``."""
    return seed * 100_003 + index
