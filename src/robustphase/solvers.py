"""Gradient-descent solvers with median, mean, and trimmed-mean truncation.

Five variants share one iteration skeleton z <- z - mu * g(z), differing in
the loss and in how samples are screened before entering the gradient:

* median-TWF: intensity loss; a sample enters iff both
    E1: alpha_l ||z|| <= |a_i.z| <= alpha_u ||z||, and
    E2: |y_i - (a_i.z)^2| <= alpha_h * K_t * |a_i.z| / ||z||,
  where K_t is the median of the absolute intensity residuals.  Gradient
  term ((a_i.z)^2 - y_i) / (a_i.z) * a_i, averaged over kept samples.
* median-RWF: amplitude loss; keeps samples with
    |sqrt(y_i) - |a_i.z|| <= alpha_h' * M_t,
  M_t the median amplitude residual; term (a_i.z - sqrt(y_i) sign(a_i.z)) a_i.
* mean-TWF and trimean-TWF: as median-TWF with K_t replaced by the mean,
  respectively the mean after discarding the ceil(s*m) largest residuals.
* plain RWF: the amplitude gradient summed over every sample, no screening.

One kernel, ``_screened_gradient(loss, statistic)``, computes all five; the
public ``*_gradient`` functions name its (loss, statistic) pairs.

The mean-statistic and untruncated baselines are deliberate stand-ins for
the published non-robust algorithms: close enough to reproduce their
qualitative behavior (success without corruption, collapse under it), not
faithful reimplementations.

The paper's local claim, that near x the median-screened step contracts
towards x even under adversarial outliers, is tested by stepping these
kernels from a start near x (``tests/test_adversarial.py``).

All threshold comparisons are inclusive, so ties keep the sample; with a
perfect iterate every residual ties the zero median and the gradient
vanishes identically.  Division by a_i.z never needs an epsilon: the E1
lower bound already keeps |a_i.z| >= alpha_l ||z|| > 0, and the RWF family
defines sign(0) = +1 for the measure-zero case.  Negative measurements
(possible under arbitrary outliers) enter the RWF family as sqrt(max(y, 0))
and are then screened like any other corrupted sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import InvalidInputError, _parse_choice, _require_count, _require_fraction
from .errors import _require_positive, _vector
from .metrics import _norm, relative_error
from .model import TAG_INIT, ProblemInstance, SensingEnsemble, derive_seed
from .quantile import _rank, sample_median
from .spectral import _ALPHA_Y, InitResult, mean_spectral_init, median_spectral_init

__all__ = [
    "Algorithm",
    "SolverConfig",
    "IterateTrace",
    "validate_twf_params",
    "mtwf_gradient",
    "mrwf_gradient",
    "twf_gradient",
    "rwf_gradient",
    "trimean_twf_gradient",
    "run_solver",
]

# A step is stationary when ||g|| <= _STATIONARY ||z||.  A power of two, so
# scaling the problem by a power of two leaves every comparison bitwise the same.
_STATIONARY = 2.0**-50
# Screening thresholds alpha_l, alpha_u, alpha_h, alpha_h', fixed like mu.
_ALPHA_L, _ALPHA_U, _ALPHA_H, _ALPHA_H_PRIME = 0.3, 5.0, 12.0, 5.0
_ERROR_BLOCK = 64  # a fixed-budget run computes its errors this many iterates at a time


class Algorithm(str, Enum):
    """Solver variants; values double as the CLI spellings.

    A member's position is its seed code in every trial seed; never reorder.
    """

    MEDIAN_TWF = "median-twf"
    MEDIAN_RWF = "median-rwf"
    MEAN_TWF = "twf"
    PLAIN_RWF = "rwf"
    TRIMEAN_TWF = "trimean-twf"


@dataclass(frozen=True)
class SolverConfig:
    """What a run chooses: the algorithm, its budget and its stopping rule.

    The step size (0.4 for the intensity (TWF) family, 0.8 for the
    amplitude (RWF) family) and the screening thresholds (alpha_l = 0.3,
    alpha_u = 5, alpha_h = 12, alpha_h' = 5; the init's alpha_y = 3) are
    fixed, not configured.  ``fixed_iterations`` disables early stopping
    so traces always reach ``max_iters``, which the experiment harness
    uses for figure-style convergence curves; a stationary iterate
    (``||g|| <= 2^-50 ||z||``) then holds instead of stopping the run.
    """

    algorithm: Algorithm
    max_iters: int = 500
    success_tol: float = 1e-8
    fixed_iterations: bool = False
    known_s: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithm", _parse_choice(Algorithm, self.algorithm))
        _require_count(self.max_iters, "iteration budget")
        _require_positive(self.success_tol, "success tolerance")
        if self.known_s is not None:
            _require_fraction(self.known_s, "known_s")
        if self.algorithm is Algorithm.TRIMEAN_TWF and self.known_s is None:
            raise InvalidInputError("trimean-twf requires known_s")

    @property
    def step_size(self) -> float:
        return _recipe(self.algorithm)[2]


@dataclass(frozen=True, eq=False)
class IterateTrace:
    """Per-iterate history of a solver run.

    Arrays are aligned: entry t holds the relative error of z_t together
    with the truncation-set size and screening statistic (K_t, M_t, or the
    mean/trimmed-mean stand-in; reported but unused for plain RWF)
    evaluated at z_t.  In a fixed-iteration run the rows after a held
    (stationary) iterate repeat its row, and ``final_z`` is that iterate.
    ``converged_at`` is the first iterate whose error reached the success
    tolerance, whether or not the run stopped there.
    """

    errors: np.ndarray
    kept: np.ndarray
    median_stat: np.ndarray
    final_z: np.ndarray
    converged_at: int | None

    @property
    def iterations(self) -> int:
        return len(self.errors) - 1

    @property
    def final_error(self) -> float:
        return float(self.errors[-1])


def _gaussian_second_moment_below(t: float) -> float:
    # E[xi^2 1{|xi| < t}] for xi ~ N(0,1), in closed form.
    return math.erf(t / math.sqrt(2.0)) - t * math.sqrt(2.0 / math.pi) * math.exp(-t * t / 2.0)


def validate_twf_params() -> tuple[float, float, bool]:
    """Check the intensity-family threshold condition at the fixed thresholds
    the solvers and the init use: ``_ALPHA_L``, ``_ALPHA_U``, ``_ALPHA_H`` and
    ``spectral._ALPHA_Y``.  Nothing else can set them, so it takes no arguments.

    Computes, for xi ~ N(0,1) and the event
    B = {|xi| < sqrt(1.01) alpha_l or |xi| > sqrt(0.99) alpha_u},

        zeta1 = max(E[xi^2 1_B], E[1_B]),
        zeta2 = E[xi^2 1{|xi| > 0.248 alpha_h}],

    via erf closed forms, and reports whether

        2 (zeta1 + zeta2) + sqrt(8/pi) / alpha_h < 1.99   and   alpha_y >= 3.

    Report-only: a failed condition is returned, never raised.
    """
    a = math.sqrt(1.01) * _ALPHA_L
    b = math.sqrt(0.99) * _ALPHA_U
    moment = _gaussian_second_moment_below(a) + (1.0 - _gaussian_second_moment_below(b))
    prob = math.erf(a / math.sqrt(2.0)) + (1.0 - math.erf(b / math.sqrt(2.0)))
    zeta1 = max(moment, prob)
    zeta2 = 1.0 - _gaussian_second_moment_below(0.248 * _ALPHA_H)
    holds = 2.0 * (zeta1 + zeta2) + math.sqrt(8.0 / math.pi) / _ALPHA_H < 1.99 and _ALPHA_Y >= 3.0
    return zeta1, zeta2, holds


def _check_iterate(ensemble: SensingEnsemble, y, z) -> tuple[np.ndarray, np.ndarray, float]:
    y, z = _vector(y, "measurements", ensemble.m), _vector(z, "iterate", ensemble.n)
    z_norm = _norm(z)
    if z_norm == 0.0:
        raise InvalidInputError("iterate is zero; truncation events are undefined")
    return y, z, z_norm


def _smallest(r: np.ndarray, k: int) -> np.ndarray:
    """Mask of the k smallest entries of r, NaN ranked last and ties taken in
    index order: the first k of a stable argsort, found by one partition."""
    cut = np.partition(r, k - 1)[k - 1]
    below, at = (r < cut, r == cut) if cut == cut else (r == r, r != r)
    below[np.flatnonzero(at)[: k - np.count_nonzero(below)]] = True
    return below


def _screened_gradient(
    ensemble: SensingEnsemble,
    y,
    z,
    cfg: SolverConfig,
    loss: str,
    statistic: str,
) -> tuple[np.ndarray, int, float]:
    """The iteration every solver shares: (gradient, kept count, statistic).

    ``loss`` is "intensity" or "amplitude"; ``statistic`` is "median",
    "mean", "trimmed" or "none".  "none" screens nothing and reports the
    median residual.  ``A z`` is computed once per call, and the screening
    events combine into one boolean mask that selects the nonzero entries
    of the coefficient vector.
    """
    y, z, z_norm = _check_iterate(ensemble, y, z)
    rows = ensemble.rows
    m = ensemble.m
    az = rows @ z
    if loss == "intensity":
        misfit = az**2 - y  # exactly -(y - az^2), so |misfit| is the residual
        resid = np.abs(misfit)
    else:
        sqrt_y = np.sqrt(np.maximum(y, 0.0))
        resid = np.abs(sqrt_y - np.abs(az))

    keep = None  # None: the statistic itself discards no sample
    if statistic == "mean":
        stat = float(resid.sum() / m)  # bitwise resid.mean()
    elif statistic == "trimmed":  # discard the ceil(s*m) largest residuals first
        if cfg.known_s is None:
            raise InvalidInputError("trimean-twf requires known_s")
        n_untrimmed = m - _rank(cfg.known_s, m)
        if n_untrimmed <= 0:
            return np.zeros(ensemble.n), 0, 0.0
        keep = _smallest(resid, n_untrimmed)
        stat = float(resid[keep].sum() / n_untrimmed)
    else:
        stat = sample_median(resid)
    if not math.isfinite(stat):  # a NaN or inf statistic makes every screen meaningless
        raise InvalidInputError("residuals contain NaN or infinite entries")

    if loss == "intensity":
        abs_az = np.abs(az)
        passed = (abs_az >= _ALPHA_L * z_norm) & (abs_az <= _ALPHA_U * z_norm)
        passed &= resid <= _ALPHA_H * stat * (abs_az / z_norm)
        keep = passed if keep is None else keep & passed
        coeff = np.divide(misfit, az, out=np.zeros(m), where=keep)
    else:
        signed_sqrt_y = np.where(az >= 0.0, sqrt_y, -sqrt_y)  # sign(0) = +1
        if statistic == "none":
            return rows.T @ (az - signed_sqrt_y) / m, m, stat
        keep = resid <= _ALPHA_H_PRIME * stat
        coeff = np.subtract(az, signed_sqrt_y, out=np.zeros(m), where=keep)
    return rows.T @ coeff / m, np.count_nonzero(keep), stat


def mtwf_gradient(
    ensemble: SensingEnsemble, y, z, cfg: SolverConfig
) -> tuple[np.ndarray, int, float]:
    """Median-truncated intensity gradient: (gradient, kept count, K_t)."""
    return _screened_gradient(ensemble, y, z, cfg, "intensity", "median")


def twf_gradient(
    ensemble: SensingEnsemble, y, z, cfg: SolverConfig
) -> tuple[np.ndarray, int, float]:
    """Mean-statistic baseline gradient: (gradient, kept count, mean residual)."""
    return _screened_gradient(ensemble, y, z, cfg, "intensity", "mean")


def trimean_twf_gradient(
    ensemble: SensingEnsemble, y, z, cfg: SolverConfig
) -> tuple[np.ndarray, int, float]:
    """Trimmed-mean gradient for a known outlier fraction.

    Discards the ceil(known_s * m) largest residuals outright, ranked by the
    rule ``sample_quantile`` uses, so float noise in known_s * m cannot drop
    one more; screens the remainder with the usual two events around the
    trimmed-mean statistic.  The kept set is that of a stable sort (ties go
    to the lower index), found by one partition.  NaN and inf residuals
    rank last and are trimmed first; one that survives the trim is refused.
    """
    return _screened_gradient(ensemble, y, z, cfg, "intensity", "trimmed")


def mrwf_gradient(
    ensemble: SensingEnsemble, y, z, cfg: SolverConfig
) -> tuple[np.ndarray, int, float]:
    """Median-truncated amplitude gradient: (gradient, kept count, M_t)."""
    return _screened_gradient(ensemble, y, z, cfg, "amplitude", "median")


def rwf_gradient(
    ensemble: SensingEnsemble, y, z, cfg: SolverConfig
) -> tuple[np.ndarray, int, float]:
    """Untruncated amplitude gradient over every sample: (gradient, m, M_t).

    M_t, the median amplitude residual, is reported but screens nothing.
    """
    return _screened_gradient(ensemble, y, z, cfg, "amplitude", "none")


def _recipe(algorithm: Algorithm) -> tuple[Callable, Callable, float]:
    """(gradient, init, step size) of an algorithm.

    The intensity family steps 0.4 and the amplitude family 0.8; the mean
    and untruncated baselines start from the mean init.
    """
    # Built on each call rather than at import, so a rebound module
    # attribute (perfbench's tracer wraps these names) is what runs.
    return {
        Algorithm.MEDIAN_TWF: (mtwf_gradient, median_spectral_init, 0.4),
        Algorithm.MEDIAN_RWF: (mrwf_gradient, median_spectral_init, 0.8),
        Algorithm.MEAN_TWF: (twf_gradient, mean_spectral_init, 0.4),
        Algorithm.PLAIN_RWF: (rwf_gradient, mean_spectral_init, 0.8),
        Algorithm.TRIMEAN_TWF: (trimean_twf_gradient, median_spectral_init, 0.4),
    }[algorithm]


def _initialize(problem: ProblemInstance, cfg: SolverConfig) -> InitResult:
    seed = derive_seed(problem.master_seed, TAG_INIT)  # the one init seed rule
    init_fn = _recipe(cfg.algorithm)[1]
    return init_fn(problem.ensemble, problem.measurements.y, seed=seed)


def run_solver(problem: ProblemInstance, cfg: SolverConfig) -> IterateTrace:
    """Initialize and iterate one solver on one problem instance.

    An iterate is stationary when its gradient has vanished to rounding
    level, ``||g|| <= 2^-50 ||z||``; its step would be zero in exact
    arithmetic.  With early stopping (the default) the run stops at the
    first iterate that reaches ``success_tol`` or is stationary.  With
    ``cfg.fixed_iterations`` no error stops it: a stationary iterate is
    held, and its row repeats up to ``max_iters``, so the trace always has
    ``max_iters`` + 1 rows and ``final_z`` is the held iterate.  No stop
    test then reads an error, so ``relative_error`` takes the iterates
    ``_ERROR_BLOCK`` at a time from one reused buffer.  Measurements too
    degenerate to initialize from (all-zero y, say) raise
    ``DegenerateMeasurements`` from the init.
    """
    x, ensemble, y = problem.signal, problem.ensemble, problem.measurements.y
    gradient_fn, _, mu = _recipe(cfg.algorithm)
    z = _initialize(problem, cfg).z0
    block = np.empty((_ERROR_BLOCK, x.size)) if cfg.fixed_iterations else None
    errors: list[float] = []
    kept: list[int] = []
    stats: list[float] = []
    for t in range(cfg.max_iters + 1):
        gradient, n_kept, stat = gradient_fn(ensemble, y, z, cfg)
        kept.append(n_kept)
        stats.append(stat)
        if cfg.fixed_iterations:  # errors come from one call per full block
            block[t % _ERROR_BLOCK] = z
            if t % _ERROR_BLOCK == _ERROR_BLOCK - 1:
                errors += relative_error(block, x).tolist()
        else:  # the stop test needs each error now
            errors.append(relative_error(z, x))
            if errors[-1] <= cfg.success_tol:
                break
        if t == cfg.max_iters or _norm(gradient) <= _STATIONARY * _norm(z):
            break
        z = z - mu * gradient
    if cfg.fixed_iterations:  # the partial block; a held iterate's row repeats to the budget
        errors += relative_error(block[: len(kept) % _ERROR_BLOCK], x).tolist()
        for column in (errors, kept, stats):
            column += column[-1:] * (cfg.max_iters + 1 - len(column))
    hits = np.flatnonzero(np.asarray(errors) <= cfg.success_tol)
    return IterateTrace(
        errors=np.array(errors),
        kept=np.array(kept, dtype=np.int64),
        median_stat=np.array(stats),
        final_z=z,
        converged_at=int(hits[0]) if len(hits) else None,
    )
