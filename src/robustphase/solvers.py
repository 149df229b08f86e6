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

import numpy as np

from .errors import InvalidInputError, _parse_choice
from .metrics import dist, relative_error
from .model import TAG_INIT, ProblemInstance, SensingEnsemble, derive_seed
from .quantile import sample_median
from .spectral import InitResult, mean_spectral_init, median_spectral_init

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
    "rc_probe",
]

_GRADIENT_FLOOR = 1e-14


class Algorithm(str, Enum):
    """Solver variants; values double as the CLI spellings."""

    MEDIAN_TWF = "median-twf"
    MEDIAN_RWF = "median-rwf"
    MEAN_TWF = "twf"
    PLAIN_RWF = "rwf"
    TRIMEAN_TWF = "trimean-twf"

    @property
    def is_twf_family(self) -> bool:
        return self in (Algorithm.MEDIAN_TWF, Algorithm.MEAN_TWF, Algorithm.TRIMEAN_TWF)

    @property
    def uses_median_init(self) -> bool:
        return self in (
            Algorithm.MEDIAN_TWF,
            Algorithm.MEDIAN_RWF,
            Algorithm.TRIMEAN_TWF,
        )


@dataclass(frozen=True)
class SolverConfig:
    """Algorithm choice plus every tunable the iteration reads.

    The step size is fixed at 0.4 for the intensity (TWF) family and 0.8
    for the amplitude (RWF) family.  ``fixed_iterations`` disables early
    stopping so traces always reach ``max_iters``, which the experiment
    harness uses for figure-style convergence curves.
    """

    algorithm: Algorithm
    alpha_l: float = 0.3
    alpha_u: float = 5.0
    alpha_y: float = 3.0
    alpha_h: float = 12.0
    alpha_h_prime: float = 5.0
    max_iters: int = 500
    success_tol: float = 1e-8
    fixed_iterations: bool = False
    known_s: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithm", _parse_choice(Algorithm, self.algorithm))
        if not 0.0 < self.alpha_l <= self.alpha_u:
            raise InvalidInputError(
                f"need 0 < alpha_l <= alpha_u, got ({self.alpha_l}, {self.alpha_u})"
            )
        if self.alpha_h <= 0.0 or self.alpha_h_prime <= 0.0 or self.alpha_y <= 0.0:
            raise InvalidInputError("truncation thresholds must be positive")
        if self.max_iters < 1:
            raise InvalidInputError(f"iteration budget must be >= 1, got {self.max_iters}")
        if self.success_tol <= 0.0:
            raise InvalidInputError(f"success tolerance must be positive, got {self.success_tol}")
        if self.known_s is not None and not 0.0 <= self.known_s < 0.5:
            raise InvalidInputError(f"known_s must lie in [0, 0.5), got {self.known_s}")
        if self.algorithm is Algorithm.TRIMEAN_TWF and self.known_s is None:
            raise InvalidInputError("trimean-twf requires known_s")

    @property
    def step_size(self) -> float:
        return 0.4 if self.algorithm.is_twf_family else 0.8


@dataclass(frozen=True, eq=False)
class IterateTrace:
    """Per-iterate history of a solver run.

    Arrays are aligned: entry t holds the relative error of z_t together
    with the truncation-set size, screening statistic (K_t, M_t, or the
    mean/trimmed-mean stand-in; reported but unused for plain RWF), and
    gradient norm evaluated at z_t.  ``converged_at`` is the first iterate
    whose error reached the success tolerance, whether or not the run
    stopped there.
    """

    algorithm: Algorithm
    errors: np.ndarray
    kept: np.ndarray
    median_stat: np.ndarray
    gradient_norms: np.ndarray
    final_z: np.ndarray
    converged_at: int | None
    degenerate: bool = False

    @property
    def iterations(self) -> int:
        return len(self.errors) - 1

    @property
    def final_error(self) -> float:
        return float(self.errors[-1])


def _gaussian_second_moment_below(t: float) -> float:
    # E[xi^2 1{|xi| < t}] for xi ~ N(0,1), in closed form.
    return math.erf(t / math.sqrt(2.0)) - t * math.sqrt(2.0 / math.pi) * math.exp(-t * t / 2.0)


def validate_twf_params(cfg: SolverConfig) -> tuple[float, float, bool]:
    """Check the intensity-family threshold condition.

    Computes, for xi ~ N(0,1) and the event
    B = {|xi| < sqrt(1.01) alpha_l or |xi| > sqrt(0.99) alpha_u},

        zeta1 = max(E[xi^2 1_B], E[1_B]),
        zeta2 = E[xi^2 1{|xi| > 0.248 alpha_h}],

    via erf closed forms, and reports whether

        2 (zeta1 + zeta2) + sqrt(8/pi) / alpha_h < 1.99   and   alpha_y >= 3.

    Report-only: an invalid combination is returned, never raised.
    """
    a = math.sqrt(1.01) * cfg.alpha_l
    b = math.sqrt(0.99) * cfg.alpha_u
    if a >= b:
        # The two half-events overlap, so B is almost sure.
        zeta1 = 1.0
    else:
        moment = _gaussian_second_moment_below(a) + (
            1.0 - _gaussian_second_moment_below(b)
        )
        prob = math.erf(a / math.sqrt(2.0)) + (1.0 - math.erf(b / math.sqrt(2.0)))
        zeta1 = max(moment, prob)
    c = 0.248 * cfg.alpha_h
    zeta2 = 1.0 - _gaussian_second_moment_below(c)
    holds = (
        2.0 * (zeta1 + zeta2) + math.sqrt(8.0 / math.pi) / cfg.alpha_h < 1.99
        and cfg.alpha_y >= 3.0
    )
    return zeta1, zeta2, holds


def _check_iterate(ensemble: SensingEnsemble, y, z) -> tuple[np.ndarray, np.ndarray, float]:
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if y.shape != (ensemble.m,) or z.shape != (ensemble.n,):
        raise InvalidInputError(
            f"shape mismatch: y {y.shape}, z {z.shape} vs ensemble "
            f"({ensemble.m}, {ensemble.n})"
        )
    z_norm = math.sqrt(z @ z)  # bitwise np.linalg.norm(z) for a 1-D float array
    if z_norm == 0.0:
        raise InvalidInputError("iterate is zero; truncation events are undefined")
    return y, z, z_norm


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
        n_untrimmed = m - math.ceil(cfg.known_s * m)
        if n_untrimmed <= 0:
            return np.zeros(ensemble.n), 0, 0.0
        keep = np.ones(m, dtype=bool)
        keep[np.argsort(resid, kind="stable")[n_untrimmed:]] = False
        stat = float(resid[keep].sum() / n_untrimmed)
    else:
        stat = sample_median(resid)

    if loss == "intensity":
        abs_az = np.abs(az)
        passed = (abs_az >= cfg.alpha_l * z_norm) & (abs_az <= cfg.alpha_u * z_norm)
        passed &= resid <= cfg.alpha_h * stat * abs_az / z_norm
        keep = passed if keep is None else keep & passed
        coeff = np.divide(misfit, az, out=np.zeros(m), where=keep)
    else:
        signed_sqrt_y = np.where(az >= 0.0, sqrt_y, -sqrt_y)  # sign(0) = +1
        if statistic == "none":
            return rows.T @ (az - signed_sqrt_y) / m, m, stat
        keep = resid <= cfg.alpha_h_prime * stat
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

    Discards the ceil(known_s * m) largest residuals outright, screens the
    remainder with the usual two events around the trimmed-mean statistic.
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


def _gradient_fn(algorithm: Algorithm):
    # Built on each call rather than at import, so a rebound module
    # attribute (perfbench's tracer wraps these names) is what runs.
    return {
        Algorithm.MEDIAN_TWF: mtwf_gradient,
        Algorithm.MEDIAN_RWF: mrwf_gradient,
        Algorithm.MEAN_TWF: twf_gradient,
        Algorithm.PLAIN_RWF: rwf_gradient,
        Algorithm.TRIMEAN_TWF: trimean_twf_gradient,
    }[algorithm]


def _initialize(problem: ProblemInstance, cfg: SolverConfig) -> InitResult:
    seed = derive_seed(problem.master_seed, TAG_INIT)
    init_fn = median_spectral_init if cfg.algorithm.uses_median_init else mean_spectral_init
    return init_fn(
        problem.ensemble, problem.measurements.y, alpha_y=cfg.alpha_y, seed=seed
    )


def run_solver(problem: ProblemInstance, cfg: SolverConfig) -> IterateTrace:
    """Initialize and iterate one solver on one problem instance.

    Early stopping (on reaching ``success_tol`` or a vanishing gradient) is
    on by default and can be disabled via ``cfg.fixed_iterations``; either
    way the trace records every visited iterate, so its length is at most
    ``max_iters`` + 1.  A degenerate initialization (all-zero measurements)
    yields a one-row trace flagged degenerate instead of an exception.

    On fixed data one step is a deterministic function of the iterate, so
    once z_t equals an earlier z_s bit for bit, iterates s..t-1 repeat with
    period t - s until the budget runs out (none of them stopped the run
    early, so no later copy can).  The rest of the trace is then copied
    from that cycle instead of recomputed; the result is the same bytes.
    """
    init = _initialize(problem, cfg)
    x = problem.signal
    if init.degenerate:
        return IterateTrace(
            algorithm=cfg.algorithm,
            errors=np.array([relative_error(init.z0, x)]),
            kept=np.empty(0, dtype=np.int64),
            median_stat=np.empty(0),
            gradient_norms=np.empty(0),
            final_z=init.z0,
            converged_at=None,
            degenerate=True,
        )
    ensemble, y = problem.ensemble, problem.measurements.y
    mu = cfg.step_size
    z = init.z0
    errors: list[float] = []
    kept: list[int] = []
    stats: list[float] = []
    grad_norms: list[float] = []
    converged_at: int | None = None
    gradient_fn = _gradient_fn(cfg.algorithm)
    visited: dict[bytes, int] = {}  # iterate bytes -> first t; in t order
    t = 0
    while True:
        cycle_start = visited.setdefault(z.tobytes(), t)
        if cycle_start != t:
            break
        err = relative_error(z, x)
        gradient, n_kept, stat = gradient_fn(ensemble, y, z, cfg)
        g_norm = math.sqrt(gradient @ gradient)  # bitwise np.linalg.norm
        errors.append(err)
        kept.append(n_kept)
        stats.append(stat)
        grad_norms.append(g_norm)
        if converged_at is None and err <= cfg.success_tol:
            converged_at = t
        if t == cfg.max_iters:
            break
        if not cfg.fixed_iterations and (
            converged_at is not None or g_norm <= _GRADIENT_FLOOR
        ):
            break
        z = z - mu * gradient
        t += 1
    order = slice(None)
    if cycle_start != t:  # z_t == z_s: fill t..max_iters from the cycle s..t-1
        order = np.arange(cfg.max_iters + 1)
        order[t:] = cycle_start + order[: cfg.max_iters + 1 - t] % (t - cycle_start)
        z = np.frombuffer(list(visited)[order[-1]], dtype=z.dtype).copy()
    return IterateTrace(
        algorithm=cfg.algorithm,
        errors=np.array(errors)[order],
        kept=np.array(kept, dtype=np.int64)[order],
        median_stat=np.array(stats)[order],
        gradient_norms=np.array(grad_norms)[order],
        final_z=z,
        converged_at=converged_at,
    )


def rc_probe(
    ensemble: SensingEnsemble, y, z, x, cfg: SolverConfig
) -> tuple[float, float, float]:
    """Curvature probe at z against the planted signal x.

    Returns (<g, z - x*>, ||g||, dist(z, x)) where x* is the global-sign
    alignment of x closest to z.  The caller plugs these into the
    regularity inequality <g, z - x*> >= (mu/2)||g||^2 + (lam/2) dist^2 for
    candidate constants.
    """
    gradient, _, _ = _gradient_fn(cfg.algorithm)(ensemble, y, z, cfg)
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    aligned = x if np.linalg.norm(z - x) <= np.linalg.norm(z + x) else -x
    inner = float(gradient @ (z - aligned))
    return inner, float(np.linalg.norm(gradient)), dist(z, x)
