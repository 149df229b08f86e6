"""Spectral initialization from (possibly corrupted) intensity measurements.

The initial iterate is z0 = lambda0 * v where lambda0 estimates the signal
norm and v is the leading eigenvector, computed matrix-free by power
iteration, of the truncated weighted covariance

    Y = (1/m) sum_i  y_i a_i a_i^T 1{|y_i| <= alpha_y^2 lambda0^2}.

The robust scale estimate divides the median of y by 0.455, the median of
the squared-Gaussian intensity distribution to three decimals; the mean
variant used by the baselines divides by its mean (which is 1) and is
fragile under outliers by design.

Arbitrary outliers can push some y_i negative, making Y indefinite; the
mask deliberately thresholds |y_i|, and the power iteration tracks the
eigenvalue largest in magnitude, returning its direction even when the
eigenvalue is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateMeasurements, InvalidInputError, NumericalFailure
from .model import TAG_INIT, SensingEnsemble, derive_seed
from .quantile import sample_median

__all__ = [
    "MEDIAN_INTENSITY_CALIBRATION",
    "InitResult",
    "scale_estimate",
    "leading_eigenvector",
    "median_spectral_init",
    "mean_spectral_init",
]

# Median of the chi-square(1) law followed by clean intensities at unit
# signal norm, rounded to the three decimals the algorithm is defined with.
MEDIAN_INTENSITY_CALIBRATION = 0.455


@dataclass(frozen=True, eq=False)
class InitResult:
    """Outcome of a spectral initialization."""

    z0: np.ndarray
    lambda0: float
    truncated_count: int  # samples kept by the mask
    power_iters: int
    converged: bool
    degenerate: bool = False


def scale_estimate(y) -> float:
    """Robust norm estimate sqrt(med(y) / 0.455).

    Raises:
        DegenerateMeasurements: the median is negative, which only extreme
            negative outliers can cause; there is no real square root.
    """
    med = sample_median(y)
    if med < 0.0:
        raise DegenerateMeasurements(f"median of measurements is negative ({med})")
    return math.sqrt(med / MEDIAN_INTENSITY_CALIBRATION)


def _surrogate_weights(y: np.ndarray, alpha_y: float, lambda0: float) -> tuple[np.ndarray, int]:
    # (mask * y, number of kept samples) with mask_i = 1{|y_i| <= alpha_y^2 lambda0^2}.
    mask = np.abs(y) <= (alpha_y * lambda0) ** 2
    return np.where(mask, y, 0.0), int(np.count_nonzero(mask))


def _weighted_apply(ensemble: SensingEnsemble, weights: np.ndarray, v: np.ndarray) -> np.ndarray:
    return ensemble.rows.T @ (weights * (ensemble.rows @ v)) / ensemble.m


def leading_eigenvector(
    apply: Callable[[np.ndarray], np.ndarray],
    n: int,
    tol: float = 1e-6,
    max_iters: int = 200,
    seed: int = 0,
) -> tuple[np.ndarray, int, bool]:
    """Dominant eigenvector direction of a symmetric operator by power iteration.

    Convergence is declared when the angle between successive iterates drops
    to ``tol``; the absolute inner product is used, so eigenvalues that are
    negative (sign-flipping iterates) converge too.  If the budget runs out
    the best iterate is returned flagged non-converged rather than raising:
    downstream theory only needs an approximate direction.

    Raises:
        NumericalFailure: the operator's output has an infinite or NaN norm,
            so no direction can be recovered from it.

    Returns:
        (unit vector, iterations used, converged flag).
    """
    if tol <= 0.0:
        raise InvalidInputError(f"tolerance must be positive, got {tol}")
    if n < 1 or max_iters < 1:
        raise InvalidInputError("n and max_iters must be >= 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    iters = 0
    for iters in range(1, max_iters + 1):
        w = apply(v)
        norm_w = np.linalg.norm(w)
        if not math.isfinite(norm_w):
            raise NumericalFailure(f"power iteration {iters}: operator output norm is {norm_w}")
        if norm_w == 0.0:
            # Operator annihilates the iterate; every direction is equally
            # good, so report the current one as converged.
            return v, iters, True
        v_next = w / norm_w
        angle = math.acos(min(1.0, abs(float(v @ v_next))))
        v = v_next
        if angle <= tol:
            return v, iters, True
    return v, iters, False


def _mean_scale(y: np.ndarray) -> float:
    # sqrt(mean(y)): the scale estimate of the non-robust baselines.
    mean = float(y.mean())
    if mean < 0.0:
        raise DegenerateMeasurements(f"mean of measurements is negative ({mean})")
    return math.sqrt(mean)


def _spectral_init(
    ensemble: SensingEnsemble,
    y,
    estimate_lambda0: Callable[[np.ndarray], float],
    alpha_y: float,
    tol: float,
    max_iters: int,
    seed: int | None,
) -> InitResult:
    if alpha_y <= 0.0:
        raise InvalidInputError(f"alpha_y must be positive, got {alpha_y}")
    y = np.asarray(y, dtype=float)
    if y.shape != (ensemble.m,) or not np.isfinite(y).all():
        raise InvalidInputError(
            f"measurements must be a finite 1-D array of length m={ensemble.m}, "
            f"got shape {y.shape}"
        )
    lambda0 = estimate_lambda0(y)
    weights, kept = _surrogate_weights(y, alpha_y, lambda0)
    if lambda0 == 0.0:
        # No scale information at all (e.g. all-zero y): flag rather than
        # fail so sweeps keep going.
        return InitResult(
            z0=np.zeros(ensemble.n),
            lambda0=0.0,
            truncated_count=kept,
            power_iters=0,
            converged=False,
            degenerate=True,
        )
    if seed is None:
        seed = derive_seed(ensemble.seed, TAG_INIT)

    direction, iters, converged = leading_eigenvector(
        lambda v: _weighted_apply(ensemble, weights, v),
        ensemble.n,
        tol=tol,
        max_iters=max_iters,
        seed=seed,
    )
    return InitResult(
        z0=lambda0 * direction,
        lambda0=lambda0,
        truncated_count=kept,
        power_iters=iters,
        converged=converged,
    )


def median_spectral_init(
    ensemble: SensingEnsemble,
    y,
    alpha_y: float = 3.0,
    tol: float = 1e-6,
    max_iters: int = 200,
    seed: int | None = None,
) -> InitResult:
    """Median-truncated spectral initialization.

    The returned iterate satisfies ||z0|| = lambda0; its direction carries
    an arbitrary sign, which downstream distance computations absorb.
    """
    return _spectral_init(ensemble, y, scale_estimate, alpha_y, tol, max_iters, seed)


def mean_spectral_init(
    ensemble: SensingEnsemble,
    y,
    alpha_y: float = 3.0,
    tol: float = 1e-6,
    max_iters: int = 200,
    seed: int | None = None,
) -> InitResult:
    """Mean-based initialization used by the non-robust baselines.

    lambda0 = sqrt(mean(y)); a single enormous outlier inflates it without
    bound, which is exactly the fragility the robust variant avoids.
    """
    return _spectral_init(ensemble, y, _mean_scale, alpha_y, tol, max_iters, seed)
