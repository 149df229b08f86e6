"""Spectral initialization from (possibly corrupted) intensity measurements.

The initial iterate is z0 = lambda0 * v where lambda0 estimates the signal
norm and v is the leading eigenvector, computed matrix-free by Lanczos, of
the truncated weighted covariance

    Y = (1/m) sum_i  y_i a_i a_i^T 1{|y_i| <= alpha_y^2 lambda0^2},

with alpha_y = 3 (``_ALPHA_Y``) fixed, like the solvers' thresholds.  The
robust scale estimate divides the median of y by 0.455, the median of the
squared-Gaussian intensity distribution to three decimals; the mean variant
used by the baselines divides by its mean (which is 1) and is fragile under
outliers by design.  An estimate that is negative or zero (all-zero y, say)
leaves nothing to screen against, so both raise ``DegenerateMeasurements``
before any eigenvector work.  The eigensolver's tolerance and budget are
fixed too (``_LANCZOS_TOL``, ``_LANCZOS_BUDGET``).

Arbitrary outliers can push some y_i negative, making Y indefinite; the
mask deliberately thresholds |y_i|, and the eigensolver tracks the
eigenvalue largest in magnitude, returning its direction even when the
eigenvalue is negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateMeasurements, NumericalFailure
from .errors import _require_count, _vector
from .metrics import _norm
from .model import SensingEnsemble, _rng
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
_ALPHA_Y = 3.0
_LANCZOS_TOL = 1e-6
_LANCZOS_BUDGET = 200


@dataclass(frozen=True, eq=False)
class InitResult:
    """Outcome of a spectral initialization."""

    z0: np.ndarray
    lambda0: float
    truncated_count: int  # samples kept by the mask
    power_iters: int  # operator applies made by the Lanczos eigensolver
    converged: bool


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


def _surrogate_weights(y: np.ndarray, lambda0: float) -> tuple[np.ndarray, int]:
    # (mask * y, number of kept samples) with mask_i = 1{|y_i| <= alpha_y^2 lambda0^2}.
    mask = np.abs(y) <= (_ALPHA_Y * lambda0) ** 2
    return np.where(mask, y, 0.0), int(np.count_nonzero(mask))


def _weighted_apply(ensemble: SensingEnsemble, weights: np.ndarray, v: np.ndarray) -> np.ndarray:
    return ensemble.rows.T @ (weights * (ensemble.rows @ v)) / ensemble.m


def leading_eigenvector(
    apply: Callable[[np.ndarray], np.ndarray], n: int, seed: int = 0
) -> tuple[np.ndarray, int, bool]:
    """Dominant eigenvector direction of a symmetric operator by Lanczos.

    Each new Krylov vector is orthogonalised twice against the whole stored
    basis, so the tridiagonal projection T stays exact to rounding.  Of T's
    Ritz pairs (theta_j, s_j) the one with theta_j largest in magnitude is
    tracked, so a dominant negative eigenvalue wins too.  Convergence is
    declared when its Ritz residual ``beta_k |s_kj|`` drops to
    ``1e-6 |theta_j|`` (``_LANCZOS_TOL``).  After ``min(200, n)`` operator
    applications (``_LANCZOS_BUDGET``) the current Ritz vector is returned
    flagged non-converged rather than raising: downstream theory only needs
    an approximate direction.

    Raises:
        NumericalFailure: the operator's output has an infinite or NaN norm,
            so no direction can be recovered from it.

    Returns:
        (unit vector, operator applications, converged flag).
    """
    _require_count(n, "n")
    v = _rng(seed).standard_normal(n)
    basis = np.empty((min(_LANCZOS_BUDGET, n), n))
    basis[0] = v / _norm(v)
    # T with its subdiagonal below the diagonal: eigh reads only the lower triangle.
    tri = np.zeros((len(basis), len(basis)))
    for k in range(len(basis)):
        w = apply(basis[k])
        norm_w = _norm(w)
        if not math.isfinite(norm_w):
            raise NumericalFailure(f"Lanczos step {k + 1}: operator output norm is {norm_w}")
        q = basis[: k + 1]
        tri[k, k] = basis[k] @ w
        for _ in range(2):
            w = w - q.T @ (q @ w)
        beta = _norm(w)
        theta, s = np.linalg.eigh(tri[: k + 1, : k + 1])
        j = int(np.argmax(np.abs(theta)))
        # A zero residual (an invariant subspace, or a zero operator) converges.
        converged = beta * abs(s[k, j]) <= _LANCZOS_TOL * abs(theta[j])
        if converged or k + 1 == len(basis):
            break
        basis[k + 1] = w / beta
        tri[k + 1, k] = beta
    u = q.T @ s[:, j]
    return u / _norm(u), k + 1, bool(converged)


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
    seed: int,
) -> InitResult:
    y = _vector(y, "measurements", ensemble.m, finite=True)
    lambda0 = estimate_lambda0(y)
    if lambda0 == 0.0:
        raise DegenerateMeasurements("scale estimate is zero; the measurements carry no norm")
    weights, kept = _surrogate_weights(y, lambda0)
    direction, iters, converged = leading_eigenvector(
        lambda v: _weighted_apply(ensemble, weights, v),
        ensemble.n,
        seed=seed,
    )
    return InitResult(
        z0=lambda0 * direction,
        lambda0=lambda0,
        truncated_count=kept,
        power_iters=iters,
        converged=converged,
    )


def median_spectral_init(ensemble: SensingEnsemble, y, *, seed: int) -> InitResult:
    """Median-truncated spectral initialization.

    The returned iterate satisfies ||z0|| = lambda0; its direction carries
    an arbitrary sign, which downstream distance computations absorb.
    The mask threshold is alpha_y = 3.  ``seed`` keys the Lanczos start
    vector; the solver passes ``derive_seed(master_seed, TAG_INIT)``.

    Raises:
        DegenerateMeasurements: the median of y is negative or zero.
    """
    return _spectral_init(ensemble, y, scale_estimate, seed)


def mean_spectral_init(ensemble: SensingEnsemble, y, *, seed: int) -> InitResult:
    """Mean-based initialization used by the non-robust baselines.

    lambda0 = sqrt(mean(y)); a single enormous outlier inflates it without
    bound, which is exactly the fragility the robust variant avoids.
    ``seed`` keys the Lanczos start vector, as for the median init.
    """
    return _spectral_init(ensemble, y, _mean_scale, seed)
