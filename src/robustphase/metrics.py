"""Error metrics and empirical-check statistics.

Since y only constrains x through squared inner products, x and -x are
indistinguishable; every distance here is therefore taken up to a global
sign flip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import SensingEnsemble
from .quantile import sample_median, sample_quantile

__all__ = [
    "dist",
    "relative_error",
    "is_success",
    "sign_flip_fraction",
    "residual_median_stats",
    "TrialOutcome",
    "outcome_from_errors",
]


def _pair(z, x) -> tuple[np.ndarray, np.ndarray]:
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    if z.shape != x.shape or z.ndim != 1:
        raise InvalidInputError(f"vectors must share a 1-D shape, got {z.shape} vs {x.shape}")
    return z, x


def _norm(v: np.ndarray) -> float:
    # sqrt(v . v) is bitwise what np.linalg.norm computes for a 1-D float array.
    return math.sqrt(v @ v)


def _dist(z: np.ndarray, x: np.ndarray) -> float:
    return min(_norm(z - x), _norm(z + x))


def dist(z, x) -> float:
    """Distance up to global sign: min(||z - x||, ||z + x||)."""
    return _dist(*_pair(z, x))


def relative_error(z, x) -> float:
    """dist(z, x) / ||x||; the signal must be nonzero."""
    z, x = _pair(z, x)
    x_norm = _norm(x)
    if x_norm == 0.0:
        raise InvalidInputError("relative error is undefined for a zero signal")
    return _dist(z, x) / x_norm


def is_success(outcome_error: float, tol: float = 1e-8) -> bool:
    """Success test, inclusive at the boundary."""
    if tol <= 0.0:
        raise InvalidInputError(f"tolerance must be positive, got {tol}")
    return outcome_error <= tol


def sign_flip_fraction(ensemble: SensingEnsemble, x, z) -> float:
    """Fraction of rows where a_i.x and a_i.z disagree in sign.

    Products exactly zero do not count: the event is a strict inequality.
    """
    z, x = _pair(z, x)
    if x.shape != (ensemble.n,):
        raise InvalidInputError(
            f"vector length {x.shape[0]} does not match ensemble n={ensemble.n}"
        )
    if np.linalg.norm(x) == 0.0 or np.linalg.norm(z) == 0.0:
        raise InvalidInputError("sign flips are undefined for zero vectors")
    products = (ensemble.rows @ x) * (ensemble.rows @ z)
    return float(np.count_nonzero(products < 0.0) / ensemble.m)


def residual_median_stats(
    ensemble: SensingEnsemble, x, z, kind: str = "intensity"
) -> tuple[float, float, float]:
    """Median and flanking quantiles (p = 0.49, 0.51) of clean residuals.

    kind "intensity" uses |( a_i.x)^2 - (a_i.z)^2|, kind "amplitude" uses
    ||a_i.x| - |a_i.z||.  Returns (median, q49, q51).
    """
    z, x = _pair(z, x)
    if x.shape != (ensemble.n,):
        raise InvalidInputError(
            f"vector length {x.shape[0]} does not match ensemble n={ensemble.n}"
        )
    ax = ensemble.rows @ x
    az = ensemble.rows @ z
    if kind == "intensity":
        resid = np.abs(ax**2 - az**2)
    elif kind == "amplitude":
        resid = np.abs(np.abs(ax) - np.abs(az))
    else:
        raise InvalidInputError(f"unknown residual kind {kind!r}")
    return (
        sample_median(resid),
        sample_quantile(resid, 0.49),
        sample_quantile(resid, 0.51),
    )


@dataclass(frozen=True)
class TrialOutcome:
    """Summary of one solver run against one planted signal.

    ``decade_hits`` maps k to the first iterate whose relative error
    dropped below 10^-k, for every decade the trace reached.
    """

    success: bool
    final_relative_error: float
    iterations_used: int
    decade_hits: dict[int, int]


def outcome_from_errors(errors: np.ndarray, tol: float = 1e-8) -> TrialOutcome:
    """Build a TrialOutcome from a per-iterate relative-error trace."""
    errors = np.asarray(errors, dtype=float)
    if errors.ndim != 1 or errors.size == 0:
        raise InvalidInputError("error trace must be a nonempty 1-D array")
    final = float(errors[-1])
    hits: dict[int, int] = {}
    positive = errors[errors > 0.0]
    if positive.size:
        deepest = int(np.floor(-np.log10(positive.min())))
    else:
        deepest = 16
    for k in range(1, max(deepest, 0) + 1):
        below = np.flatnonzero(errors < 10.0 ** (-k))
        if below.size:
            hits[k] = int(below[0])
    return TrialOutcome(
        success=is_success(final, tol),
        final_relative_error=final,
        iterations_used=len(errors) - 1,
        decade_hits=hits,
    )
