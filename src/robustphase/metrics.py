"""Error metrics: the sign-invariant relative error, the success test and
the sign-flip fraction.

Since y only constrains x through squared inner products, x and -x are
indistinguishable; every distance here is therefore taken up to a global
sign flip.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError
from .model import SensingEnsemble

__all__ = [
    "relative_error",
    "is_success",
    "sign_flip_fraction",
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


def relative_error(z, x) -> float:
    """min(||z - x||, ||z + x||) / ||x||; the signal must be nonzero."""
    z, x = _pair(z, x)
    x_norm = _norm(x)
    if x_norm == 0.0:
        raise InvalidInputError("relative error is undefined for a zero signal")
    return min(_norm(z - x), _norm(z + x)) / x_norm


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

