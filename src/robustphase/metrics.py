"""Error metrics: the sign-invariant relative error, the success test and
the sign-flip fraction.

Since y only constrains x through squared inner products, x and -x are
indistinguishable; every distance here is therefore taken up to a global
sign flip.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, _require_positive, _vector
from .model import SensingEnsemble

__all__ = [
    "relative_error",
    "is_success",
    "sign_flip_fraction",
]


def _norm(v: np.ndarray) -> float:
    # sqrt(v . v) is bitwise what np.linalg.norm computes for a 1-D float array.
    return math.sqrt(v @ v)


def relative_error(z, x) -> float | np.ndarray:
    """min(||z - x||, ||z + x||) / ||x||; the signal must be nonzero.

    ``z`` may also be a (k, n) stack of iterates: the result is then the
    array of its k row errors (empty for k = 0).  Both shapes take the same
    computation, so each row's error is bitwise what that row alone gives.
    """
    x, z = _vector(x, "signal"), np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] != x.size:
        raise InvalidInputError(f"iterate shape {z.shape} does not match signal length {x.size}")
    x_norm = _norm(x)
    if x_norm == 0.0:
        raise InvalidInputError("relative error is undefined for a zero signal")
    # np.vecdot sums a row as v @ v does (np.einsum does not), so each norm is bitwise _norm.
    d = z - x
    dn = np.sqrt(np.vecdot(d, d))
    p = np.add(z, x, out=d)  # z + x reuses the z - x temporary; z is never written
    pn = np.sqrt(np.vecdot(p, p))
    errors = np.where(pn < dn, pn, dn) / x_norm  # min(dn, pn), NaN included
    return errors if z.ndim == 2 else float(errors)


def is_success(outcome_error: float, tol: float) -> bool:
    """Success test, inclusive at the boundary."""
    _require_positive(tol, "tolerance")
    return outcome_error <= tol


def sign_flip_fraction(ensemble: SensingEnsemble, x, z) -> float:
    """Fraction of rows where a_i.x and a_i.z disagree in sign.

    Products exactly zero do not count: the event is a strict inequality.
    """
    x, z = _vector(x, "signal", ensemble.n), _vector(z, "iterate", ensemble.n)
    if np.linalg.norm(x) == 0.0 or np.linalg.norm(z) == 0.0:
        raise InvalidInputError("sign flips are undefined for zero vectors")
    products = (ensemble.rows @ x) * (ensemble.rows @ z)
    return float(np.count_nonzero(products < 0.0) / ensemble.m)

