"""Exception taxonomy and the input rules every module in the package shares.

Three failure classes cover the whole pipeline:

* bad arguments that violate a documented precondition,
* numerical routines that fail to reach their stated tolerance,
* measurement sets too degenerate to initialize from.

Each input rule is written once, here, and raises InvalidInputError: an
enum choice, a count (>= 1, or >= 0 for a seed), a finite positive or
nonnegative value, an outlier fraction in [0, 0.5), and an array.  NaN
fails every bound.
"""

import math
from enum import Enum
from numbers import Integral

import numpy as np

__all__ = ["RobustPhaseError", "InvalidInputError", "NumericalFailure", "DegenerateMeasurements"]


class RobustPhaseError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(RobustPhaseError, ValueError):
    """An argument violates a documented precondition."""


class NumericalFailure(RobustPhaseError, ArithmeticError):
    """A numerical routine could not reach its requested tolerance."""


class DegenerateMeasurements(RobustPhaseError):
    """Measurements carry no usable scale or direction information."""


def _parse_choice(kind: type[Enum], value) -> Enum:
    """``kind(value)``; an unknown value raises InvalidInputError naming the choices."""
    try:
        return kind(value)
    except ValueError:
        raise InvalidInputError(
            f"{value!r} is not a valid {kind.__name__}; choose from "
            + ", ".join(c.value for c in kind)
        ) from None


def _require_count(value, what: str, least: int = 1) -> None:
    """Raise InvalidInputError unless ``value`` is an integer >= ``least``
    (3.0 is not); a seed is a count with ``least=0``."""
    if not isinstance(value, Integral) or value < least:
        raise InvalidInputError(f"{what} must be an integer >= {least}, got {value!r}")


def _require_positive(value, what: str) -> None:
    """Raise InvalidInputError unless ``value`` is finite and > 0."""
    if not 0.0 < value < math.inf:
        raise InvalidInputError(f"{what} must be finite and positive, got {value}")


def _require_nonnegative(value, what: str) -> None:
    """Raise InvalidInputError unless ``value`` is finite and >= 0."""
    if not 0.0 <= value < math.inf:
        raise InvalidInputError(f"{what} must be finite and nonnegative, got {value}")


def _require_fraction(value, what: str) -> None:
    """Raise InvalidInputError unless ``value`` lies in [0, 0.5)."""
    if not 0.0 <= value < 0.5:
        raise InvalidInputError(f"{what} must lie in [0, 0.5), got {value}")


def _vector(values, what: str, length: int | None = None, *, finite: bool = False) -> np.ndarray:
    """``values`` as a float array; InvalidInputError naming ``what`` unless its
    shape is ``(length,)`` (any nonempty 1-D shape when ``length`` is None)
    and, with ``finite``, it holds no NaN or inf."""
    v = np.asarray(values, dtype=float)
    if (v.shape != (length,)) if length is not None else (v.ndim != 1 or v.size == 0):
        want = "a nonempty 1-D array" if length is None else f"of shape ({length},)"
        raise InvalidInputError(f"{what} must be {want}, got shape {v.shape}")
    if finite and not np.isfinite(v).all():
        raise InvalidInputError(f"{what} contains NaN or infinite entries")
    return v
