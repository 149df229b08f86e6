"""Exception taxonomy and input checks shared by every module in the package.

Three failure classes cover the whole pipeline:

* bad arguments that violate a documented precondition,
* numerical routines that fail to reach their stated tolerance,
* measurement sets too degenerate to initialize from.
"""

from enum import Enum
from numbers import Integral

import numpy as np


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


def _require_count(value, what: str) -> None:
    """Raise InvalidInputError unless ``value`` is an integer >= 1 (3.0 is not)."""
    if not isinstance(value, Integral) or value < 1:
        raise InvalidInputError(f"{what} must be an integer >= 1, got {value!r}")


def _require_seed(*values) -> None:
    """Raise InvalidInputError unless every value is an integer >= 0 (1.5 is not)."""
    for value in values:
        if not isinstance(value, Integral) or value < 0:
            raise InvalidInputError(f"seed must be an integer >= 0, got {value!r}")


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
