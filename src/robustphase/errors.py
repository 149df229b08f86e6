"""Exception taxonomy shared by every module in the package.

Three failure classes cover the whole pipeline:

* bad arguments that violate a documented precondition,
* numerical routines that fail to reach their stated tolerance,
* measurement sets too degenerate to initialize from.
"""

from enum import Enum


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
