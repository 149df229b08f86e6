"""The scalar input rules of ``robustphase.errors``, through every entry point.

Each rule is one function in ``errors``.  Every entry point that applies it
must refuse NaN, both infinities and the values just past its bounds.
"""

import math

import numpy as np
import pytest

from robustphase import (
    Algorithm,
    CorruptionSpec,
    InvalidInputError,
    SolverConfig,
    apply_corruption,
    is_success,
)
from robustphase.harness import ExperimentConfig

_LEAST = math.ulp(0.0)  # the smallest positive float


def _experiment(**grid) -> ExperimentConfig:
    return ExperimentConfig("single", m_over_n=(6.0,), **grid)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -_LEAST])
def test_positive_values_must_be_finite_and_above_zero(bad):
    for make in (
        lambda: SolverConfig(Algorithm.MEDIAN_TWF, success_tol=bad),
        lambda: _experiment(tol=bad),
        lambda: ExperimentConfig("single", m_over_n=(bad,)),
        lambda: apply_corruption(np.ones(4), CorruptionSpec(w_max_rel=0.1), bad, 0),
        lambda: apply_corruption(np.ones(4), CorruptionSpec(), bad, 0),  # clean: no magnitude
        lambda: is_success(0.0, bad),
    ):
        with pytest.raises(InvalidInputError, match="must be finite and positive"):
            make()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.5, -_LEAST])
def test_outlier_fractions_must_lie_in_zero_to_half(bad):
    for make in (
        lambda: SolverConfig(Algorithm.TRIMEAN_TWF, known_s=bad),
        lambda: _experiment(s_values=(bad,)),
        lambda: CorruptionSpec(outlier_fraction=bad),
    ):
        with pytest.raises(InvalidInputError, match=r"must lie in \[0, 0.5\)"):
            make()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -_LEAST])
def test_magnitudes_must_be_finite_and_nonnegative(bad):
    for make in (
        lambda: CorruptionSpec(eta_max_rel=bad),
        lambda: CorruptionSpec(w_max_rel=bad),
        lambda: _experiment(eta_values=(bad,)),
        lambda: _experiment(w_values=(bad,)),
    ):
        with pytest.raises(InvalidInputError, match="must be finite and nonnegative"):
            make()
