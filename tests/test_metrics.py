"""Distance, success, and concentration metrics."""

import math

import numpy as np
import pytest

from robustphase import (
    InvalidInputError,
    SensingEnsemble,
    dist,
    is_success,
    relative_error,
    residual_median_stats,
    sample_ensemble,
    sample_signal,
    sign_flip_fraction,
)


def test_dist_examples():
    assert dist([1.0, 0.0], [1.0, 0.0]) == 0.0
    assert dist([-1.0, 0.0], [1.0, 0.0]) == 0.0
    assert dist([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.sqrt(2.0))


def test_dist_symmetry_and_bounds():
    rng = np.random.Generator(np.random.Philox(key=90))
    for _ in range(30):
        z = rng.standard_normal(6)
        x = rng.standard_normal(6)
        d = dist(z, x)
        assert d == dist(x, z)
        assert d <= float(np.linalg.norm(z - x))
        assert d <= float(np.linalg.norm(z + x))
        c = float(rng.uniform(-3.0, 3.0))
        assert dist(c * z, c * x) == pytest.approx(abs(c) * d, rel=1e-12, abs=1e-13)


def test_dist_rejects_mismatch():
    with pytest.raises(InvalidInputError):
        dist([1.0, 2.0], [1.0])
    with pytest.raises(InvalidInputError):
        dist([[1.0]], [[1.0]])


def test_relative_error_examples():
    x = np.array([3.0, 4.0])
    assert relative_error(x, x) == 0.0
    assert relative_error(np.zeros(2), x) == 1.0
    assert relative_error(2.0 * x, x) == pytest.approx(1.0)
    with pytest.raises(InvalidInputError):
        relative_error(x, np.zeros(2))


def test_is_success_boundary_inclusive():
    assert is_success(1e-9, 1e-8)
    assert is_success(1e-8, 1e-8)
    assert not is_success(2e-8, 1e-8)
    # monotone in tol
    assert is_success(1e-8, 1e-6)
    with pytest.raises(InvalidInputError):
        is_success(0.1, 0.0)


def test_sign_flip_fraction_extremes():
    ens = sample_ensemble(8, 500, seed=91)
    x = sample_signal(8, seed=92)
    assert sign_flip_fraction(ens, x, x) == 0.0
    assert sign_flip_fraction(ens, x, -x) == 1.0
    with pytest.raises(InvalidInputError):
        sign_flip_fraction(ens, x, np.zeros(8))
    with pytest.raises(InvalidInputError):
        sign_flip_fraction(ens, np.ones(7), x)


def test_sign_flip_fraction_strict_inequality():
    ens = SensingEnsemble(rows=np.array([[1.0, 0.0], [0.0, 1.0]]), seed=0)
    # second row is orthogonal to x, so its product is exactly zero
    assert sign_flip_fraction(ens, np.array([1.0, 0.0]), np.array([1.0, 1.0])) == 0.0


def test_residual_median_stats_at_truth_and_ordering():
    ens = sample_ensemble(6, 300, seed=93)
    x = sample_signal(6, seed=94)
    assert residual_median_stats(ens, x, x, "intensity") == (0.0, 0.0, 0.0)
    assert residual_median_stats(ens, x, x, "amplitude") == (0.0, 0.0, 0.0)
    z = x + 0.3 * sample_signal(6, seed=95)
    for kind in ("intensity", "amplitude"):
        med, q49, q51 = residual_median_stats(ens, x, z, kind)
        assert q49 <= med <= q51
        assert med > 0.0
    with pytest.raises(InvalidInputError):
        residual_median_stats(ens, x, z, "energy")
