"""Relative error, success, and sign-flip metrics.

The ``test_dist_*`` tests check the distance up to global sign,
min(||z - x||, ||z + x||), through ``relative_error``, which divides it by
||x||.
"""

import math

import numpy as np
import pytest

from robustphase import (
    InvalidInputError,
    SensingEnsemble,
    is_success,
    relative_error,
    sample_ensemble,
    sample_signal,
    sign_flip_fraction,
)


def test_dist_examples():
    x = np.array([1.0, 0.0])
    assert relative_error([1.0, 0.0], x) == 0.0
    assert relative_error([-1.0, 0.0], x) == 0.0
    assert relative_error([0.0, 1.0], x) == pytest.approx(math.sqrt(2.0))


def test_dist_symmetry_and_bounds():
    rng = np.random.Generator(np.random.Philox(key=90))
    for _ in range(30):
        z = rng.standard_normal(6)
        x = rng.standard_normal(6)
        x_norm = float(np.linalg.norm(x))
        e = relative_error(z, x)
        assert e == relative_error(-z, x) == relative_error(z, -x)
        assert e <= float(np.linalg.norm(z - x)) / x_norm
        assert e <= float(np.linalg.norm(z + x)) / x_norm
        c = float(rng.uniform(-3.0, 3.0))
        assert relative_error(c * z, c * x) == pytest.approx(e, rel=1e-12, abs=1e-13)


def test_dist_rejects_mismatch():
    with pytest.raises(InvalidInputError):
        relative_error([1.0, 2.0], [1.0])
    for z, x in (([[1.0]], [[1.0]]), ([], []), ([], [1.0, 2.0]), ([1.0], [])):
        with pytest.raises(InvalidInputError):
            relative_error(z, x)


def test_relative_error_examples():
    x = np.array([3.0, 4.0])
    assert relative_error(x, x) == 0.0
    assert relative_error(np.zeros(2), x) == 1.0
    assert relative_error(2.0 * x, x) == pytest.approx(1.0)
    with pytest.raises(InvalidInputError):
        relative_error(x, np.zeros(2))


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _formula(z, x) -> float:
    """The relative error as ``perfbench/checks.py::spot_check`` computes it."""
    return min(np.linalg.norm(z - x), np.linalg.norm(z + x)) / np.linalg.norm(x)


def test_relative_error_of_a_vector_is_bitwise_the_formula():
    rng = np.random.Generator(np.random.Philox(key=94))
    cases = []
    for n in (1, 2, 16, 64, 128, 512):
        x = rng.standard_normal(n)
        for scale in 10.0 ** np.arange(-12, 5, 2):
            z = x + scale * rng.standard_normal(n)
            cases += [(z, x), (-z, x), (z, -x), (scale * rng.standard_normal(n), x)]
        cases += [(x, x), (-x, x), (np.zeros(n), x)]
    x = np.array([3.0, -4.0, 1.0])
    for row in ([np.nan, 0.0, 1.0], [np.inf, 0.0, 1.0], [-np.inf, 2.0, 1.0],
                [np.inf, -np.inf, 0.0], [np.nan, np.inf, 0.0]):
        cases += [(np.array(row), x), (-np.array(row), x)]
    cases += [(x, np.array([np.inf, 0.0, 1.0])), (x, np.array([np.nan, 0.0, 1.0]))]
    for z, x in cases:
        with np.errstate(invalid="ignore"):  # inf / inf for an infinite signal
            err, want = relative_error(z, x), _formula(z, x)
        assert type(err) is float
        assert _bits(err) == _bits(want), (z, x)


@pytest.mark.parametrize("n", [1, 16, 64, 128, 512])
def test_relative_error_of_a_stack_is_bitwise_each_row(n):
    rng = np.random.Generator(np.random.Philox(key=93 + n))
    x = rng.standard_normal(n)
    rows = [x, -x]
    for scale in 10.0 ** np.arange(-10, 4):
        rows += [x + scale * rng.standard_normal(n), -x + scale * rng.standard_normal(n)]
        rows.append(scale * rng.standard_normal(n))
    z = np.array(rows)
    errors = relative_error(z, x)
    assert errors.shape == (len(rows),)
    assert errors[0] == errors[1] == 0.0
    for row, err in zip(z, errors):
        assert _bits(err) == _bits(_formula(row, x))


def test_relative_error_of_a_stack_with_nonfinite_rows():
    x = np.array([3.0, -4.0, 1.0])
    z = np.array([
        [np.nan, 0.0, 1.0], [np.inf, 0.0, 1.0], [-np.inf, 2.0, 1.0],
        [np.inf, -np.inf, 0.0], [np.nan, np.inf, 0.0], [1.0, 1.0, 1.0],
    ])
    errors = relative_error(z, x)
    for row, err in zip(z, errors):
        assert _bits(err) == _bits(relative_error(row, x))  # NaN payloads too
    assert math.isnan(errors[0]) and errors[1] == math.inf


def test_relative_error_of_an_empty_stack_is_an_empty_array():
    # A fixed-budget run's last block of iterates can be empty.
    errors = relative_error(np.empty((0, 3)), np.array([3.0, -4.0, 1.0]))
    assert errors.shape == (0,) and errors.dtype == np.float64


def test_relative_error_leaves_its_arguments_unwritten():
    rng = np.random.Generator(np.random.Philox(key=95))
    x = rng.standard_normal(16)
    for z in (x + rng.standard_normal(16), rng.standard_normal((5, 16))):
        z_before, x_before = z.copy(), x.copy()
        relative_error(z, x)
        assert z.tobytes() == z_before.tobytes()
        assert x.tobytes() == x_before.tobytes()


def test_relative_error_rejects_bad_stacks():
    x = np.ones(3)
    for z, sig in ((np.ones((2, 2, 3)), x), (np.ones((2, 4)), x), (np.ones((2, 3)), np.ones((1, 3)))):
        with pytest.raises(InvalidInputError):
            relative_error(z, sig)


def test_is_success_boundary_inclusive():
    assert is_success(1e-9, 1e-8)
    assert is_success(1e-8, 1e-8)
    assert not is_success(2e-8, 1e-8)
    # monotone in tol
    assert is_success(1e-8, 1e-6)
    with pytest.raises(InvalidInputError):
        is_success(0.1, 0.0)
    with pytest.raises(InvalidInputError):
        is_success(1e-12, float("nan"))
    with pytest.raises(InvalidInputError):
        is_success(0.5, float("inf"))


def test_sign_flip_fraction_extremes():
    ens = sample_ensemble(8, 500, seed=91)
    x = sample_signal(8, seed=92)
    assert sign_flip_fraction(ens, x, x) == 0.0
    assert sign_flip_fraction(ens, x, -x) == 1.0
    with pytest.raises(InvalidInputError):
        sign_flip_fraction(ens, x, np.zeros(8))
    for bad in (np.ones(7), np.ones((1, 8)), np.ones(0)):
        with pytest.raises(InvalidInputError):
            sign_flip_fraction(ens, bad, x)
        with pytest.raises(InvalidInputError):
            sign_flip_fraction(ens, x, bad)


def test_sign_flip_fraction_strict_inequality():
    ens = SensingEnsemble(rows=np.array([[1.0, 0.0], [0.0, 1.0]]))
    # second row is orthogonal to x, so its product is exactly zero
    assert sign_flip_fraction(ens, np.array([1.0, 0.0]), np.array([1.0, 1.0])) == 0.0

