"""Property tests of the screened-gradient kernel (Hypothesis).

Each example draws a small instance: a sensing matrix, measurements with a
random fraction of large outliers, and an iterate near the signal.  The
five public gradient functions must then satisfy the symmetries the
truncation argument relies on:

* sign: g(-z) = -g(z) exactly, with the same kept count and statistic;
* row permutation of (A, y): the same kept count, the same statistic for
  the median variants, and the same gradient up to rounding;
* power-of-two scaling z -> c z, y -> c^2 y: the gradient scales by c
  exactly;
* trimean-twf: the statistic is the mean of the m - ceil(s m) smallest
  intensity residuals.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from robustphase import (  # noqa: E402
    Algorithm,
    SensingEnsemble,
    SolverConfig,
    mrwf_gradient,
    mtwf_gradient,
    rwf_gradient,
    trimean_twf_gradient,
    twf_gradient,
)

KNOWN_S = 0.2

# gradient function, its config, and whether its loss is the intensity loss
KERNELS = {
    "median-twf": (mtwf_gradient, SolverConfig(algorithm=Algorithm.MEDIAN_TWF), True),
    "twf": (twf_gradient, SolverConfig(algorithm=Algorithm.MEAN_TWF), True),
    "trimean-twf": (
        trimean_twf_gradient,
        SolverConfig(algorithm=Algorithm.TRIMEAN_TWF, known_s=KNOWN_S),
        True,
    ),
    "median-rwf": (mrwf_gradient, SolverConfig(algorithm=Algorithm.MEDIAN_RWF), False),
    "rwf": (rwf_gradient, SolverConfig(algorithm=Algorithm.PLAIN_RWF), False),
}
MEDIAN_VARIANTS = {"median-twf", "median-rwf", "rwf"}

PROPERTY = settings(deadline=None, max_examples=25)


@st.composite
def instances(draw, integer_rows=False):
    """(ensemble, y, z, rng) with Gaussian or small-integer sensing rows.

    Integer rows and an integer iterate make every a_i . z exact, so a row
    permutation cannot move a residual by the BLAS's position-dependent
    summation order.
    """
    n = draw(st.integers(2, 10))
    m = draw(st.integers(4 * n, 96))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if integer_rows:
        rows = rng.integers(-8, 9, size=(m, n)).astype(float)
    else:
        rows = rng.standard_normal((m, n))
    x = rng.standard_normal(n)
    y = (rows @ x) ** 2
    outliers = rng.random(m) < draw(st.sampled_from([0.0, 0.1, 0.3]))
    y[outliers] += rng.uniform(0.0, 10.0 * float(x @ x), int(outliers.sum()))
    z = x + draw(st.sampled_from([0.05, 0.3])) * rng.standard_normal(n)
    if integer_rows:
        z = np.round(4.0 * z)
    if not np.any(z):
        z[0] = 1.0
    return SensingEnsemble(rows=rows, seed=0), y, z, rng


@pytest.mark.parametrize("name", sorted(KERNELS))
@PROPERTY
@given(instances())
def test_gradient_is_odd_in_the_iterate(name, instance):
    ensemble, y, z, _ = instance
    fn, cfg, _ = KERNELS[name]
    grad, kept, stat = fn(ensemble, y, z, cfg)
    grad_neg, kept_neg, stat_neg = fn(ensemble, y, -z, cfg)
    np.testing.assert_array_equal(grad_neg, -grad)
    assert (kept_neg, stat_neg) == (kept, stat)


@pytest.mark.parametrize("name", sorted(KERNELS))
@PROPERTY
@given(instances(integer_rows=True))
def test_row_permutation_keeps_screening(name, instance):
    ensemble, y, z, rng = instance
    fn, cfg, _ = KERNELS[name]
    perm = rng.permutation(ensemble.m)
    grad, kept, stat = fn(ensemble, y, z, cfg)
    permuted = SensingEnsemble(rows=ensemble.rows[perm], seed=0)
    grad_p, kept_p, stat_p = fn(permuted, y[perm], z, cfg)
    assert kept_p == kept
    if name in MEDIAN_VARIANTS:
        assert stat_p == stat
    else:
        assert stat_p == pytest.approx(stat, rel=1e-12)
    scale = float(np.abs(ensemble.rows).sum(axis=0).max() * np.abs(y).max() + 1.0)
    np.testing.assert_allclose(grad_p, grad, rtol=1e-9, atol=1e-12 * scale)


@pytest.mark.parametrize("name", sorted(KERNELS))
@PROPERTY
@given(instances(), st.integers(-6, 6))
def test_power_of_two_scaling_is_exact(name, instance, k):
    ensemble, y, z, _ = instance
    fn, cfg, intensity = KERNELS[name]
    c = 2.0**k
    grad, kept, stat = fn(ensemble, y, z, cfg)
    grad_c, kept_c, stat_c = fn(ensemble, c * c * y, c * z, cfg)
    np.testing.assert_array_equal(grad_c, c * grad)
    assert kept_c == kept
    assert stat_c == (c * c if intensity else c) * stat


@PROPERTY
@given(instances())
def test_trimmed_statistic_is_mean_of_smallest_residuals(instance):
    ensemble, y, z, _ = instance
    fn, cfg, _ = KERNELS["trimean-twf"]
    _, kept, stat = fn(ensemble, y, z, cfg)
    m = ensemble.m
    keep = m - math.ceil(KNOWN_S * m)
    resid = np.abs(y - (ensemble.rows @ z) ** 2)
    smallest = np.sort(np.argsort(resid)[:keep])  # in row order, as summed
    assert stat == float(resid[smallest].mean())
    assert kept <= keep
