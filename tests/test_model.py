"""Problem generation: signals, ensembles, corruption mechanics, seeds.

Distributional checks use wide (3-5 sigma) bands so they are deterministic
in practice for the pinned seeds; the Poisson sampler is compared against
the scipy.stats.poisson pmf as an independent oracle.
"""

import math

import numpy as np
import pytest
from scipy import stats

from robustphase import (
    CorruptionSpec,
    InvalidInputError,
    OutlierModel,
    SensingEnsemble,
    TAG_CORRUPTION,
    TAG_ENSEMBLE,
    TAG_SIGNAL,
    apply_corruption,
    clean_measurements,
    derive_seed,
    generate_problem,
    sample_ensemble,
    sample_signal,
)


def test_derive_seed_is_stable_and_tag_sensitive():
    assert derive_seed(42, TAG_SIGNAL) == derive_seed(42, TAG_SIGNAL)
    tags = {derive_seed(42, t) for t in (TAG_SIGNAL, TAG_ENSEMBLE, TAG_CORRUPTION)}
    assert len(tags) == 3
    assert derive_seed(42, TAG_SIGNAL) != derive_seed(43, TAG_SIGNAL)


# ------------------------------------------------------------------ signals


def test_signal_deterministic_per_seed():
    a = sample_signal(3, seed=7)
    b = sample_signal(3, seed=7)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, sample_signal(3, seed=8))


def test_signal_moments():
    x = sample_signal(10_000, seed=123)
    assert abs(float(np.mean(x))) < 0.05
    assert abs(float(np.var(x)) - 1.0) < 0.05


def test_signal_edge_cases():
    assert np.isfinite(sample_signal(1, seed=0)).all()
    with pytest.raises(InvalidInputError):
        sample_signal(0, seed=0)


# ---------------------------------------------------------------- ensembles


def test_ensemble_deterministic_per_seed():
    a = sample_ensemble(2, 3, seed=1)
    b = sample_ensemble(2, 3, seed=1)
    np.testing.assert_array_equal(a.rows, b.rows)
    assert a.rows.shape == (3, 2)
    assert a.m == 3 and a.n == 2


def test_ensemble_spectral_norm_near_marchenko_pastur_edge():
    ens = sample_ensemble(100, 2000, seed=5)
    norm = float(np.linalg.norm(ens.rows, 2))
    edge = math.sqrt(2000) * (1.0 + math.sqrt(100 / 2000))
    assert abs(norm - edge) / edge < 0.10


def test_ensemble_row_norms_concentrate():
    ens = sample_ensemble(100, 1000, seed=6)
    mean_sq = float(np.mean(np.sum(ens.rows**2, axis=1)))
    assert abs(mean_sq - 100.0) / 100.0 < 0.05


def test_ensemble_rejects_zero_dims():
    with pytest.raises(InvalidInputError):
        sample_ensemble(0, 5, seed=0)
    with pytest.raises(InvalidInputError):
        sample_ensemble(5, 0, seed=0)


# ------------------------------------------------------------- measurements


def test_clean_measurements_identity_rows():
    ens = SensingEnsemble(rows=np.eye(2), seed=0)
    np.testing.assert_array_equal(
        clean_measurements(ens, np.array([3.0, 4.0])), [9.0, 16.0]
    )
    np.testing.assert_array_equal(
        clean_measurements(ens, np.zeros(2)), [0.0, 0.0]
    )


def test_clean_measurements_sign_invariant():
    ens = sample_ensemble(8, 30, seed=2)
    x = sample_signal(8, seed=3)
    np.testing.assert_array_equal(
        clean_measurements(ens, x), clean_measurements(ens, -x)
    )


def test_clean_measurements_rejects_mismatch():
    ens = sample_ensemble(4, 10, seed=2)
    with pytest.raises(InvalidInputError):
        clean_measurements(ens, np.zeros(5))


# ---------------------------------------------------------------- corruption


def test_corruption_spec_validation():
    with pytest.raises(InvalidInputError):
        CorruptionSpec(outlier_fraction=0.5)
    with pytest.raises(InvalidInputError):
        CorruptionSpec(outlier_fraction=-0.01)
    with pytest.raises(InvalidInputError):
        CorruptionSpec(eta_max_rel=-1.0)
    with pytest.raises(InvalidInputError):
        CorruptionSpec(w_max_rel=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidInputError):
            CorruptionSpec(eta_max_rel=bad)
        with pytest.raises(InvalidInputError):
            CorruptionSpec(w_max_rel=bad)
    with pytest.raises(InvalidInputError, match="choose from uniform, noise_norm"):
        CorruptionSpec(outlier_model="bogus")
    # plain strings coerce to the enum
    spec = CorruptionSpec(outlier_model="uniform")
    assert spec.outlier_model is OutlierModel.UNIFORM


def test_no_corruption_is_identity():
    clean = np.array([1.0, 2.0, 3.0])
    ms = apply_corruption(clean, CorruptionSpec(), x_norm=1.0, seed=0)
    np.testing.assert_array_equal(ms.y, clean)
    assert ms.outlier_support.size == 0
    np.testing.assert_array_equal(ms.noise, np.zeros(3))


def test_bernoulli_support_size_is_binomial():
    spec = CorruptionSpec(outlier_fraction=0.05, eta_max_rel=1.0)
    clean = np.zeros(400)
    sizes = [
        apply_corruption(clean, spec, x_norm=1.0, seed=seed).outlier_support.size
        for seed in range(100)
    ]
    assert abs(float(np.mean(sizes)) - 20.0) <= 3.0 * math.sqrt(400 * 0.05 * 0.95)


def test_reconstruction_identity_off_support():
    """y = clean + w + eta elementwise; eta vanishes off the support."""
    ens = sample_ensemble(10, 200, seed=8)
    x = sample_signal(10, seed=9)
    clean = clean_measurements(ens, x)
    spec = CorruptionSpec(outlier_fraction=0.1, eta_max_rel=5.0, w_max_rel=0.01)
    ms = apply_corruption(clean, spec, x_norm=float(np.linalg.norm(x)), seed=10)
    base = clean + ms.noise
    off = np.setdiff1d(np.arange(200), ms.outlier_support)
    np.testing.assert_array_equal(ms.y[off], base[off])
    eta = ms.y[ms.outlier_support] - base[ms.outlier_support]
    assert np.all(eta != 0.0)
    assert np.all(ms.noise >= 0.0)
    power = float(np.linalg.norm(x)) ** 2
    assert np.all(ms.noise <= 0.01 * power)
    assert np.all(eta <= 5.0 * power * (1.0 + 1e-12))


def test_noise_norm_outliers_equal_dense_noise_norm():
    clean = np.zeros(500)
    spec = CorruptionSpec(
        outlier_fraction=0.1,
        outlier_model=OutlierModel.NOISE_NORM,
        w_max_rel=0.02,
    )
    ms = apply_corruption(clean, spec, x_norm=3.0, seed=12)
    eta = ms.y - clean - ms.noise
    want = float(np.linalg.norm(ms.noise, 2))
    np.testing.assert_allclose(eta[ms.outlier_support], want, rtol=1e-14)


def test_integer_uniform_outliers_are_bounded_integers():
    clean = np.zeros(300)
    spec = CorruptionSpec(
        outlier_fraction=0.2, outlier_model=OutlierModel.INTEGER_UNIFORM
    )
    x_norm = 4.0
    ms = apply_corruption(clean, spec, x_norm=x_norm, seed=13)
    vals = ms.y[ms.outlier_support]
    np.testing.assert_array_equal(vals, np.round(vals))
    assert np.all(vals >= 0.0)
    assert np.all(vals <= round(x_norm**2))


def test_relative_magnitudes_require_signal_scale():
    spec = CorruptionSpec(outlier_fraction=0.1, eta_max_rel=1.0)
    with pytest.raises(InvalidInputError):
        apply_corruption(np.ones(10), spec, x_norm=0.0, seed=0)
    with pytest.raises(InvalidInputError):
        apply_corruption(np.array([-1.0]), CorruptionSpec(), x_norm=1.0, seed=0)


# ------------------------------------------------------------------- poisson


def test_poisson_of_zero_mean_is_zero():
    spec = CorruptionSpec(poisson=True)
    ms = apply_corruption(np.zeros(50), spec, x_norm=1.0, seed=14)
    np.testing.assert_array_equal(ms.y, np.zeros(50))


@pytest.mark.parametrize("lam", [7.0, 120.0])
def test_poisson_draws_match_reference_pmf(lam):
    """Both sampler branches against the scipy pmf, in total variation."""
    m = 100_000
    rows = np.full((m, 1), math.sqrt(lam))
    clean = clean_measurements(SensingEnsemble(rows=rows, seed=0), np.ones(1))
    ms = apply_corruption(clean, CorruptionSpec(poisson=True), x_norm=1.0, seed=15)
    draws = ms.y.astype(int)
    np.testing.assert_allclose(ms.y, draws)  # integer-valued
    hi = int(draws.max()) + 1
    empirical = np.bincount(draws, minlength=hi) / m
    reference = stats.poisson.pmf(np.arange(hi), lam)
    tv = 0.5 * float(np.sum(np.abs(empirical - reference)))
    assert tv < 0.02
    assert abs(float(draws.mean()) - lam) < 4.0 * math.sqrt(lam / m)


# ------------------------------------------------------------------ problems


def test_generate_problem_bitwise_deterministic():
    spec = CorruptionSpec(outlier_fraction=0.1, eta_max_rel=1.0, w_max_rel=0.001)
    a = generate_problem(12, 80, spec, master_seed=77)
    b = generate_problem(12, 80, spec, master_seed=77)
    np.testing.assert_array_equal(a.signal, b.signal)
    np.testing.assert_array_equal(a.ensemble.rows, b.ensemble.rows)
    np.testing.assert_array_equal(a.measurements.y, b.measurements.y)


def test_generate_problem_clean_when_spec_is_empty():
    prob = generate_problem(9, 60, CorruptionSpec(), master_seed=21)
    np.testing.assert_array_equal(
        prob.measurements.y, clean_measurements(prob.ensemble, prob.signal)
    )
    assert prob.measurements.outlier_support.size == 0


def test_generate_problem_bernoulli_support_statistics():
    spec = CorruptionSpec(outlier_fraction=0.05, eta_max_rel=1.0)
    sizes = [
        generate_problem(50, 400, spec, master_seed=s).measurements.outlier_support.size
        for s in range(100)
    ]
    assert abs(float(np.mean(sizes)) - 20.0) <= 3.0 * math.sqrt(400 * 0.05 * 0.95)


def test_corruption_is_sign_invariant_in_the_signal():
    ens = sample_ensemble(6, 40, seed=30)
    x = sample_signal(6, seed=31)
    spec = CorruptionSpec(outlier_fraction=0.2, eta_max_rel=3.0, w_max_rel=0.01)
    norm = float(np.linalg.norm(x))
    a = apply_corruption(clean_measurements(ens, x), spec, norm, seed=32)
    b = apply_corruption(clean_measurements(ens, -x), spec, norm, seed=32)
    np.testing.assert_array_equal(a.y, b.y)
