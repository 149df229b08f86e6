"""Problem generation: signals, ensembles, corruption mechanics, seeds.

Distributional checks use wide (3-5 sigma) bands so they are deterministic
in practice for the pinned seeds; the Poisson draws are compared against
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
    leading_eigenvector,
    sample_ensemble,
    sample_signal,
)
from robustphase.model import _poisson_draws, _rng


def test_derive_seed_is_stable_and_tag_sensitive():
    assert derive_seed(42, TAG_SIGNAL) == derive_seed(42, TAG_SIGNAL)
    tags = {derive_seed(42, t) for t in (TAG_SIGNAL, TAG_ENSEMBLE, TAG_CORRUPTION)}
    assert len(tags) == 3
    assert derive_seed(42, TAG_SIGNAL) != derive_seed(43, TAG_SIGNAL)


@pytest.mark.parametrize("seed", [1.5, 2.0, -1, float("nan")])
def test_seeds_must_be_integers_at_least_zero(seed):
    # int() would truncate 1.5 to seed 1 and numpy rejects -1 with a bare
    # ValueError; every entry point that takes a seed shares one check.
    for make in (
        lambda: derive_seed(seed),
        lambda: derive_seed(7, seed),
        lambda: _rng(seed),
        lambda: generate_problem(4, 8, CorruptionSpec(), seed),
    ):
        with pytest.raises(InvalidInputError, match="seed must be an integer >= 0"):
            make()


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
    for n in (0, 3.0):
        with pytest.raises(InvalidInputError):
            sample_signal(n, seed=0)


# ---------------------------------------------------------------- ensembles


def test_ensemble_deterministic_per_seed():
    a = sample_ensemble(2, 3, seed=1)
    b = sample_ensemble(2, 3, seed=1)
    np.testing.assert_array_equal(a.rows, b.rows)
    assert a.rows.shape == (3, 2)
    assert a.m == 3 and a.n == 2


@pytest.mark.parametrize("m, n", [(1, 1), (7, 3), (512, 64), (1024, 128), (4096, 512)])
def test_ensemble_rows_start_on_a_cache_line(m, n):
    # Aligned rows speed up both matvecs; the values stay those of one
    # standard_normal((m, n)) draw from the ensemble's SFC64 stream.
    seed = 17
    for rows, stream_seed in (
        (sample_ensemble(n, m, seed).rows, seed),
        (generate_problem(n, m, CorruptionSpec(), seed).ensemble.rows,
         derive_seed(seed, TAG_ENSEMBLE)),
    ):
        assert rows.ctypes.data % 64 == 0
        assert rows.flags.c_contiguous and rows.flags.writeable
        assert rows.dtype == np.float64 and rows.shape == (m, n)
        want = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence(stream_seed))
        ).standard_normal((m, n))
        assert rows.tobytes() == want.tobytes()


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
    # Fractional sizes are refused too, not passed on to numpy's TypeError.
    for n, m in ((0, 5), (5, 0), (4.0, 8), (4, 8.5)):
        with pytest.raises(InvalidInputError):
            sample_ensemble(n, m, seed=0)


# ------------------------------------------------------------- measurements


def test_clean_measurements_identity_rows():
    ens = SensingEnsemble(rows=np.eye(2))
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
    for x in (np.zeros(5), np.zeros((1, 4)), np.zeros(0)):
        with pytest.raises(InvalidInputError):
            clean_measurements(ens, x)


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
    assert ms.outlier_support.dtype == np.int64 and ms.outlier_support.size == 0
    np.testing.assert_array_equal(ms.noise, np.zeros(3))


@pytest.mark.parametrize("model", list(OutlierModel), ids=lambda m: m.value)
def test_empty_support_at_positive_fraction_adds_nothing(model):
    # At seed 3 no index of six is hit at s = 0.2, so the size-0 value draw
    # must leave y at clean + noise exactly.
    clean = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    spec = CorruptionSpec(
        outlier_fraction=0.2, outlier_model=model, eta_max_rel=2.0, w_max_rel=0.5
    )
    ms = apply_corruption(clean, spec, x_norm=2.0, seed=3)
    assert ms.outlier_support.dtype == np.int64 and ms.outlier_support.size == 0
    assert np.all(ms.noise > 0.0)
    assert ms.y.tobytes() == (clean + ms.noise).tobytes()


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
    for x_norm in (0.0, math.inf):
        with pytest.raises(InvalidInputError):
            apply_corruption(np.ones(10), spec, x_norm=x_norm, seed=0)
    for clean in ([-1.0], np.ones((2, 5)), [], [1.0, math.nan], [1.0, math.inf]):
        with pytest.raises(InvalidInputError):
            apply_corruption(np.array(clean), CorruptionSpec(), x_norm=1.0, seed=0)
    with pytest.raises(InvalidInputError, match="1e\\+19"):
        apply_corruption(np.array([1e19]), CorruptionSpec(poisson=True), x_norm=1.0, seed=0)


# ------------------------------------------------------------------- poisson


def test_poisson_of_zero_mean_is_zero():
    spec = CorruptionSpec(poisson=True)
    ms = apply_corruption(np.zeros(50), spec, x_norm=1.0, seed=14)
    np.testing.assert_array_equal(ms.y, np.zeros(50))


@pytest.mark.parametrize("lam", [7.0, 120.0])
def test_poisson_draws_match_reference_pmf(lam):
    """Both sides of numpy's switch at mean 10 (multiplication method below,
    PTRS above) against the scipy pmf, in total variation."""
    m = 100_000
    rows = np.full((m, 1), math.sqrt(lam))
    clean = clean_measurements(SensingEnsemble(rows=rows), np.ones(1))
    ms = apply_corruption(clean, CorruptionSpec(poisson=True), x_norm=1.0, seed=15)
    draws = ms.y.astype(int)
    np.testing.assert_allclose(ms.y, draws)  # integer-valued
    hi = int(draws.max()) + 1
    empirical = np.bincount(draws, minlength=hi) / m
    reference = stats.poisson.pmf(np.arange(hi), lam)
    tv = 0.5 * float(np.sum(np.abs(empirical - reference)))
    assert tv < 0.02
    assert abs(float(draws.mean()) - lam) < 4.0 * math.sqrt(lam / m)


def test_poisson_draw_stream_is_pinned():
    """The draws, and where they leave the stream, on both sides of numpy's
    switch at mean 10.

    This pins numpy's ``Generator.poisson`` stream for a Philox generator: a
    numpy release that changes it (NEP 19 allows that) moves these values and
    the ``poisson`` golden hash together.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(15)))
    means = np.array([0.0, 0.5, 7.0, 29.999, 30.0, 120.0, 1e4])
    draws = _poisson_draws(rng, means)
    assert draws.dtype == float
    assert draws.tolist() == [0.0, 0.0, 3.0, 43.0, 20.0, 120.0, 10056.0]
    assert rng.random() == 0.9320004665533839


def _philox(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def test_each_stream_draws_from_its_pinned_generator():
    """The ensemble draws from SFC64; the signal, corruption and Lanczos
    start-vector streams draw from Philox.

    The ensemble's literal values pin numpy's SFC64 stream and its ziggurat
    normals.  A swap of any stream's generator, or a numpy release that
    changes one of these streams (NEP 19 allows that), fails here by name
    as well as in every golden hash.
    """
    assert sample_ensemble(3, 2, seed=29).rows.tolist() == [
        [0.9213523161624136, -1.2052043150130378, -0.9471102732115068],
        [1.2509485439233947, 0.7086532246008485, 0.33839829459582405],
    ]
    assert sample_signal(5, seed=29).tobytes() == _philox(29).standard_normal(5).tobytes()

    clean, x_norm = np.arange(1.0, 13.0), 1.5
    power = x_norm**2
    for spec in (
        CorruptionSpec(outlier_fraction=0.4, eta_max_rel=2.0, w_max_rel=0.1),
        CorruptionSpec(
            outlier_fraction=0.4, outlier_model=OutlierModel.INTEGER_UNIFORM, poisson=True
        ),
        CorruptionSpec(eta_max_rel=2.0, w_max_rel=0.1),  # s = 0: y is clean + noise alone
    ):
        rng = _philox(29)  # the draw order apply_corruption documents
        want = rng.poisson(clean).astype(float) if spec.poisson else clean.copy()
        want += rng.uniform(0.0, spec.w_max_rel * power, 12) if spec.w_max_rel else 0.0
        support = np.flatnonzero(rng.random(12) < spec.outlier_fraction)
        if spec.outlier_model is OutlierModel.UNIFORM:
            want[support] += rng.uniform(0.0, spec.eta_max_rel * power, support.size)
        else:
            want[support] += np.round(power * rng.random(support.size))
        assert (support.size > 0) == (spec.outlier_fraction > 0)
        got = apply_corruption(clean, spec, x_norm, seed=29)
        assert got.y.tobytes() == want.tobytes(), spec
    noise = _philox(29).uniform(0.0, 0.1 * power, 12)
    assert got.y.tobytes() == (clean + noise).tobytes()  # the s = 0 spec, built by hand

    v, applies, _ = leading_eigenvector(lambda u: u, 5, seed=29)  # one apply: v is the start
    start = _philox(29).standard_normal(5)
    assert applies == 1 and v.tobytes() == (start / np.linalg.norm(start)).tobytes()


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
