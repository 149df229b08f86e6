"""Spectral initialization: scale estimates, the matrix-free surrogate,
the Lanczos eigensolver, and the robustness gap between median and mean
scaling."""

import math

import numpy as np
import pytest

import robustphase.spectral as spectral_module
from robustphase import (
    TAG_INIT,
    CorruptionSpec,
    DegenerateMeasurements,
    InitResult,
    InvalidInputError,
    NumericalFailure,
    SensingEnsemble,
    clean_measurements,
    derive_seed,
    generate_problem,
    leading_eigenvector,
    mean_spectral_init,
    median_spectral_init,
    relative_error,
    sample_ensemble,
    sample_signal,
    scale_estimate,
)
from robustphase.spectral import _surrogate_weights, _weighted_apply


# ------------------------------------------------------------ scale estimate


def test_scale_estimate_examples():
    assert scale_estimate([0.455, 0.455, 0.455]) == pytest.approx(1.0, rel=1e-12)
    assert scale_estimate([0.0, 0.0, 0.0]) == 0.0


def test_scale_estimate_recovers_signal_norm():
    ens = sample_ensemble(4, 100_000, seed=40)
    x = sample_signal(4, seed=41)
    x *= 2.0 / np.linalg.norm(x)
    lam = scale_estimate(clean_measurements(ens, x))
    assert abs(lam - 2.0) <= 0.05 * 2.0


def test_scale_estimate_rejects_negative_median():
    with pytest.raises(DegenerateMeasurements):
        scale_estimate([-5.0, -5.0, 1.0])


# ------------------------------------------------------------------ surrogate


def surrogate_apply(ens, y, lambda0, v):
    """The masked operator Y v exactly as the spectral init applies it."""
    return _weighted_apply(ens, _surrogate_weights(y, lambda0)[0], v)


def test_surrogate_empty_mask_gives_zero():
    ens = sample_ensemble(5, 20, seed=42)
    y = np.full(20, 1e12)
    v = sample_signal(5, seed=43)
    np.testing.assert_array_equal(
        surrogate_apply(ens, y, lambda0=1.0, v=v), np.zeros(5)
    )


def test_surrogate_rank_one_action():
    ens = SensingEnsemble(rows=np.array([[1.0, 0.0]]))
    y = np.array([1.0])
    out = surrogate_apply(ens, y, lambda0=1.0, v=np.array([1.0, 0.0]))
    np.testing.assert_allclose(out, [1.0, 0.0])


def test_surrogate_is_linear_at_zero():
    ens = sample_ensemble(6, 30, seed=44)
    y = np.abs(sample_signal(30, seed=45))
    np.testing.assert_array_equal(
        surrogate_apply(ens, y, 1.0, np.zeros(6)), np.zeros(6)
    )


def test_surrogate_matches_materialized_matrix():
    """Matrix-free product vs an explicitly built Y, brute force."""
    rng = np.random.Generator(np.random.Philox(key=46))
    for trial in range(10):
        n = int(rng.integers(2, 21))
        m = int(rng.integers(5, 201))
        ens = sample_ensemble(n, m, seed=470 + trial)
        y = rng.standard_normal(m) * 3.0
        # alpha_y = 3 is fixed; lambda0 spans the thresholds (alpha_y lambda0)^2
        # from 0.15^2 to 6^2 that alpha_y in [0.5, 3] and lambda0 in [0.3, 2] gave.
        lambda0 = float(rng.uniform(0.05, 2.0))
        mask = np.abs(y) <= (3.0 * lambda0) ** 2
        Y = (ens.rows.T * (np.where(mask, y, 0.0))) @ ens.rows / m
        v = rng.standard_normal(n)
        got = surrogate_apply(ens, y, lambda0, v)
        want = Y @ v
        scale = max(float(np.linalg.norm(want)), 1e-30)
        assert float(np.linalg.norm(got - want)) / scale <= 1e-10


# -------------------------------------------------------------------- Lanczos


def test_lanczos_diagonal_gap():
    mat = np.diag([3.0, 1.0])
    v, iters, converged = leading_eigenvector(lambda u: mat @ u, 2)
    assert converged
    assert abs(abs(v[0]) - 1.0) < 1e-5
    assert abs(v[1]) < 1e-5


def test_lanczos_identity_converges_immediately():
    v, iters, converged = leading_eigenvector(lambda u: u, 5)
    assert converged and iters == 1
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)


def test_lanczos_rank_one():
    x = sample_signal(8, seed=49)
    x /= np.linalg.norm(x)
    v, iters, converged = leading_eigenvector(lambda u: x * float(x @ u), 8)
    assert converged and iters <= 2
    assert min(np.linalg.norm(v - x), np.linalg.norm(v + x)) < 1e-6


def test_lanczos_zero_operator_flagged_converged():
    v, iters, converged = leading_eigenvector(lambda u: np.zeros_like(u), 3)
    assert converged
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)


def _clustered_top(n):
    # Eigenvalues 2 - (i / (n - 1))^2: the top gap is about 1/n^2, so resolving
    # the top eigenvalue to the tolerance takes far more than 200 applies.
    d = 2.0 - np.linspace(0.0, 1.0, n) ** 2
    return lambda u: d * u


def test_lanczos_budget_exhaustion_is_nonfatal():
    v, iters, converged = leading_eigenvector(_clustered_top(300), 300)
    assert (iters, converged) == (200, False)
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)


def test_lanczos_budget_is_max_iters_capped_at_n(monkeypatch):
    # Eigenvalues evenly spread over [1, 2] converge within the budget (59 applies).
    d = np.linspace(1.0, 2.0, 200)
    _, iters, converged = leading_eigenvector(lambda u: d * u, 200)
    assert converged and 40 < iters < 200
    # At n <= 200 the run stops after at most n applies.  A tolerance no
    # rounding residual meets keeps it from converging earlier, so it takes n.
    monkeypatch.setattr(spectral_module, "_LANCZOS_TOL", 1e-300)
    for n in (1, 5, 64, 150, 200):
        assert leading_eigenvector(_clustered_top(n), n)[1] == n


def _reference_lanczos(apply, n, seed):
    """The earlier loop, which rebuilt T from two lists at every step."""
    v = spectral_module._rng(seed).standard_normal(n)
    basis = np.empty((min(200, n), n))
    basis[0] = v / np.linalg.norm(v)
    alphas, betas = [], []
    for k in range(len(basis)):
        w = apply(basis[k])
        q = basis[: k + 1]
        alphas.append(float(basis[k] @ w))
        for _ in range(2):
            w = w - q.T @ (q @ w)
        betas.append(float(np.linalg.norm(w)))
        theta, s = np.linalg.eigh(np.diag(alphas) + np.diag(betas[:-1], -1))
        j = int(np.argmax(np.abs(theta)))
        converged = betas[-1] * abs(s[k, j]) <= 1e-6 * abs(theta[j])
        if converged or k + 1 == len(basis):
            break
        basis[k + 1] = w / betas[-1]
    u = q.T @ s[:, j]
    return u / np.linalg.norm(u), k + 1, bool(converged)


@pytest.mark.parametrize("init", [median_spectral_init, mean_spectral_init])
@pytest.mark.parametrize("m, n", [(512, 64), (1024, 128), (2048, 512)])
def test_inits_match_the_reference_lanczos_bitwise(init, m, n):
    prob = generate_problem(n, m, CorruptionSpec(outlier_fraction=0.1), master_seed=n)
    ens, y = prob.ensemble, prob.measurements.y
    seed = derive_seed(prob.master_seed, TAG_INIT)
    res = init(ens, y, seed=seed)
    weights = _surrogate_weights(y, res.lambda0)[0]
    u, iters, converged = _reference_lanczos(lambda v: _weighted_apply(ens, weights, v), n, seed)
    assert (res.z0.tobytes(), res.power_iters, res.converged) == (
        (res.lambda0 * u).tobytes(), iters, converged
    )


@pytest.mark.parametrize(
    "mat",
    [np.diag([-3.0, 1.0, 0.5]), np.outer([0.6, 0.0, 0.8], [0.6, 0.0, 0.8]), np.zeros((3, 3))],
    ids=["negative-dominant", "rank-one", "zero"],
)
def test_lanczos_matches_the_reference_loop_bitwise(mat):
    for seed in range(5):
        v, iters, converged = leading_eigenvector(lambda u: mat @ u, 3, seed=seed)
        ref_v, ref_iters, ref_converged = _reference_lanczos(lambda u: mat @ u, 3, seed)
        assert (v.tobytes(), iters, converged) == (ref_v.tobytes(), ref_iters, ref_converged)


def test_lanczos_rejects_non_finite_operator_output():
    with pytest.raises(NumericalFailure):
        leading_eigenvector(lambda u: np.full_like(u, np.inf), 3)
    with pytest.raises(NumericalFailure):
        leading_eigenvector(lambda u: np.full_like(u, np.nan), 3)


def test_mean_init_overflow_raises_instead_of_zero_direction():
    # With m <= 9 a single 1e200 outlier stays under the mean-based mask
    # (alpha_y^2 * mean(y) >= 1e200), so it enters the surrogate and the
    # squared norm of the operator's output overflows.
    ens = sample_ensemble(4, 8, seed=1)
    y = clean_measurements(ens, sample_signal(4, seed=2))
    y[0] = 1e200
    with np.errstate(over="ignore"), pytest.raises(NumericalFailure):
        mean_spectral_init(ens, y, seed=0)


def test_lanczos_rejects_bad_arguments():
    with pytest.raises(InvalidInputError):
        leading_eigenvector(lambda u: u, 0)
    with pytest.raises(InvalidInputError):
        leading_eigenvector(lambda u: u, 3.0)


# ------------------------------------------------------------ eigensolver


def _angle(u, v):
    """Angle between the lines spanned by u and v, accurate near zero."""
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return math.atan2(float(np.linalg.norm(u - (u @ v) * v)), abs(float(u @ v)))


@pytest.mark.parametrize("init", [median_spectral_init, mean_spectral_init])
@pytest.mark.parametrize(
    "spec",
    [CorruptionSpec(), CorruptionSpec(outlier_fraction=0.1, eta_max_rel=1.0)],
    ids=["clean", "outliers"],
)
def test_init_direction_matches_dense_eigh(init, spec):
    for seed in range(3):
        prob = generate_problem(64, 512, spec, master_seed=80 + seed)
        ens, y = prob.ensemble, prob.measurements.y
        res = init(ens, y, seed=derive_seed(prob.master_seed, TAG_INIT))
        weights = _surrogate_weights(y, res.lambda0)[0]
        theta, vecs = np.linalg.eigh((ens.rows.T * weights) @ ens.rows / ens.m)
        top = vecs[:, np.argmax(np.abs(theta))]
        assert res.converged
        assert _angle(res.z0, top) <= 1e-5


def test_eigensolver_picks_dominant_negative_eigenvalue():
    mat = np.diag([-3.0, 1.0, 0.5])
    v, iters, converged = leading_eigenvector(lambda u: mat @ u, 3)
    assert converged and iters <= 3
    np.testing.assert_allclose(np.abs(v), [1.0, 0.0, 0.0], atol=1e-12)


def test_median_init_cost_at_n512():
    # About 23 applies here; 30 leaves room for rounding, not for a slower solver.
    prob = generate_problem(512, 2048, CorruptionSpec(), 11)
    res = median_spectral_init(
        prob.ensemble, prob.measurements.y, seed=derive_seed(prob.master_seed, TAG_INIT)
    )
    assert res.converged and res.power_iters <= 30


# ------------------------------------------------------------- median init


def test_median_init_accuracy_noise_free():
    # Monte-Carlo-calibrated bound: at m = 50n the error distribution has
    # mean 0.27 and observed max 0.326 over these 100 seeds (power iteration
    # agrees with exact eigendecomposition to 6 digits, so this is the
    # method's true accuracy at this sampling ratio, not an eigensolver
    # artifact).
    n, m, hits = 64, 50 * 64, 0
    for seed in range(100):
        ens = sample_ensemble(n, m, seed=5000 + seed)
        x = sample_signal(n, seed=6000 + seed)
        res = median_spectral_init(ens, clean_measurements(ens, x), seed=0)
        assert np.linalg.norm(res.z0) == pytest.approx(res.lambda0, rel=1e-12)
        if relative_error(res.z0, x) <= 0.35:
            hits += 1
    assert hits >= 95


def test_median_init_accuracy_under_outliers():
    # Same calibration with 5% outliers of size 100*||x||^2: observed max
    # 0.364, barely above the clean case; the median scale and |y| mask
    # absorb the corruption.
    spec = CorruptionSpec(outlier_fraction=0.05, eta_max_rel=100.0)
    hits = 0
    for seed in range(100):
        prob = generate_problem(64, 50 * 64, spec, master_seed=7000 + seed)
        res = median_spectral_init(
            prob.ensemble, prob.measurements.y, seed=derive_seed(prob.master_seed, TAG_INIT)
        )
        if relative_error(res.z0, prob.signal) <= 0.37:
            hits += 1
    assert hits >= 95


def test_median_init_error_shrinks_with_oversampling():
    """At m = 200n every trial lands under 0.2 relative error."""
    for seed in range(20):
        ens = sample_ensemble(64, 200 * 64, seed=5000 + seed)
        x = sample_signal(64, seed=6000 + seed)
        res = median_spectral_init(ens, clean_measurements(ens, x), seed=0)
        assert relative_error(res.z0, x) <= 0.2


def test_median_init_all_zero_measurements_degenerate():
    ens = sample_ensemble(6, 40, seed=50)
    for init in (median_spectral_init, mean_spectral_init):
        with pytest.raises(DegenerateMeasurements):
            init(ens, np.zeros(40), seed=0)


def test_median_init_deterministic_and_mask_monotone_in_alpha_y(monkeypatch):
    ens = sample_ensemble(8, 120, seed=51)
    x = sample_signal(8, seed=52)
    y = clean_measurements(ens, x)
    y[::7] *= 50.0  # spread the magnitudes so the mask actually moves
    a = median_spectral_init(ens, y, seed=0)
    b = median_spectral_init(ens, y, seed=0)
    np.testing.assert_array_equal(a.z0, b.z0)
    counts = []
    for al in (0.5, 1.0, 2.0, 3.0, 5.0):
        monkeypatch.setattr(spectral_module, "_ALPHA_Y", al)
        counts.append(median_spectral_init(ens, y, seed=0).truncated_count)
    assert counts == sorted(counts)
    assert all(c <= 120 for c in counts)


# --------------------------------------------------------------- mean init


def test_mean_init_examples():
    ens = sample_ensemble(3, 3, seed=53)
    res = mean_spectral_init(ens, np.ones(3), seed=0)
    assert res.lambda0 == pytest.approx(1.0, rel=1e-12)


def test_mean_init_recovers_signal_norm_on_clean_data():
    ens = sample_ensemble(16, 100_000, seed=54)
    x = sample_signal(16, seed=55)
    x *= 2.0 / np.linalg.norm(x)
    res = mean_spectral_init(ens, clean_measurements(ens, x), seed=0)
    assert abs(res.lambda0 - 2.0) <= 0.05 * 2.0


def test_single_huge_outlier_breaks_mean_scale_but_not_median_scale():
    ens = sample_ensemble(8, 100, seed=56)
    y = np.ones(100)
    y[0] = 1e9
    assert mean_spectral_init(ens, y, seed=0).lambda0 > 1e3
    lam = median_spectral_init(ens, y, seed=0).lambda0
    assert 0.5 <= lam <= 2.0


def test_mean_init_rejects_negative_mean():
    ens = sample_ensemble(2, 2, seed=57)
    with pytest.raises(DegenerateMeasurements):
        mean_spectral_init(ens, np.array([-3.0, 1.0]), seed=0)


@pytest.mark.parametrize("init", [median_spectral_init, mean_spectral_init])
@pytest.mark.parametrize(
    "y",
    [
        np.ones(5), np.ones((6, 1)), np.empty(0),
        np.r_[np.ones(5), np.nan], np.r_[np.ones(5), np.inf],
    ],
    ids=["short", "2-D", "empty", "nan", "inf"],
)
def test_both_inits_reject_malformed_measurements(init, y):
    with pytest.raises(InvalidInputError):
        init(sample_ensemble(3, 6, seed=60), y, seed=0)


@pytest.mark.parametrize("init", [median_spectral_init, mean_spectral_init])
def test_both_inits_require_a_seed(init):
    # No fallback: a caller that omits the seed cannot start Lanczos elsewhere
    # than the solver does without noticing.
    with pytest.raises(TypeError):
        init(sample_ensemble(3, 6, seed=60), np.ones(6))


def test_init_result_shape_contract():
    ens = sample_ensemble(5, 60, seed=58)
    x = sample_signal(5, seed=59)
    res = median_spectral_init(ens, clean_measurements(ens, x), seed=0)
    assert isinstance(res, InitResult)
    assert res.z0.shape == (5,)
    assert 0 <= res.truncated_count <= 60
    assert res.power_iters >= 1
