"""Solver-level tests: hand-computed gradients, frozen-mask finite
differences, truncation statistics, convergence behavior, and the
curvature probe.

The finite-difference oracle differentiates the truncated losses with the
kept set held fixed at the evaluation point, which is exactly the function
whose gradient one descent step applies.
"""

import dataclasses
import math

import numpy as np
import pytest

import robustphase.solvers as solvers_module
from robustphase import (
    TAG_INIT,
    Algorithm,
    CorruptionSpec,
    InvalidInputError,
    MeasurementSet,
    ProblemInstance,
    SensingEnsemble,
    SolverConfig,
    clean_measurements,
    derive_seed,
    generate_problem,
    mean_spectral_init,
    median_spectral_init,
    mrwf_gradient,
    mtwf_gradient,
    rc_probe,
    run_solver,
    rwf_gradient,
    sample_ensemble,
    sample_median,
    sample_quantile,
    sample_signal,
    sign_flip_fraction,
    trimean_twf_gradient,
    twf_gradient,
    validate_twf_params,
)

MTWF = SolverConfig(algorithm=Algorithm.MEDIAN_TWF)
MRWF = SolverConfig(algorithm=Algorithm.MEDIAN_RWF)
TWF = SolverConfig(algorithm=Algorithm.MEAN_TWF)
RWF = SolverConfig(algorithm=Algorithm.PLAIN_RWF)

# Frozen closed-form values at the default thresholds (0.3, 5, 12).
ZETA1_DEFAULT = 0.23696455777197656
ZETA2_DEFAULT = 0.03125983309305114


# ------------------------------------------------------------ configuration


def test_config_validation():
    with pytest.raises(InvalidInputError, match="choose from median-twf, median-rwf"):
        SolverConfig(algorithm="bogus")
    with pytest.raises(InvalidInputError):
        SolverConfig(algorithm=Algorithm.MEDIAN_TWF, alpha_l=0.0)
    with pytest.raises(InvalidInputError):
        SolverConfig(algorithm=Algorithm.MEDIAN_TWF, alpha_l=6.0, alpha_u=5.0)
    with pytest.raises(InvalidInputError):
        SolverConfig(algorithm=Algorithm.MEDIAN_TWF, alpha_h=-1.0)
    with pytest.raises(InvalidInputError):
        SolverConfig(algorithm=Algorithm.MEDIAN_RWF, alpha_h_prime=0.0)
    with pytest.raises(InvalidInputError):
        SolverConfig(algorithm=Algorithm.MEDIAN_TWF, max_iters=0)
    with pytest.raises(InvalidInputError):
        SolverConfig(algorithm=Algorithm.MEDIAN_TWF, success_tol=0.0)
    with pytest.raises(InvalidInputError):
        SolverConfig(algorithm=Algorithm.TRIMEAN_TWF)  # needs known_s
    with pytest.raises(InvalidInputError):
        SolverConfig(algorithm=Algorithm.TRIMEAN_TWF, known_s=0.5)


def test_config_step_size_defaults():
    assert MTWF.step_size == 0.4
    assert TWF.step_size == 0.4
    assert SolverConfig(algorithm=Algorithm.TRIMEAN_TWF, known_s=0.1).step_size == 0.4
    assert MRWF.step_size == 0.8
    assert SolverConfig(algorithm=Algorithm.PLAIN_RWF).step_size == 0.8


def test_config_accepts_string_algorithm():
    cfg = SolverConfig(algorithm="median-rwf")
    assert cfg.algorithm is Algorithm.MEDIAN_RWF


def test_validate_twf_params_defaults():
    zeta1, zeta2, holds = validate_twf_params(MTWF)
    assert zeta1 == pytest.approx(ZETA1_DEFAULT, abs=1e-12)
    assert zeta2 == pytest.approx(ZETA2_DEFAULT, abs=1e-12)
    assert abs(zeta1 - 0.24) <= 0.01
    assert abs(zeta2 - 0.032) <= 0.01
    assert holds


def test_validate_twf_params_degenerate_band():
    cfg = SolverConfig(algorithm=Algorithm.MEDIAN_TWF, alpha_l=2.0, alpha_u=2.0)
    zeta1, _, holds = validate_twf_params(cfg)
    assert zeta1 == 1.0
    assert not holds


def test_validate_twf_params_huge_alpha_h():
    cfg = SolverConfig(algorithm=Algorithm.MEDIAN_TWF, alpha_h=1e6)
    _, zeta2, _ = validate_twf_params(cfg)
    assert zeta2 < 1e-12


# --------------------------------------------------------- gradient examples


def _perfect_instance(n=10, m=80, seed=60):
    ens = sample_ensemble(n, m, seed=seed)
    x = sample_signal(n, seed=seed + 1)
    return ens, x, clean_measurements(ens, x)


def test_intensity_gradients_vanish_at_truth():
    ens, x, y = _perfect_instance()
    for fn, cfg in (
        (mtwf_gradient, MTWF),
        (twf_gradient, TWF),
        (trimean_twf_gradient, SolverConfig(algorithm=Algorithm.TRIMEAN_TWF, known_s=0.1)),
    ):
        g, kept, stat = fn(ens, y, x, cfg)
        np.testing.assert_array_equal(g, np.zeros(10))
        assert stat == 0.0
        assert kept > 0


def test_amplitude_gradients_vanish_at_truth():
    ens, x, y = _perfect_instance()
    g, kept, stat = mrwf_gradient(ens, y, -x, MRWF)  # sign flip is also a truth
    np.testing.assert_allclose(g, np.zeros(10), atol=1e-12)
    assert stat == 0.0
    g_rwf, _, _ = rwf_gradient(ens, y, x, RWF)
    np.testing.assert_allclose(g_rwf, np.zeros(10), atol=1e-12)


def test_mtwf_single_sample_hand_computation():
    ens = SensingEnsemble(rows=np.array([[1.0, 0.0]]), seed=0)
    y = np.array([1.0])
    z = np.array([2.0, 0.0])
    g, kept, kt = mtwf_gradient(ens, y, z, MTWF)
    np.testing.assert_allclose(g, [1.5, 0.0])
    assert kept == 1
    assert kt == 3.0


def test_mrwf_single_sample_hand_computation():
    ens = SensingEnsemble(rows=np.array([[1.0, 0.0]]), seed=0)
    g, kept, mt = mrwf_gradient(ens, np.array([1.0]), np.array([2.0, 0.0]), MRWF)
    np.testing.assert_allclose(g, [1.0, 0.0])
    assert kept == 1
    assert mt == 1.0
    g_rwf, _, _ = rwf_gradient(ens, np.array([1.0]), np.array([2.0, 0.0]), RWF)
    np.testing.assert_allclose(g_rwf, [1.0, 0.0])


def test_gradients_reject_zero_iterate():
    ens, x, y = _perfect_instance()
    for fn in (mtwf_gradient, twf_gradient, mrwf_gradient):
        with pytest.raises(InvalidInputError):
            fn(ens, y, np.zeros(10), MTWF)
    with pytest.raises(InvalidInputError):
        rwf_gradient(ens, y, np.zeros(10), RWF)
    with pytest.raises(InvalidInputError):
        mtwf_gradient(ens, y[:-1], x, MTWF)


def test_mean_statistic_explodes_under_one_outlier_median_does_not():
    ens, x, y = _perfect_instance(n=8, m=100, seed=62)
    y = y.copy()
    y[0] += 1e9
    z = 1.01 * x
    _, _, k_mean = twf_gradient(ens, y, z, TWF)
    _, _, k_med = mtwf_gradient(ens, y, z, MTWF)
    assert k_mean > 1e7
    assert k_mean / k_med >= 1e6


def test_mrwf_keeps_majority_when_threshold_at_least_one():
    rng = np.random.Generator(np.random.Philox(key=63))
    for trial in range(20):
        n, m = 6, int(rng.integers(11, 101))
        ens = sample_ensemble(n, m, seed=640 + trial)
        x = sample_signal(n, seed=740 + trial)
        y = clean_measurements(ens, x)
        y[: m // 4] += rng.uniform(0.0, 50.0, m // 4)  # some corruption
        z = rng.standard_normal(n)
        cfg = SolverConfig(algorithm=Algorithm.MEDIAN_RWF, alpha_h_prime=1.0)
        _, kept, _ = mrwf_gradient(ens, y, z, cfg)
        assert kept >= math.ceil(m / 2)


def test_rwf_equals_truncation_free_mrwf():
    ens, x, y = _perfect_instance(n=7, m=50, seed=65)
    z = sample_signal(7, seed=66)
    cfg = SolverConfig(algorithm=Algorithm.MEDIAN_RWF, alpha_h_prime=1e12)
    g_m, kept, _ = mrwf_gradient(ens, y, z, cfg)
    g_rwf, _, _ = rwf_gradient(ens, y, z, RWF)
    np.testing.assert_array_equal(g_m, g_rwf)
    assert kept == 50


def test_trimean_with_zero_s_is_exactly_mean_twf():
    ens, x, y = _perfect_instance(n=9, m=70, seed=67)
    y = y.copy()
    y[:7] += 25.0
    z = sample_signal(9, seed=68)
    cfg0 = SolverConfig(algorithm=Algorithm.TRIMEAN_TWF, known_s=0.0)
    g_tri, kept_tri, stat_tri = trimean_twf_gradient(ens, y, z, cfg0)
    g_twf, kept_twf, stat_twf = twf_gradient(ens, y, z, TWF)
    np.testing.assert_array_equal(g_tri, g_twf)
    assert (kept_tri, stat_tri) == (kept_twf, stat_twf)


def test_trimean_removes_the_single_outlier():
    ens, x, y = _perfect_instance(n=8, m=50, seed=69)
    y = y.copy()
    y[13] += 1e9
    z = 1.02 * x
    cfg = SolverConfig(algorithm=Algorithm.TRIMEAN_TWF, known_s=1.0 / 50.0)
    _, _, stat = trimean_twf_gradient(ens, y, z, cfg)
    resid = np.abs(y - (ens.rows @ z) ** 2)
    assert stat == float(np.delete(resid, 13).mean())


def test_median_statistic_is_outlier_insensitive():
    """Corrupting 40% of residuals moves K_t at most between the clean
    0.1 and 0.9 quantiles."""
    ens, x, y = _perfect_instance(n=16, m=200, seed=71)
    rng = np.random.Generator(np.random.Philox(key=72))
    u = rng.standard_normal(16)
    z = x + 0.1 * u / np.linalg.norm(u)
    resid_clean = np.abs(y - (ens.rows @ z) ** 2)
    y_bad = y.copy()
    idx = rng.permutation(200)[: int(0.4 * 200)]
    y_bad[idx] += 1e9
    _, _, k_bad = mtwf_gradient(ens, y_bad, z, MTWF)
    assert sample_quantile(resid_clean, 0.1) <= k_bad
    assert k_bad <= sample_quantile(resid_clean, 0.9)


# ------------------------------------------- frozen-mask finite differences


def _central_difference(loss, z, h):
    g = np.zeros_like(z)
    for j in range(z.size):
        step = np.zeros_like(z)
        step[j] = h
        g[j] = (loss(z + step) - loss(z - step)) / (2.0 * h)
    return g


def _intensity_loss_on(rows, y, keep):
    def loss(u):
        au = rows[keep] @ u
        return float(np.sum(au**2 - y[keep] * np.log(au**2))) / (2.0 * rows.shape[0])

    return loss


def _amplitude_loss_on(rows, y, keep):
    sqrt_y = np.sqrt(np.maximum(y, 0.0))

    def loss(u):
        au = rows[keep] @ u
        return float(np.sum((sqrt_y[keep] - np.abs(au)) ** 2)) / (2.0 * rows.shape[0])

    return loss


def _random_point(rng, tag):
    n = int(rng.integers(3, 11))
    m = int(rng.integers(12, 41))
    ens = sample_ensemble(n, m, seed=int(rng.integers(2**31)))
    x = sample_signal(n, seed=int(rng.integers(2**31)))
    y = clean_measurements(ens, x)
    if rng.random() < 0.5:  # make some masks genuinely partial
        k = max(1, m // 10)
        y[rng.permutation(m)[:k]] += rng.uniform(0.0, 5.0 * float(x @ x), k)
    z = rng.standard_normal(n)
    z *= float(rng.uniform(1.0, 3.0)) / np.linalg.norm(z)
    return ens, y, z


@pytest.mark.parametrize("family", ["median", "mean", "amplitude"])
def test_frozen_mask_gradients_match_finite_differences(family):
    rng = np.random.Generator(np.random.Philox(key=hash(family) % (2**31)))
    checked = 0
    while checked < 100:
        ens, y, z = _random_point(rng, family)
        az = ens.rows @ z
        z_norm = float(np.linalg.norm(z))
        if family == "amplitude":
            resid = np.abs(np.sqrt(np.maximum(y, 0.0)) - np.abs(az))
            keep = resid <= MRWF.alpha_h_prime * sample_median(resid)
            if keep.sum() == 0 or np.min(np.abs(az[keep])) <= 0.1:
                continue  # keep the loss smooth at the evaluation point
            grad, kept, _ = mrwf_gradient(ens, y, z, MRWF)
            loss = _amplitude_loss_on(ens.rows, y, keep)
        else:
            resid = np.abs(y - az**2)
            stat = sample_median(resid) if family == "median" else float(resid.mean())
            keep = (
                (np.abs(az) >= MTWF.alpha_l * z_norm)
                & (np.abs(az) <= MTWF.alpha_u * z_norm)
                & (resid <= MTWF.alpha_h * stat * np.abs(az) / z_norm)
            )
            if keep.sum() == 0 or np.min(np.abs(az[keep])) <= 0.1:
                continue
            fn = mtwf_gradient if family == "median" else twf_gradient
            grad, kept, _ = fn(ens, y, z, MTWF if family == "median" else TWF)
            loss = _intensity_loss_on(ens.rows, y, keep)
        assert kept == int(keep.sum())  # the test mask replicates the rule
        fd = _central_difference(loss, z, h=1e-6 * max(1.0, z_norm))
        scale = float(np.linalg.norm(grad))
        if scale < 1e-8:
            continue
        assert float(np.linalg.norm(fd - grad)) / scale <= 1e-5
        checked += 1


# ------------------------------------------------------------------- solver


def _success_count(algorithm, n, m, spec, n_trials, base_seed, **cfg_kw):
    cfg = SolverConfig(algorithm=algorithm, **cfg_kw)
    wins = 0
    for trial in range(n_trials):
        prob = generate_problem(n, m, spec, master_seed=base_seed + trial)
        trace = run_solver(prob, cfg)
        if trace.final_error <= cfg.success_tol:
            wins += 1
    return wins


def test_median_twf_recovers_noise_free():
    wins = _success_count(Algorithm.MEDIAN_TWF, 64, 6 * 64, CorruptionSpec(), 20, 9000)
    assert wins >= 18


def test_median_rwf_recovers_noise_free():
    wins = _success_count(Algorithm.MEDIAN_RWF, 64, 6 * 64, CorruptionSpec(), 20, 9000)
    assert wins >= 18


def test_mean_twf_fails_under_outliers():
    spec = CorruptionSpec(outlier_fraction=0.05, eta_max_rel=1.0)
    wins = _success_count(Algorithm.MEAN_TWF, 64, 8 * 64, spec, 20, 9100)
    assert wins == 0


def test_trimean_twf_survives_outliers_with_known_fraction():
    spec = CorruptionSpec(outlier_fraction=0.05, eta_max_rel=1.0)
    wins = _success_count(
        Algorithm.TRIMEAN_TWF, 64, 8 * 64, spec, 10, 9200, known_s=0.05
    )
    assert wins >= 8


def test_traces_are_bitwise_deterministic():
    spec = CorruptionSpec(outlier_fraction=0.1, eta_max_rel=1.0)
    prob = generate_problem(32, 256, spec, master_seed=77)
    a = run_solver(prob, MTWF)
    b = run_solver(prob, MTWF)
    np.testing.assert_array_equal(a.errors, b.errors)
    np.testing.assert_array_equal(a.final_z, b.final_z)
    np.testing.assert_array_equal(a.kept, b.kept)
    np.testing.assert_array_equal(a.median_stat, b.median_stat)


def test_trace_is_sign_equivariant():
    prob = generate_problem(32, 256, CorruptionSpec(), master_seed=78)
    flipped = dataclasses.replace(prob, signal=-prob.signal)
    a = run_solver(prob, MRWF)
    b = run_solver(flipped, MRWF)
    np.testing.assert_array_equal(a.errors, b.errors)
    np.testing.assert_array_equal(a.final_z, b.final_z)


def test_trace_alignment_and_early_stop():
    prob = generate_problem(48, 6 * 48, CorruptionSpec(), master_seed=79)
    trace = run_solver(prob, MTWF)
    assert trace.final_error <= 1e-8
    assert trace.converged_at == trace.iterations  # stopped right there
    for arr in (trace.kept, trace.median_stat, trace.gradient_norms):
        assert len(arr) == len(trace.errors)
    assert trace.iterations <= MTWF.max_iters
    assert not trace.degenerate


def test_fixed_iteration_mode_runs_to_budget():
    prob = generate_problem(48, 6 * 48, CorruptionSpec(), master_seed=79)
    cfg = SolverConfig(
        algorithm=Algorithm.MEDIAN_TWF, max_iters=60, fixed_iterations=True
    )
    trace = run_solver(prob, cfg)
    assert trace.iterations == 60
    assert len(trace.errors) == 61


GRADIENT_NAMES = {
    Algorithm.MEDIAN_TWF: "mtwf_gradient",
    Algorithm.MEDIAN_RWF: "mrwf_gradient",
    Algorithm.MEAN_TWF: "twf_gradient",
    Algorithm.PLAIN_RWF: "rwf_gradient",
    Algorithm.TRIMEAN_TWF: "trimean_twf_gradient",
}


def _reference_run(problem, cfg):
    """run_solver's loop with every iterate computed: no cycle replay."""
    init_fn = median_spectral_init if cfg.algorithm.uses_median_init else mean_spectral_init
    init = init_fn(
        problem.ensemble, problem.measurements.y, alpha_y=cfg.alpha_y,
        seed=derive_seed(problem.master_seed, TAG_INIT),
    )
    gradient_fn = getattr(solvers_module, GRADIENT_NAMES[cfg.algorithm])
    x, z = problem.signal, init.z0
    columns, converged_at = [], None
    for t in range(cfg.max_iters + 1):
        err = min(np.linalg.norm(z - x), np.linalg.norm(z + x)) / np.linalg.norm(x)
        gradient, kept, stat = gradient_fn(problem.ensemble, problem.measurements.y, z, cfg)
        g_norm = np.linalg.norm(gradient)
        columns.append((err, kept, stat, g_norm))
        if converged_at is None and err <= cfg.success_tol:
            converged_at = t
        if not cfg.fixed_iterations and (converged_at is not None or g_norm <= 1e-14):
            break
        if t < cfg.max_iters:
            z = z - cfg.step_size * gradient
    errors, kept, stats, g_norms = (np.array(c) for c in zip(*columns))
    return errors, kept.astype(np.int64), stats, g_norms, z, converged_at


def _scaled(problem, c):
    # With c a power of two, iterates and gradients scale by c (the kernel's
    # scaling property) while relative errors stay as they were.
    return dataclasses.replace(
        problem,
        signal=c * problem.signal,
        measurements=dataclasses.replace(
            problem.measurements, y=c * c * problem.measurements.y
        ),
    )


REPLAY_PROBLEM = dict(
    n=64, m=512, spec=CorruptionSpec(outlier_fraction=0.1, eta_max_rel=1.0), master_seed=1
)


@pytest.mark.parametrize(
    "algorithm, fixed, scale, tol, period",
    [
        # median-RWF reaches a bitwise fixed point.
        (Algorithm.MEDIAN_RWF, True, 1.0, 1e-8, 1),
        # median-TWF ends in a cycle of two iterates.
        (Algorithm.MEDIAN_TWF, True, 1.0, 1e-8, 2),
        # Early stopping on: the same cycle scaled by 2^40 keeps every
        # gradient norm above the 1e-14 floor, and no error reaches a
        # 1e-20 tolerance, so the run cycles instead of stopping.
        (Algorithm.MEDIAN_TWF, False, 2.0**40, 1e-20, 2),
    ],
)
def test_cycle_replay_matches_full_recomputation(
    algorithm, fixed, scale, tol, period, monkeypatch
):
    problem = _scaled(generate_problem(**REPLAY_PROBLEM), scale)
    cfg = SolverConfig(
        algorithm=algorithm, max_iters=500, fixed_iterations=fixed, success_tol=tol
    )
    errors, kept, stats, g_norms, final_z, converged_at = _reference_run(problem, cfg)
    assert len(errors) == cfg.max_iters + 1
    # The reference trace really ends in a cycle of the expected period.
    assert errors[-period:].tobytes() == errors[-2 * period : -period].tobytes()
    assert fixed or min(g_norms) > 1e-14

    name = GRADIENT_NAMES[algorithm]
    original, calls = getattr(solvers_module, name), []

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(solvers_module, name, counting)
    trace = run_solver(problem, cfg)
    assert len(calls) < cfg.max_iters + 1  # the tail was replayed, not recomputed
    assert trace.errors.tobytes() == errors.tobytes()
    assert trace.kept.tobytes() == kept.tobytes()
    assert trace.median_stat.tobytes() == stats.tobytes()
    assert trace.gradient_norms.tobytes() == g_norms.tobytes()
    assert trace.final_z.tobytes() == final_z.tobytes()
    assert trace.converged_at == converged_at


def test_degenerate_measurements_flagged_not_raised():
    ens = sample_ensemble(4, 12, seed=80)
    x = sample_signal(4, seed=81)
    prob = ProblemInstance(
        signal=x,
        ensemble=ens,
        measurements=MeasurementSet(
            y=np.zeros(12), outlier_support=np.empty(0, dtype=np.int64),
            noise=np.zeros(12),
        ),
        corruption=CorruptionSpec(),
        master_seed=0,
    )
    trace = run_solver(prob, MTWF)
    assert trace.degenerate
    assert len(trace.errors) == 1
    assert trace.errors[0] == 1.0  # z0 = 0 sits at unit relative error


# ---------------------------------------------------------- empirical bands


def test_residual_median_tracks_error_product():
    """Median intensity residual stays within [0.55, 1.05] * ||z|| * ||z-x||,
    and the amplitude counterpart within [0.45, 0.85] * ||z-x||."""
    rng = np.random.Generator(np.random.Philox(key=31415))
    hits5 = hits8 = 0
    for seed in range(100):
        ens = sample_ensemble(64, 6000, seed=8000 + seed)
        x = sample_signal(64, seed=8100 + seed)
        y = clean_measurements(ens, x)
        u = rng.standard_normal(64)
        u /= np.linalg.norm(u)
        z = x + (np.linalg.norm(x) / 20.0) * u
        z_norm = float(np.linalg.norm(z))
        gap = float(np.linalg.norm(z - x))
        _, _, kt = mtwf_gradient(ens, y, z, MTWF)
        if 0.55 * z_norm * gap <= kt <= 1.05 * z_norm * gap:
            hits5 += 1
        _, _, mt = mrwf_gradient(ens, y, z, MRWF)
        if 0.45 * gap <= mt <= 0.85 * gap:
            hits8 += 1
    assert hits5 >= 95
    assert hits8 >= 95


def test_sign_flips_are_rare_near_the_truth():
    rng = np.random.Generator(np.random.Philox(key=27182))
    hits = 0
    for seed in range(100):
        ens = sample_ensemble(64, 50 * 64, seed=8200 + seed)
        x = sample_signal(64, seed=8300 + seed)
        u = rng.standard_normal(64)
        u /= np.linalg.norm(u)
        z = x + (np.linalg.norm(x) / 11.0) * 0.999 * u
        if sign_flip_fraction(ens, x, z) < 0.07:
            hits += 1
    assert hits >= 95


# ----------------------------------------------------------------- rc probe


def test_rc_probe_at_truth_is_zero():
    ens, x, y = _perfect_instance(n=12, m=96, seed=82)
    inner, grad_norm, d = rc_probe(ens, y, x, x, MTWF)
    assert inner == 0.0 and grad_norm == 0.0 and d == 0.0


def test_rc_probe_positive_curvature_near_truth():
    hits = 0
    for seed in range(100):
        ens = sample_ensemble(64, 8 * 64, seed=8400 + seed)
        x = sample_signal(64, seed=8500 + seed)
        y = clean_measurements(ens, x)
        inner, _, _ = rc_probe(ens, y, 1.05 * x, x, MTWF)
        if inner > 0.0:
            hits += 1
    assert hits >= 99


def test_rc_probe_respects_cauchy_schwarz():
    rng = np.random.Generator(np.random.Philox(key=84))
    for trial in range(50):
        ens, x, y = _perfect_instance(n=8, m=64, seed=8600 + trial)
        z = rng.standard_normal(8) * float(rng.uniform(0.3, 3.0))
        inner, grad_norm, d = rc_probe(ens, y, z, x, MTWF)
        assert inner <= grad_norm * d * (1.0 + 1e-12) + 1e-15
