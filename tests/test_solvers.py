"""Solver-level tests: hand-computed gradients, truncation statistics,
convergence behavior, and the sign of the regularity inner product near the
truth.

The frozen-mask finite-difference check, the residual-statistic bands and
the sign-flip rate live in ``test_acceptance.py`` (criterion 7) alone.
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
    DegenerateMeasurements,
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
    run_solver,
    rwf_gradient,
    sample_ensemble,
    sample_quantile,
    sample_signal,
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
        SolverConfig(algorithm=Algorithm.MEDIAN_TWF, max_iters=0)
    with pytest.raises(InvalidInputError):
        SolverConfig(algorithm=Algorithm.MEDIAN_TWF, success_tol=0.0)
    # NaN and inf fail the tolerance check (an infinite one would call any
    # start a success), and a count must be integral: a fractional fixed-T
    # budget would never meet t == max_iters.
    for bad in (
        dict(success_tol=float("nan")), dict(success_tol=float("inf")),
        dict(max_iters=3.5), dict(max_iters=3.0),
    ):
        with pytest.raises(InvalidInputError):
            SolverConfig(algorithm=Algorithm.MEAN_TWF, fixed_iterations=True, **bad)
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
    zeta1, zeta2, holds = validate_twf_params()
    assert zeta1 == pytest.approx(ZETA1_DEFAULT, abs=1e-12)
    assert zeta2 == pytest.approx(ZETA2_DEFAULT, abs=1e-12)
    assert abs(zeta1 - 0.24) <= 0.01
    assert abs(zeta2 - 0.032) <= 0.01
    assert holds


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
    ens = SensingEnsemble(rows=np.array([[1.0, 0.0]]))
    y = np.array([1.0])
    z = np.array([2.0, 0.0])
    g, kept, kt = mtwf_gradient(ens, y, z, MTWF)
    np.testing.assert_allclose(g, [1.5, 0.0])
    assert kept == 1
    assert kt == 3.0


def test_mrwf_single_sample_hand_computation():
    ens = SensingEnsemble(rows=np.array([[1.0, 0.0]]))
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
    for bad_y, bad_z in (
        (y[:-1], x), (y[None, :], x), (y[:0], x), (y, x[:-1]), (y, x[None, :]), (y, x[:0]),
    ):
        with pytest.raises(InvalidInputError):
            mtwf_gradient(ens, bad_y, bad_z, MTWF)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("fn, cfg", [
    (mtwf_gradient, MTWF), (twf_gradient, TWF), (mrwf_gradient, MRWF), (rwf_gradient, RWF),
], ids=["median-twf", "twf", "median-rwf", "rwf"])
def test_gradients_refuse_a_nonfinite_measurement(fn, cfg, bad):
    # One bad y_i makes the screening statistic non-finite.  Unchecked, the
    # mean would turn a NaN into a zero gradient (every E2 test fails) and an
    # inf into a NaN one; the median refuses it in sample_median.
    ens, x, y = _perfect_instance(n=8, m=64)
    y = y.copy()
    y[5] = bad
    with pytest.raises(InvalidInputError):
        fn(ens, y, 1.01 * x, cfg)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_trimmed_statistic_trims_a_nonfinite_measurement(bad):
    ens, x, y = _perfect_instance(n=8, m=64)
    y = y.copy()
    y[5] = bad
    cfg = SolverConfig(algorithm=Algorithm.TRIMEAN_TWF, known_s=0.1)
    g, kept, stat = trimean_twf_gradient(ens, y, 1.01 * x, cfg)
    assert np.isfinite(g).all() and math.isfinite(stat) and 0 < kept < 64


@pytest.mark.parametrize("fn, cfg", [
    (mtwf_gradient, MTWF),
    (twf_gradient, TWF),
    (trimean_twf_gradient, SolverConfig(algorithm=Algorithm.TRIMEAN_TWF, known_s=0.0)),
], ids=["median", "mean", "trimmed"])
def test_e1_lower_bound_keeps_its_tie(fn, cfg):
    # With z = e_1 the first row has |a.z| = 0.3 = alpha_l ||z|| exactly; every
    # residual is 0.01, well inside E2, so only E1 could drop a row.
    ens = SensingEnsemble(rows=np.array([[0.3, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    z = np.array([1.0, 0.0])
    y = (ens.rows @ z) ** 2 + 0.01
    _, kept, _ = fn(ens, y, z, cfg)
    assert kept == 3


def test_mean_statistic_explodes_under_one_outlier_median_does_not():
    ens, x, y = _perfect_instance(n=8, m=100, seed=62)
    y = y.copy()
    y[0] += 1e9
    z = 1.01 * x
    _, _, k_mean = twf_gradient(ens, y, z, TWF)
    _, _, k_med = mtwf_gradient(ens, y, z, MTWF)
    assert k_mean > 1e7
    assert k_mean / k_med >= 1e6


def test_mrwf_keeps_majority_when_threshold_at_least_one(monkeypatch):
    monkeypatch.setattr(solvers_module, "_ALPHA_H_PRIME", 1.0)
    rng = np.random.Generator(np.random.Philox(key=63))
    for trial in range(20):
        n, m = 6, int(rng.integers(11, 101))
        ens = sample_ensemble(n, m, seed=640 + trial)
        x = sample_signal(n, seed=740 + trial)
        y = clean_measurements(ens, x)
        y[: m // 4] += rng.uniform(0.0, 50.0, m // 4)  # some corruption
        z = rng.standard_normal(n)
        _, kept, _ = mrwf_gradient(ens, y, z, MRWF)
        assert kept >= math.ceil(m / 2)


def test_rwf_equals_truncation_free_mrwf(monkeypatch):
    monkeypatch.setattr(solvers_module, "_ALPHA_H_PRIME", 1e12)
    ens, x, y = _perfect_instance(n=7, m=50, seed=65)
    z = sample_signal(7, seed=66)
    g_m, kept, _ = mrwf_gradient(ens, y, z, MRWF)
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


def test_trimean_cut_uses_the_guarded_rank():
    # 0.07 * 100 is 7.000000000000001 in binary; exactly 7 residuals go
    ens, x, y = _perfect_instance(n=6, m=100, seed=70)
    z = sample_signal(6, seed=72)
    cfg = SolverConfig(algorithm=Algorithm.TRIMEAN_TWF, known_s=0.07)
    _, _, stat = trimean_twf_gradient(ens, y, z, cfg)
    smallest = np.sort(np.abs(y - (ens.rows @ z) ** 2))
    assert stat == pytest.approx(smallest[:93].mean(), rel=1e-12)
    assert stat != pytest.approx(smallest[:92].mean(), rel=1e-6)


def test_trim_mask_is_the_first_k_of_a_stable_argsort():
    # Integer residuals tie often; NaN and inf rank last, as a sort puts them.
    rng = np.random.Generator(np.random.Philox(key=73))
    for m in range(1, 41):
        for _ in range(3):
            r = rng.integers(0, 6, size=m).astype(float)
            r[rng.random(m) < 0.15] = np.nan
            r[rng.random(m) < 0.1] = np.inf
            for k in range(1, m + 1):
                expected = np.zeros(m, dtype=bool)
                expected[np.argsort(r, kind="stable")[:k]] = True
                np.testing.assert_array_equal(solvers_module._smallest(r, k), expected)


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
    for arr in (trace.kept, trace.median_stat):
        assert len(arr) == len(trace.errors)
    assert trace.iterations <= MTWF.max_iters


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
# The mean-statistic and untruncated baselines start from the mean init.
MEDIAN_INIT = {Algorithm.MEDIAN_TWF, Algorithm.MEDIAN_RWF, Algorithm.TRIMEAN_TWF}


def _reference_run(problem, cfg):
    """run_solver's loop with every iterate computed, a stationary iterate
    (||g|| <= 2^-50 ||z||) held in place rather than stepped.  Returns the
    trace's columns, the final iterate, ``converged_at`` and the first
    stationary t (None if no iterate was stationary)."""
    init_fn = median_spectral_init if cfg.algorithm in MEDIAN_INIT else mean_spectral_init
    init = init_fn(
        problem.ensemble, problem.measurements.y,
        seed=derive_seed(problem.master_seed, TAG_INIT),
    )
    gradient_fn = getattr(solvers_module, GRADIENT_NAMES[cfg.algorithm])
    x, z = problem.signal, init.z0
    columns, converged_at, held_at = [], None, None
    for t in range(cfg.max_iters + 1):
        err = min(np.linalg.norm(z - x), np.linalg.norm(z + x)) / np.linalg.norm(x)
        gradient, kept, stat = gradient_fn(problem.ensemble, problem.measurements.y, z, cfg)
        stationary = np.linalg.norm(gradient) <= 2.0**-50 * np.linalg.norm(z)
        columns.append((err, kept, stat))
        if converged_at is None and err <= cfg.success_tol:
            converged_at = t
        if held_at is None and stationary:
            held_at = t
        if not cfg.fixed_iterations and (converged_at is not None or stationary):
            break
        if t < cfg.max_iters and not stationary:
            z = z - cfg.step_size * gradient
    errors, kept, stats = (np.array(c) for c in zip(*columns))
    return errors, kept.astype(np.int64), stats, z, converged_at, held_at


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


OUTLIER_PROBLEM = dict(
    n=64, m=512, spec=CorruptionSpec(outlier_fraction=0.1, eta_max_rel=1.0), master_seed=1
)


@pytest.mark.parametrize("algorithm", [Algorithm.MEDIAN_RWF, Algorithm.MEDIAN_TWF])
def test_a_held_fixed_budget_trace_repeats_the_held_row(algorithm, monkeypatch):
    problem = generate_problem(**OUTLIER_PROBLEM)
    cfg = SolverConfig(algorithm=algorithm, max_iters=500, fixed_iterations=True)
    errors, kept, stats, final_z, converged_at, held_at = _reference_run(problem, cfg)
    assert held_at is not None and held_at < cfg.max_iters

    name = GRADIENT_NAMES[algorithm]
    original, calls = getattr(solvers_module, name), []

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(solvers_module, name, counting)
    trace = run_solver(problem, cfg)
    assert len(calls) == held_at + 1  # no gradient after the hold
    assert trace.iterations == cfg.max_iters
    for column, reference in (
        (trace.errors, errors), (trace.kept, kept), (trace.median_stat, stats),
    ):
        assert len(column) == cfg.max_iters + 1
        held_rows = np.repeat(column[held_at : held_at + 1], cfg.max_iters + 1 - held_at)
        assert column[held_at:].tobytes() == held_rows.tobytes()
        assert column.tobytes() == reference.tobytes()  # the rows a full loop computes
    assert trace.final_z.tobytes() == final_z.tobytes()
    assert trace.converged_at == converged_at


@pytest.mark.parametrize("fixed", [False, True], ids=["early-stop", "fixed-T"])
@pytest.mark.parametrize("algorithm", [Algorithm.MEDIAN_TWF, Algorithm.MEDIAN_RWF])
def test_runs_are_bitwise_invariant_under_power_of_two_scaling(algorithm, fixed):
    # A 1e-20 tolerance is never met, so an early-stop run ends on the
    # stationarity rule, which must trip at the same t in every unit.
    problem = generate_problem(**OUTLIER_PROBLEM)
    cfg = SolverConfig(algorithm=algorithm, success_tol=1e-20, fixed_iterations=fixed)
    base = run_solver(problem, cfg)
    assert fixed or base.iterations < cfg.max_iters
    for c in (2.0**-40, 2.0**40):
        scaled = run_solver(_scaled(problem, c), cfg)
        assert scaled.errors.tobytes() == base.errors.tobytes()
        assert scaled.kept.tobytes() == base.kept.tobytes()
        assert scaled.iterations == base.iterations
        assert scaled.final_z.tobytes() == (c * base.final_z).tobytes()


CONVERGING_PROBLEM = dict(n=64, m=512, spec=CorruptionSpec(), master_seed=1)


def _trimmed_if_needed(algorithm, **kw):
    known_s = 0.05 if algorithm is Algorithm.TRIMEAN_TWF else None
    return SolverConfig(algorithm=algorithm, known_s=known_s, **kw)


@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_fixed_budget_errors_after_the_loop_match_the_reference(algorithm):
    problem = generate_problem(**CONVERGING_PROBLEM)
    cfg = _trimmed_if_needed(algorithm, fixed_iterations=True)
    errors, kept, stats, final_z, converged_at, _ = _reference_run(problem, cfg)
    trace = run_solver(problem, cfg)
    assert converged_at is not None
    assert trace.errors.tobytes() == errors.tobytes()
    assert trace.kept.tobytes() == kept.tobytes()
    assert trace.median_stat.tobytes() == stats.tobytes()
    assert trace.final_z.tobytes() == final_z.tobytes()
    assert trace.converged_at == converged_at

    early = run_solver(problem, _trimmed_if_needed(algorithm))
    assert early.converged_at == early.iterations == converged_at
    assert early.errors.tobytes() == trace.errors[: converged_at + 1].tobytes()


def test_converged_at_is_the_first_error_at_or_below_the_tolerance():
    problem = generate_problem(**CONVERGING_PROBLEM)
    cfg = SolverConfig(algorithm=Algorithm.MEDIAN_TWF, max_iters=100, fixed_iterations=True)
    errors = run_solver(problem, cfg).errors
    j = int(np.flatnonzero(errors <= 1e-3)[0])  # every earlier error is larger
    tied = dataclasses.replace(cfg, success_tol=float(errors[j]))
    assert run_solver(problem, tied).converged_at == j
    early = run_solver(problem, dataclasses.replace(tied, fixed_iterations=False))
    assert early.converged_at == early.iterations == j


def test_degenerate_measurements_raise():
    ens = sample_ensemble(4, 12, seed=80)
    x = sample_signal(4, seed=81)
    prob = ProblemInstance(
        signal=x,
        ensemble=ens,
        measurements=MeasurementSet(
            y=np.zeros(12), outlier_support=np.empty(0, dtype=np.int64),
            noise=np.zeros(12),
        ),
        master_seed=0,
    )
    with pytest.raises(DegenerateMeasurements):
        run_solver(prob, MTWF)


# ------------------------------------------------------- regularity condition


def test_regularity_inner_product_positive_near_truth():
    # <g(z), z - x> > 0 at z = 1.05 x: the step -mu g points towards x
    hits = 0
    for seed in range(100):
        ens = sample_ensemble(64, 8 * 64, seed=8400 + seed)
        x = sample_signal(64, seed=8500 + seed)
        y = clean_measurements(ens, x)
        z = 1.05 * x
        g, _, _ = mtwf_gradient(ens, y, z, MTWF)
        if g @ (z - x) > 0.0:
            hits += 1
    assert hits >= 99
