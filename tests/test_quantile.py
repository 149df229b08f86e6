"""Order statistics and the distribution oracles behind median truncation.

The oracles in this file are deliberately independent of the package: K0
comes from direct quadrature of its integral representation (cross-checked
against the ascending series), chi-square facts from scipy.stats, the
rho = 0 product-Gaussian CDF and median from its closed form in Bessel and
Struve functions (scipy.special), and that median again from brute-force
Monte-Carlo. Frozen constants were produced by those oracles and are asserted
against the implementation.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special, stats

import robustphase
from robustphase import (
    InvalidInputError,
    NumericalFailure,
    chi_square_quantile,
    product_gaussian_cdf,
    product_gaussian_density,
    product_gaussian_median,
    sample_median,
    sample_quantile,
)

# Frozen oracle values (see helpers below for how each was derived).
K0_AT_1 = 0.42102443824070823          # quadrature of int_0^inf exp(-cosh t) dt
PSI0_AT_1 = 0.2680324820339885         # (2/pi) * K0(1)
CHI2_MEDIAN = 0.4549364231195728       # brentq on erf(sqrt(x/2)) = 1/2
CHI2_Q49 = 0.4340671053699434
CHI2_Q51 = 0.4765262723998085
CHI2_PDF_AT_04549 = 0.47116369338587427  # scipy.stats.chi2.pdf(0.4549, 1)
PSI0_MEDIAN = 0.3651680118349349       # root of psi0_cdf_closed_form(t) = 1/2


def k0_quadrature(x: float) -> float:
    """K0 via its integral representation, int_0^inf exp(-x cosh t) dt."""
    # exp underflows once x*cosh(t) > 745; integrate a little past that point
    upper = math.acosh(745.0 / x) + 1.0
    val, _ = integrate.quad(
        lambda t: math.exp(-x * math.cosh(t)), 0.0, upper, limit=200
    )
    return val


def psi0_cdf_closed_form(t: float) -> float:
    """CDF of |u*v| for independent unit Gaussians, (2/pi) int_0^t K0, in
    closed form: t * (K0(t) L_{-1}(t) + K1(t) L_0(t)), L the modified Struve
    functions."""
    return t * (special.k0(t) * special.modstruve(-1, t) + special.k1(t) * special.modstruve(0, t))


def k0_series(x: float) -> float:
    """K0 via the ascending series, for cross-checking the quadrature."""
    euler_gamma = 0.5772156649015329
    q = 0.25 * x * x
    i0 = term = 1.0
    for k in range(1, 40):
        term *= q / (k * k)
        i0 += term
    total = -(math.log(0.5 * x) + euler_gamma) * i0
    term, harmonic = 1.0, 0.0
    for k in range(1, 40):
        term *= q / (k * k)
        harmonic += 1.0 / k
        total += term * harmonic
    return total


# ---------------------------------------------------------------- quantiles


def test_quantile_small_examples():
    assert sample_quantile([3, 1, 2], 0.5) == 2
    assert sample_quantile([1, 2, 3, 4], 0.5) == 2
    assert sample_quantile(list(range(1, 101)), 0.51) == 51


def test_median_small_examples():
    assert sample_median([5]) == 5
    assert sample_median([0, 0, 1]) == 0
    assert sample_median([-3, 7, 1, 4]) == 1


def test_median_is_quantile_half():
    rng = np.random.Generator(np.random.Philox(key=11))
    for _ in range(20):
        xs = rng.standard_normal(int(rng.integers(1, 60)))
        assert sample_median(xs) == sample_quantile(xs, 0.5)


def test_rank_guard_on_float_noise():
    # 0.2 * 5 is 1.0000000000000002 in binary; the rank must stay at 1
    assert sample_quantile([10, 20, 30, 40, 50], 0.2) == 10
    assert sample_quantile(list(range(1, 101)), 0.07) == 7


def test_quantile_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        sample_quantile([], 0.5)
    with pytest.raises(InvalidInputError):
        sample_quantile([1.0, 2.0], 0.0)
    with pytest.raises(InvalidInputError):
        sample_quantile([1.0, 2.0], 1.0)
    with pytest.raises(InvalidInputError):
        sample_quantile([1.0, float("nan")], 0.5)
    with pytest.raises(InvalidInputError):
        sample_quantile([1.0, float("inf")], 0.5)
    with pytest.raises(InvalidInputError):
        sample_quantile([[1.0, 2.0]], 0.5)
    for bad in ([], [[1.0, 2.0]], [1.0, float("nan")], [1.0, float("inf")]):
        with pytest.raises(InvalidInputError):
            sample_median(bad)


def test_quantile_permutation_invariant():
    rng = np.random.Generator(np.random.Philox(key=12))
    for _ in range(50):
        xs = rng.standard_normal(int(rng.integers(1, 200)))
        p = float(rng.uniform(0.01, 0.99))
        want = sample_quantile(xs, p)
        assert sample_quantile(rng.permutation(xs), p) == want


def test_quantile_monotone_in_p():
    rng = np.random.Generator(np.random.Philox(key=13))
    xs = rng.standard_normal(137)
    values = [sample_quantile(xs, p) for p in np.linspace(0.01, 0.99, 60)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_order_statistic_perturbation_bound():
    """Sorting is 1-Lipschitz in the sup norm, rank by rank."""
    rng = np.random.Generator(np.random.Philox(key=14))
    for _ in range(1000):
        length = int(rng.integers(1, 201))
        x = rng.standard_normal(length) * float(rng.uniform(0.1, 10.0))
        y = x + rng.standard_normal(length) * float(rng.uniform(0.0, 5.0))
        gap = float(np.max(np.abs(np.sort(x) - np.sort(y))))
        assert gap <= float(np.max(np.abs(x - y)))


def test_sample_median_concentrates_on_chi_square_median():
    # 100 seeded repetitions of m = 1e5 chi-square(1) draws
    hits = 0
    for rep in range(100):
        rng = np.random.Generator(np.random.Philox(key=1600 + rep))
        draws = rng.standard_normal(100_000) ** 2
        if abs(sample_median(draws) - 0.4549) < 0.01:
            hits += 1
    assert hits >= 99


# ----------------------------------------------------- product-Gaussian psi


def test_k0_oracles_agree():
    for x in (0.3, 0.5, 1.0, 2.0, 5.0):
        assert k0_quadrature(x) == pytest.approx(k0_series(x), rel=1e-10)
    assert k0_quadrature(1.0) == pytest.approx(K0_AT_1, rel=1e-12)


def test_density_rho_zero_matches_bessel_oracle():
    got = product_gaussian_density(1.0, 0.0)
    assert got == pytest.approx(2.0 / math.pi * k0_quadrature(1.0), rel=1e-9)
    assert got == pytest.approx(PSI0_AT_1, rel=1e-12)


def test_density_chi_square_branch():
    got = product_gaussian_density(0.4549, 1.0)
    assert got == pytest.approx(float(stats.chi2.pdf(0.4549, 1)), rel=1e-12)
    assert got == pytest.approx(CHI2_PDF_AT_04549, rel=1e-12)
    assert 0.47 < got < 0.76
    assert product_gaussian_density(0.4549, -1.0) == got


def test_density_even_in_rho():
    xs = np.array([0.05, 0.3, 1.0, 4.0])
    for rho in (0.2, 0.5, 0.85):
        np.testing.assert_allclose(
            product_gaussian_density(xs, rho),
            product_gaussian_density(xs, -rho),
            rtol=1e-14,
        )


def test_density_rejects_bad_arguments():
    with pytest.raises(InvalidInputError):
        product_gaussian_density(0.0, 0.0)
    with pytest.raises(InvalidInputError):
        product_gaussian_density(-1.0, 0.5)
    with pytest.raises(InvalidInputError):
        product_gaussian_density(1.0, 1.5)
    with pytest.raises(InvalidInputError):
        product_gaussian_cdf(1.0, -2.0)
    with pytest.raises(InvalidInputError):
        product_gaussian_cdf(0.0, 0.0)
    with pytest.raises(InvalidInputError):
        product_gaussian_cdf(float("nan"), 0.0)


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 1.0])
def test_density_normalizes(rho):
    head, _ = integrate.quad(
        lambda t: product_gaussian_density(t, rho), 0.0, 1.0, limit=200
    )
    tail, _ = integrate.quad(
        lambda t: product_gaussian_density(t, rho), 1.0, np.inf, limit=200
    )
    assert head + tail == pytest.approx(1.0, abs=1e-4)


def test_cdf_chi_square_branch_is_closed_form():
    got = product_gaussian_cdf(CHI2_MEDIAN, 1.0)
    assert got == pytest.approx(0.5, abs=1e-12)
    assert product_gaussian_cdf(2.0, 0.0) > product_gaussian_cdf(0.5, 0.0)


@pytest.mark.parametrize("theta", [1e-6, 0.1, 0.36, 1.0, 5.0, 39.0])
def test_cdf_rho_zero_matches_struve_closed_form(theta):
    """The quadrature keeps the mass near 0 that a coarse lower cut-off drops."""
    assert product_gaussian_cdf(theta, 0.0) == pytest.approx(
        psi0_cdf_closed_form(theta), abs=1e-12
    )


def test_median_rho_zero_is_the_closed_form_root():
    assert psi0_cdf_closed_form(PSI0_MEDIAN) == pytest.approx(0.5, abs=1e-15)
    assert product_gaussian_median(0.0) == pytest.approx(PSI0_MEDIAN, abs=1e-10)


@pytest.mark.parametrize("rho", [1.0 - 1e-12, -(1.0 - 1e-12)])
@pytest.mark.parametrize("theta", [0.36, 2.0])
def test_cdf_near_unit_correlation_approaches_chi_square(theta, rho):
    """Near |rho| = 1 the density piles up at 0; the quadrature must keep it."""
    assert product_gaussian_cdf(theta, rho) == pytest.approx(
        math.erf(math.sqrt(theta / 2.0)), abs=1e-9
    )


def test_median_rho_one_hits_chi_square_median():
    got = product_gaussian_median(1.0)
    assert got == pytest.approx(CHI2_MEDIAN, abs=1e-9)
    assert abs(got - 0.4549) < 1e-3


def test_median_rho_zero_against_monte_carlo():
    """Quadrature+root-search route vs brute-force sampling of |u*v|."""
    got = product_gaussian_median(0.0)
    rng = np.random.Generator(np.random.Philox(key=987654321))
    u = rng.standard_normal(10_000_000)
    v = rng.standard_normal(10_000_000)
    mc = float(np.median(np.abs(u * v)))
    assert got == pytest.approx(mc, abs=1.5e-3)
    assert got == pytest.approx(PSI0_MEDIAN, abs=1e-7)


def test_median_sweep_stays_in_known_interval():
    for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
        theta = product_gaussian_median(rho)
        assert 0.348 < theta < 0.455, f"rho={rho} gave {theta}"


def test_median_rejects_bad_arguments():
    with pytest.raises(InvalidInputError):
        product_gaussian_median(1.2)


@pytest.mark.parametrize("cdf", [lambda t, rho: 0.25, lambda t, rho: math.nan],
                         ids=["no-sign-change", "nan"])
def test_median_search_failure_is_a_numerical_failure(cdf, monkeypatch):
    """A CDF with no sign change on the bracket, or one that turns NaN, stops
    the search with NumericalFailure, not scipy's ValueError."""
    monkeypatch.setattr(robustphase.quantile, "product_gaussian_cdf", cdf)
    with pytest.raises(NumericalFailure, match=r"median search on \[1e-4, 2.0\] failed"):
        product_gaussian_median(0.5)


# ------------------------------------------------------ chi-square quantile


def test_chi_square_quantiles_match_closed_form_inversion():
    assert chi_square_quantile(0.5) == pytest.approx(CHI2_MEDIAN, abs=1e-6)
    assert chi_square_quantile(0.49) == pytest.approx(CHI2_Q49, abs=1e-6)
    assert chi_square_quantile(0.51) == pytest.approx(CHI2_Q51, abs=1e-6)
    # published reference points
    assert abs(chi_square_quantile(0.5) - 0.4549) < 1e-3
    assert abs(chi_square_quantile(0.49) - 0.434) < 2e-3
    assert abs(chi_square_quantile(0.51) - 0.477) < 2e-3


def test_chi_square_quantile_round_trips_through_cdf():
    for p in (0.05, 0.3, 0.5, 0.77, 0.99):
        x = chi_square_quantile(p)
        assert math.erf(math.sqrt(x / 2.0)) == pytest.approx(p, abs=1e-8)


def test_chi_square_quantile_rejects_bad_levels():
    for p in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(InvalidInputError):
            chi_square_quantile(p)


def test_harness_import_leaves_scipy_integrate_and_optimize_unloaded():
    # A fresh interpreter: this test module itself imports scipy.integrate.
    # scipy.special is checked too: only the analytic oracles import it.
    package_root = str(Path(robustphase.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, robustphase.harness; "
         "print(','.join(m for m in ('scipy.integrate', 'scipy.optimize', "
         "'scipy.special') "
         "if m in sys.modules))"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
