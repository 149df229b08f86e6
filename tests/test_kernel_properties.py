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
  intensity residuals;
* oracle: (gradient, kept count, statistic) equal bit for bit those of a
  reference copy of the kernel as first written, with its all-ones and
  all-zeros buffers and fancy-index gathers and scatters, on measurements
  that include zero and negative entries;
* placement: the matvecs and the median kernels give the same bits whatever
  byte offset from a cache line the rows start at.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from robustphase import (  # noqa: E402
    Algorithm,
    CorruptionSpec,
    SensingEnsemble,
    SolverConfig,
    generate_problem,
    mrwf_gradient,
    mtwf_gradient,
    rwf_gradient,
    sample_quantile,
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

# derandomize: every run draws the same examples, so a check passes or fails
# the same way each time.
PROPERTY = settings(deadline=None, max_examples=25, derandomize=True)


@st.composite
def instances(draw, integer_rows=False, signed_y=False):
    """(ensemble, y, z, rng) with Gaussian or small-integer sensing rows.

    Integer rows and an integer iterate make every a_i . z exact, so a row
    permutation cannot move a residual by the BLAS's position-dependent
    summation order; they also make some a_i . z exactly zero.  With
    ``signed_y`` a drawn share of the measurements is set to zero and
    another is made negative, as arbitrary outliers may.
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
    if signed_y:
        y[rng.random(m) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
        negative = rng.random(m) < draw(st.sampled_from([0.05, 0.2]))
        y[negative] = -rng.uniform(0.0, 2.0 * float(x @ x), int(negative.sum()))
    return SensingEnsemble(rows=rows), y, z, rng


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
    permuted = SensingEnsemble(rows=ensemble.rows[perm])
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


def _reference_gradient(ensemble, y, z, cfg, loss, statistic):
    # The kernel as first written, kept verbatim apart from its input checks
    # (the shape, zero-iterate and known_s guards); the median is the
    # generic quantile at p = 1/2.
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    z_norm = float(np.linalg.norm(z))
    rows = ensemble.rows
    m = ensemble.m
    az = rows @ z
    if loss == "intensity":
        resid = np.abs(y - az**2)
    else:
        sqrt_y = np.sqrt(np.maximum(y, 0.0))
        resid = np.abs(sqrt_y - np.abs(az))

    active = np.ones(m, dtype=bool)
    if statistic == "mean":
        stat = float(resid.mean())
    elif statistic == "trimmed":
        drop = math.ceil(cfg.known_s * m)
        if drop > 0:
            order = np.argsort(resid, kind="stable")
            active[order[m - drop :]] = False
        if not active.any():
            return np.zeros(ensemble.n), 0, 0.0
        stat = float(resid[active].mean())
    else:
        stat = sample_quantile(resid, 0.5)

    coeff = np.zeros(m)
    if loss == "intensity":
        abs_az = np.abs(az)
        e1 = (abs_az >= 0.3 * z_norm) & (abs_az <= 5.0 * z_norm)
        e2 = resid <= 12.0 * stat * abs_az / z_norm
        keep = active & e1 & e2
        coeff[keep] = (az[keep] ** 2 - y[keep]) / az[keep]
    else:
        keep = active if statistic == "none" else resid <= 5.0 * stat
        sign = np.where(az >= 0.0, 1.0, -1.0)
        coeff[keep] = az[keep] - sqrt_y[keep] * sign[keep]
    gradient = rows.T @ coeff / m
    return gradient, int(keep.sum()), stat


# (loss, statistic) of each public gradient function
LOSS_STATISTIC = {
    "median-twf": ("intensity", "median"),
    "twf": ("intensity", "mean"),
    "trimean-twf": ("intensity", "trimmed"),
    "median-rwf": ("amplitude", "median"),
    "rwf": ("amplitude", "none"),
}


# At z = e_1 every a_i . z is 1 and the median intensity residual is 1, so
# the residuals 11.75 and 12.25 sit either side of the E2 cut alpha_h = 12.
E2_EDGE = (
    SensingEnsemble(rows=np.array(
        [[1.0, c] for c in (0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 1.0)]
    )),
    np.array([0.0, 2.0, 0.0, 2.0, 0.0, 2.0, 12.75, 13.25]),
    np.array([1.0, 0.0]),
    np.random.default_rng(0),
)


@pytest.mark.parametrize("name", sorted(KERNELS))
@PROPERTY
@given(st.one_of(instances(signed_y=True), instances(integer_rows=True, signed_y=True)))
@example(E2_EDGE)
def test_kernel_matches_reference_bit_for_bit(name, instance):
    ensemble, y, z, _ = instance
    fn, cfg, _ = KERNELS[name]
    grad, kept, stat = fn(ensemble, y, z, cfg)
    ref_grad, ref_kept, ref_stat = _reference_gradient(
        ensemble, y, z, cfg, *LOSS_STATISTIC[name]
    )
    assert grad.dtype == ref_grad.dtype and grad.tobytes() == ref_grad.tobytes()
    assert kept == ref_kept
    assert np.float64(stat).tobytes() == np.float64(ref_stat).tobytes()


def _at_byte_offset(rows, offset):
    """A copy of ``rows`` whose first byte sits ``offset`` bytes past a 64-byte line."""
    buf = np.empty(rows.size + 16)
    start = -buf.ctypes.data % 64 // 8 + offset // 8
    copy = buf[start : start + rows.size].reshape(rows.shape)
    copy[...] = rows
    assert copy.ctypes.data % 64 == offset
    return copy


@pytest.mark.parametrize("m, n", [(512, 64), (1024, 128), (2048, 512)])
def test_row_placement_never_changes_a_products_bits(m, n):
    # The golden hashes and criterion 8 rest on this: rows built by hand, or
    # copied, can start anywhere, and BLAS may take another path off a line.
    spec = CorruptionSpec(outlier_fraction=0.1, eta_max_rel=5.0)
    problem = generate_problem(n, m, spec, 7)
    rows, y = problem.ensemble.rows, problem.measurements.y
    rng = np.random.default_rng(7)
    z = problem.signal + 0.3 * rng.standard_normal(n)
    c = rng.standard_normal(m)

    def products(r):
        ensemble = SensingEnsemble(rows=r)
        out = [(r @ z).tobytes(), (r.T @ c).tobytes()]
        for name, fn in (("median-twf", mtwf_gradient), ("median-rwf", mrwf_gradient)):
            grad, kept, stat = fn(ensemble, y, z, KERNELS[name][1])
            out.append((grad.tobytes(), kept, np.float64(stat).tobytes()))
        return out

    assert rows.ctypes.data % 64 == 0
    want = products(rows)
    for offset in range(8, 64, 8):
        assert products(_at_byte_offset(rows, offset)) == want, f"offset {offset}"
