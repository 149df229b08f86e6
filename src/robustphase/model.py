"""Problem generation: signals, sensing ensembles, and corrupted measurements.

Measurement model.  A planted signal x in R^n is observed through m
independent Gaussian rows a_i as

    y_i = (a_i . x)^2 + w_i + eta_i,

optionally with the clean intensity replaced by a Poisson draw first.  The
dense noise w is uniform on [0, w_max); the sparse outliers eta hit a small
set of indices and may be arbitrarily large.  Magnitudes are specified
relative to the signal power ||x||^2 so experiments transfer across scales.
A uniform magnitude is drawn as bound * U, U uniform on [0, 1); a bound that
overflows gives non-finite measurements, which the spectral init refuses.

Randomness.  Every stream is keyed by ``numpy.random.SeedSequence``.  The
sensing ensemble draws from SFC64, which fills its m x n normals in about
0.7 of Philox's time; the signal, corruption and Lanczos start-vector
streams draw from Philox.  Sub-streams are derived by hashing
``(master_seed, component_tag)`` through ``derive_seed``, so the signal,
ensemble, and corruption streams are independent and any one of them can be
re-derived without touching the others.  Within ``apply_corruption`` the
draw order is fixed and documented: Poisson resampling, dense noise,
outlier placement (m uniforms, drawn by a clean problem too), outlier values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError, _parse_choice, _require_count, _require_fraction
from .errors import _require_nonnegative, _require_positive, _vector

__all__ = [
    "TAG_SIGNAL",
    "TAG_ENSEMBLE",
    "TAG_CORRUPTION",
    "TAG_INIT",
    "derive_seed",
    "sample_signal",
    "SensingEnsemble",
    "sample_ensemble",
    "clean_measurements",
    "OutlierModel",
    "CorruptionSpec",
    "MeasurementSet",
    "apply_corruption",
    "ProblemInstance",
    "generate_problem",
]

# Component tags hashed together with a master seed to key sub-streams.
TAG_SIGNAL = 1
TAG_ENSEMBLE = 2
TAG_CORRUPTION = 3
TAG_INIT = 4


def derive_seed(*components: int) -> int:
    """Hash integer components into a 64-bit sub-seed.

    The hash is ``numpy.random.SeedSequence`` over the component tuple, so
    the derivation is stable across platforms and independent of call order
    elsewhere in the program.  Every component must be an integer >= 0.
    """
    for c in components:
        _require_count(c, "seed", least=0)
    ss = np.random.SeedSequence(tuple(int(c) for c in components))
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed: int, _bits=np.random.Philox) -> np.random.Generator:
    _require_count(seed, "seed", least=0)
    return np.random.Generator(_bits(np.random.SeedSequence(int(seed))))


def sample_signal(n: int, seed: int) -> np.ndarray:
    """Planted signal: n i.i.d. standard normal entries."""
    _require_count(n, "signal dimension")
    return _rng(seed).standard_normal(n)


@dataclass(frozen=True, eq=False)
class SensingEnsemble:
    """m Gaussian sensing rows, one per measurement."""

    rows: np.ndarray

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]


def sample_ensemble(n: int, m: int, seed: int) -> SensingEnsemble:
    """Sensing ensemble: an (m, n) matrix of i.i.d. standard normals.

    The normals come from an SFC64 generator, the one stream that is not
    Philox: it is the bulk of problem generation, and the guarantees need
    only i.i.d. Gaussian entries, not a particular bit generator.  The rows
    start on a 64-byte cache line.  Each solver iteration reads them twice
    (``A z``, then ``A^T c``), and at n = 64 to 128 OpenBLAS does that pair
    in about 30% less time on aligned rows, with the same bits at every
    offset.  Filling through ``out=`` draws the same values as
    ``standard_normal((m, n))``.
    """
    _require_count(n, "ensemble dimension n")
    _require_count(m, "ensemble dimension m")
    buf = np.empty(m * n + 8)  # 8 spare doubles cover any 8-byte-aligned start
    start = -buf.ctypes.data % 64 // 8
    rows = buf[start : start + m * n].reshape(m, n)
    _rng(seed, np.random.SFC64).standard_normal(out=rows)
    return SensingEnsemble(rows=rows)


def clean_measurements(ensemble: SensingEnsemble, x: np.ndarray) -> np.ndarray:
    """Noiseless intensities (a_i . x)^2 for every row of the ensemble."""
    return (ensemble.rows @ _vector(x, "signal", ensemble.n)) ** 2


class OutlierModel(str, Enum):
    """How outlier magnitudes are drawn."""

    UNIFORM = "uniform"                  # U(0, eta_max_rel * ||x||^2)
    NOISE_NORM = "noise_norm"            # constant, the norm of the dense noise
    INTEGER_UNIFORM = "integer_uniform"  # round(||x||^2 * U(0, 1))


@dataclass(frozen=True)
class CorruptionSpec:
    """Declarative description of how measurements are corrupted.

    All magnitudes are relative to the signal power ||x||^2.  The fraction
    of outliers must stay below 1/2; beyond that no median-based method can
    identify the clean majority.  Each index is an outlier independently
    with probability ``outlier_fraction``.
    """

    outlier_fraction: float = 0.0
    outlier_model: OutlierModel = OutlierModel.UNIFORM
    eta_max_rel: float = 0.0
    w_max_rel: float = 0.0
    poisson: bool = False

    def __post_init__(self) -> None:
        _require_fraction(self.outlier_fraction, "outlier fraction")
        _require_nonnegative(self.eta_max_rel, "eta_max_rel")
        _require_nonnegative(self.w_max_rel, "w_max_rel")
        # Input validation: plain strings coerce to the enum, unknown ones raise.
        object.__setattr__(self, "outlier_model", _parse_choice(OutlierModel, self.outlier_model))


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Corrupted measurements with provenance of the corruption."""

    y: np.ndarray
    outlier_support: np.ndarray  # sorted int indices
    noise: np.ndarray            # the dense-noise vector w


def _poisson_draws(rng: np.random.Generator, means: np.ndarray) -> np.ndarray:
    try:
        return rng.poisson(means).astype(float)
    except ValueError as exc:  # numpy refuses means near the int64 range
        raise InvalidInputError(f"Poisson mean {means.max():.6g} is too large to sample") from exc


def apply_corruption(
    clean: np.ndarray,
    spec: CorruptionSpec,
    x_norm: float,
    seed: int,
) -> MeasurementSet:
    """Corrupt clean intensities according to ``spec``.

    Args:
        clean: nonnegative clean intensities, shape (m,).
        spec: corruption description; magnitudes relative to ||x||^2.
        x_norm: the signal norm ||x||, finite and positive.
        seed: integer seed for the corruption stream.

    Returns:
        MeasurementSet with y, the sorted outlier support, and the dense
        noise vector.  In the non-Poisson case y equals
        clean + noise + (outliers scattered on the support), exactly.

    Raises:
        InvalidInputError: negative clean entries, a Poisson mean too large
            to sample, or an x_norm that is not finite and positive.
    """
    clean = _vector(clean, "clean intensities", finite=True)
    if np.any(clean < 0.0):
        raise InvalidInputError("clean intensities must be nonnegative")
    _require_positive(x_norm, "x_norm")

    m = clean.size
    rng = _rng(seed)
    signal_power = float(x_norm) ** 2

    base = _poisson_draws(rng, clean) if spec.poisson else clean

    w_max = spec.w_max_rel * signal_power
    noise = w_max * rng.random(m) if w_max > 0.0 else np.zeros(m)

    y = base + noise
    support = np.flatnonzero(rng.random(m) < spec.outlier_fraction)  # drawn at s = 0 too
    k = support.size  # the value draws come last, so k = 0 draws nothing
    if spec.outlier_model is OutlierModel.UNIFORM:
        values = spec.eta_max_rel * signal_power * rng.random(k)
    elif spec.outlier_model is OutlierModel.NOISE_NORM:
        values = np.full(k, np.linalg.norm(noise))
    else:
        values = np.round(signal_power * rng.random(k))
    y[support] += values
    return MeasurementSet(y=y, outlier_support=support.astype(np.int64), noise=noise)


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A fully materialized trial: signal, ensemble, measurements, and the
    master seed they derive from (the init keys its own stream off it)."""

    signal: np.ndarray
    ensemble: SensingEnsemble
    measurements: MeasurementSet
    master_seed: int


def generate_problem(
    n: int,
    m: int,
    spec: CorruptionSpec,
    master_seed: int,
) -> ProblemInstance:
    """Generate a reproducible problem instance from a single master seed.

    Sub-seeds are ``derive_seed(master_seed, tag)`` with the component tags
    TAG_SIGNAL, TAG_ENSEMBLE, TAG_CORRUPTION, so the signal, ensemble and
    corruption streams are independent of one another.
    """
    signal = sample_signal(n, derive_seed(master_seed, TAG_SIGNAL))
    ensemble = sample_ensemble(n, m, derive_seed(master_seed, TAG_ENSEMBLE))
    clean = clean_measurements(ensemble, signal)
    measurements = apply_corruption(
        clean, spec, float(np.linalg.norm(signal)), derive_seed(master_seed, TAG_CORRUPTION)
    )
    return ProblemInstance(
        signal=signal,
        ensemble=ensemble,
        measurements=measurements,
        master_seed=int(master_seed),
    )
