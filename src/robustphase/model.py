"""Problem generation: signals, sensing ensembles, and corrupted measurements.

Measurement model.  A planted signal x in R^n is observed through m
independent Gaussian rows a_i as

    y_i = (a_i . x)^2 + w_i + eta_i,

optionally with the clean intensity replaced by a Poisson draw first.  The
dense noise w is uniform on [0, w_max]; the sparse outliers eta hit a small
set of indices and may be arbitrarily large.  Magnitudes are specified
relative to the signal power ||x||^2 so experiments transfer across scales.

Randomness.  Every draw comes from a Philox counter-based 64-bit generator
keyed by ``numpy.random.SeedSequence``.  Sub-streams are derived by hashing
``(master_seed, component_tag)`` through ``derive_seed``, so the signal,
ensemble, and corruption streams are independent and any one of them can be
re-derived without touching the others.  Within ``apply_corruption`` the
draw order is fixed and documented: Poisson resampling, dense noise,
outlier placement, outlier values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError, _parse_choice

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
    elsewhere in the program.
    """
    ss = np.random.SeedSequence(tuple(int(c) for c in components))
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def sample_signal(n: int, seed: int) -> np.ndarray:
    """Planted signal: n i.i.d. standard normal entries."""
    if n < 1:
        raise InvalidInputError(f"signal dimension must be >= 1, got {n}")
    return _rng(seed).standard_normal(n)


@dataclass(frozen=True, eq=False)
class SensingEnsemble:
    """m Gaussian sensing rows with the seed they were drawn from."""

    rows: np.ndarray
    seed: int

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]


def sample_ensemble(n: int, m: int, seed: int) -> SensingEnsemble:
    """Sensing ensemble: an (m, n) matrix of i.i.d. standard normals."""
    if n < 1 or m < 1:
        raise InvalidInputError(f"ensemble dimensions must be >= 1, got n={n} m={m}")
    return SensingEnsemble(rows=_rng(seed).standard_normal((m, n)), seed=int(seed))


def clean_measurements(ensemble: SensingEnsemble, x: np.ndarray) -> np.ndarray:
    """Noiseless intensities (a_i . x)^2 for every row of the ensemble."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != ensemble.n:
        raise InvalidInputError(
            f"signal shape {x.shape} does not match ensemble dimension {ensemble.n}"
        )
    return (ensemble.rows @ x) ** 2


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
        if not 0.0 <= self.outlier_fraction < 0.5:
            raise InvalidInputError(
                f"outlier fraction must lie in [0, 0.5), got {self.outlier_fraction}"
            )
        if not (0.0 <= self.eta_max_rel < math.inf and 0.0 <= self.w_max_rel < math.inf):
            raise InvalidInputError("corruption magnitudes must be finite and nonnegative")
        # Input validation: plain strings coerce to the enum, unknown ones raise.
        object.__setattr__(self, "outlier_model", _parse_choice(OutlierModel, self.outlier_model))


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Corrupted measurements with provenance of the corruption."""

    y: np.ndarray
    outlier_support: np.ndarray  # sorted int indices
    noise: np.ndarray            # the dense-noise vector w


def _poisson_single(rng: np.random.Generator, mean: float) -> int:
    # Sequential-search inversion below 30, Hormann's PTRS transformed
    # rejection above; both consume only uniforms, so draws reproduce
    # across platforms for a fixed generator.
    if mean == 0.0:
        return 0
    if mean < 30.0:
        x = 0
        p = math.exp(-mean)
        s = p
        u = rng.random()
        while u > s:
            x += 1
            p *= mean / x
            s += p
        return x
    b = 0.931 + 2.53 * math.sqrt(mean)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if math.log(v) + math.log(inv_alpha) - math.log(a / (us * us) + b) <= (
            k * math.log(mean) - mean - math.lgamma(k + 1.0)
        ):
            return int(k)


def _poisson_draws(rng: np.random.Generator, means: np.ndarray) -> np.ndarray:
    return np.array([_poisson_single(rng, float(mu)) for mu in means], dtype=float)


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
        x_norm: the signal norm ||x||, needed whenever a relative magnitude
            is in play.
        seed: integer seed for the corruption stream.

    Returns:
        MeasurementSet with y, the sorted outlier support, and the dense
        noise vector.  In the non-Poisson case y equals
        clean + noise + (outliers scattered on the support), exactly.

    Raises:
        InvalidInputError: negative clean entries, or a missing positive
            x_norm when relative magnitudes are required.
    """
    clean = np.asarray(clean, dtype=float)
    if clean.ndim != 1 or clean.size == 0:
        raise InvalidInputError("clean intensities must be a nonempty 1-D array")
    if not np.isfinite(clean).all() or np.any(clean < 0.0):
        raise InvalidInputError("clean intensities must be finite and nonnegative")
    m = clean.size
    s = spec.outlier_fraction

    needs_scale = spec.w_max_rel > 0.0 or (
        s > 0.0
        and spec.outlier_model
        in (OutlierModel.UNIFORM, OutlierModel.INTEGER_UNIFORM)
    )
    if needs_scale and not x_norm > 0.0:
        raise InvalidInputError("x_norm must be positive for relative magnitudes")

    rng = _rng(seed)
    signal_power = float(x_norm) ** 2

    base = _poisson_draws(rng, clean) if spec.poisson else clean.copy()

    w_max = spec.w_max_rel * signal_power
    noise = rng.uniform(0.0, w_max, size=m) if w_max > 0.0 else np.zeros(m)

    if s > 0.0:
        support = np.flatnonzero(rng.random(m) < s)
    else:
        support = np.empty(0, dtype=np.int64)
    k = support.size

    if k > 0:
        if spec.outlier_model is OutlierModel.UNIFORM:
            values = rng.uniform(0.0, spec.eta_max_rel * signal_power, size=k)
        elif spec.outlier_model is OutlierModel.NOISE_NORM:
            values = np.full(k, np.linalg.norm(noise))
        else:
            values = np.round(signal_power * rng.random(k))
    else:
        values = np.empty(0)

    y = base + noise
    y[support] += values
    return MeasurementSet(y=y, outlier_support=support.astype(np.int64), noise=noise)


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A fully materialized trial: signal, ensemble, measurements, provenance."""

    signal: np.ndarray
    ensemble: SensingEnsemble
    measurements: MeasurementSet
    corruption: CorruptionSpec
    master_seed: int

    @property
    def n(self) -> int:
        return self.ensemble.n

    @property
    def m(self) -> int:
        return self.ensemble.m


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
        corruption=spec,
        master_seed=int(master_seed),
    )
