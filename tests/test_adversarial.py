"""Adversarial outliers against the local phase of the median solvers.

The paper claims recovery even when a constant fraction of the measurements
is adversarially corrupted.  Every outlier model in ``robustphase.model`` is
drawn independently of the signal, so these tests build the corrupted
measurements themselves, on a clean ``generate_problem`` instance, with
k = round(s m) corrupted rows:

* ``huge``     the value 1e6 ||x||^2 on a random support;
* ``decoy``    the intensities (a_i . v)^2 of a decoy signal v, ||v|| = ||x||,
               on a random support;
* ``zeros``    zeros on a random support;
* ``largest``  zeros on the k rows with the largest (a_i . x)^2, an adversary
               that knows x.

The local regularity condition the paper proves implies that, from a start
near x, the median-screened gradient step contracts towards x under any such
corruption at s <= 0.1.  Each trial therefore starts at relative distance 0.1
from x and must reach the success tolerance within 500 steps.  The spectral
init is not run: the signal-aware family defeats it (see README "Measured
limit"), which is a separate question from the local search.
"""

import dataclasses

import numpy as np
import pytest

from robustphase import (
    Algorithm,
    CorruptionSpec,
    SolverConfig,
    generate_problem,
    mrwf_gradient,
    mtwf_gradient,
    relative_error,
)

N, M = 64, 512
SEEDS = range(900, 905)
MAX_STEPS = 500
START_DISTANCE = 0.1
FAMILIES = ("huge", "decoy", "zeros", "largest")
GRADIENTS = {Algorithm.MEDIAN_TWF: mtwf_gradient, Algorithm.MEDIAN_RWF: mrwf_gradient}


def _corrupted_problem(family, s, seed):
    """A clean instance with round(s m) rows replaced as ``family`` says, and
    a seeded unit vector for the start."""
    problem = generate_problem(N, M, CorruptionSpec(), seed)
    x, rows, clean = problem.signal, problem.ensemble.rows, problem.measurements.y
    k = round(s * M)
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.standard_normal(N)
    u /= np.linalg.norm(u)
    if family == "largest":
        support = np.argsort(clean, kind="stable")[M - k:]
    else:
        support = rng.choice(M, size=k, replace=False)
    y = clean.copy()
    if family == "huge":
        y[support] = 1e6 * (x @ x)
    elif family == "decoy":
        decoy = rng.standard_normal(N)
        decoy *= np.linalg.norm(x) / np.linalg.norm(decoy)
        y[support] = (rows[support] @ decoy) ** 2
    else:
        y[support] = 0.0
    measurements = dataclasses.replace(
        problem.measurements, y=y, outlier_support=np.sort(support).astype(np.int64)
    )
    return dataclasses.replace(problem, measurements=measurements), u


def _steps_to_tolerance(problem, cfg, z):
    """Plain descent steps from z until the success tolerance, or None."""
    x, ensemble, y = problem.signal, problem.ensemble, problem.measurements.y
    gradient = GRADIENTS[cfg.algorithm]
    for t in range(MAX_STEPS + 1):
        if relative_error(z, x) <= cfg.success_tol:
            return t
        g, _, _ = gradient(ensemble, y, z, cfg)
        z = z - cfg.step_size * g
    return None


@pytest.mark.parametrize("algorithm", list(GRADIENTS), ids=lambda a: a.value)
@pytest.mark.parametrize("s", [0.05, 0.1])
@pytest.mark.parametrize("family", FAMILIES)
def test_local_phase_converges_under_adversarial_outliers(family, s, algorithm):
    cfg = SolverConfig(algorithm=algorithm)
    steps = {}
    for seed in SEEDS:
        problem, u = _corrupted_problem(family, s, seed)
        x = problem.signal
        assert problem.measurements.outlier_support.size == round(s * M)
        steps[seed] = _steps_to_tolerance(
            problem, cfg, x + START_DISTANCE * np.linalg.norm(x) * u
        )
    assert None not in steps.values(), steps
