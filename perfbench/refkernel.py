"""The reference kernel: the machine's current speed, measured in place.

A shared cloud machine's speed drifts with its other tenants' load.  On
the 2-vCPU KVM guest of the README's reference figures, over a few minutes
the same round of trials ran anywhere from 16 to 24 trials/s; the process's
CPU time tracked its wall time within 2%, so the drift is slower cores, not
time taken away from the process.  The kernel does a fixed amount of the
same kind of work as one solver iteration, in the benchmark's own code:
validate the operands, ``A @ z``, residuals, a median selection, the two
screening events, ``A.T @ c``, a small frozen record per step, and the
records formatted as CSV floats.  Timed next to each round, it turns wall
time into a count of kernel runs, which the machine's speed moves far less
(the README compares both in the same runs).  A change to the package
leaves the kernel as it is, so it moves the ratio fully.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

# Work per shape, in matrix entries touched: 40-80 ms per shape.
ENTRIES_PER_SHAPE = 30_000_000


@dataclass(frozen=True)
class _Record:
    kept: int
    stat: float
    grad_norm: float


def _step(a, y, z, half: int, records: list) -> None:
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if y.shape != (a.shape[0],) or z.shape != (a.shape[1],):
        raise ValueError("kernel operands do not match")
    z_norm = float(np.linalg.norm(z))
    az = a @ z
    abs_az = np.abs(az)
    resid = np.abs(y - az * az)
    if not np.isfinite(resid).all():
        raise ValueError("kernel residuals are not finite")
    stat = float(np.partition(resid, half)[half])
    keep = (abs_az >= 0.3 * z_norm) & (abs_az <= 5.0 * z_norm)
    keep &= resid <= 12.0 * stat * abs_az / z_norm
    coeff = np.zeros(a.shape[0])
    coeff[keep] = (az[keep] ** 2 - y[keep]) / az[keep]
    gradient = a.T @ coeff / a.shape[0]
    records.append(_Record(int(keep.sum()), stat, float(np.linalg.norm(gradient))))


class ReferenceKernel:
    """Plain screened-gradient steps at fixed shapes; time one run."""

    def __init__(self, shapes) -> None:
        rng = np.random.default_rng(12345)
        self.work = []
        for m, n in sorted(set(shapes)):
            a = rng.standard_normal((m, n))
            y = (a @ rng.standard_normal(n)) ** 2
            steps = math.ceil(ENTRIES_PER_SHAPE / (m * n))
            self.work.append((a, y, rng.standard_normal(n), steps))

    def seconds(self) -> float:
        start = time.perf_counter()
        for a, y, z, steps in self.work:
            records: list[_Record] = []
            for _ in range(steps):
                _step(a, y, z, a.shape[0] // 2, records)
            "\n".join(f"{r.kept},{r.stat:.17g},{r.grad_norm:.17g}" for r in records)
        return time.perf_counter() - start


def timed_against(kernel: ReferenceKernel, measure):
    """Run ``measure()`` between two kernel runs; return (its result, mean kernel seconds)."""
    before = kernel.seconds()
    result = measure()
    return result, (before + kernel.seconds()) / 2
