"""One workload run in a fresh interpreter; prints one JSON line for run.py.

Usage: python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE WORKDIR
(run.py sets PYTHONPATH=src and the BLAS thread pin).

Rounds repeat until their summed wall time reaches SECONDS.  Untraced, each
round runs the workload's commands as given.  Traced, rounds cycle through
(untraced, 1 process), (traced, 1 process) and (untraced, 2 processes), so
tracing overhead and fan-out efficiency come from the same run.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
import time
import traceback

import numpy as np

import robustphase.harness as harness
from checks import check_workload, read_trials, spot_check
from refkernel import ReferenceKernel, timed_against
from tracing import Tracer
from workloads import WORKLOADS, round_seed

TRACE_CYCLE = (("plain", 1), ("traced", 1), ("plain", 2))


def run_round(workload, seed: int, index: int, workdir: str, threads, cli):
    """Run every command of one round; return (wall seconds, [(command, csv path)])."""
    elapsed = 0.0
    outputs = []
    for i, cmd in enumerate(workload.commands):
        out = os.path.join(workdir, f"round{index}-{i}.csv")
        argv = cmd.argv(round_seed(seed, index), out, threads)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            status = cli(argv)
            elapsed += time.perf_counter() - start
        if status != 0:
            raise RuntimeError(f"robust-phase {' '.join(argv)} exited {status}")
        outputs.append((cmd, out))
    return elapsed, outputs


def matvec_floor_us(shape: tuple[int, int]) -> float:
    """Median time of a bare ``A @ z`` plus ``A.T @ c`` at this shape."""
    m, n = shape
    rng = np.random.default_rng(0)
    a, z, c = rng.standard_normal((m, n)), rng.standard_normal(n), rng.standard_normal(m)
    reps = 1
    while True:  # calibrate a batch to about 10 ms
        start = time.perf_counter()
        for _ in range(reps):
            a @ z
            a.T @ c
        if time.perf_counter() - start > 0.01:
            break
        reps *= 2
    batches = []
    for _ in range(9):
        start = time.perf_counter()
        for _ in range(reps):
            a @ z
            a.T @ c
        batches.append((time.perf_counter() - start) / reps)
    return statistics.median(batches) * 1e6


def per_layer(tracer: Tracer, rounds: int, rates: dict, csv_bytes: int) -> dict:
    s = tracer.stats
    grad, init, solve = s["solvers.gradient"], s["spectral.init"], s["solvers.run_solver"]
    floors = {shape: matvec_floor_us(shape) for shape in tracer.gradient_shapes}
    shapes = tracer.gradient_shapes
    floor_us = sum(floors[k] * c for k, c in shapes.items()) / sum(shapes.values())
    gradient_us = grad.seconds / grad.calls * 1e6
    busy = {layer: tracer.busy[layer] / rounds for layer in tracer.busy}
    plain1 = statistics.median(rates[("plain", 1)])
    return {
        "model.generate_problem.calls": (s["model.generate_problem"].calls / rounds, "count"),
        "model.generate_problem.ms": (
            s["model.generate_problem"].seconds / s["model.generate_problem"].calls * 1e3, "ms"),
        "model.busy_s": (busy["model"], "s"),
        "spectral.init.calls": (init.calls / rounds, "count"),
        "spectral.init.ms": (init.seconds / init.calls * 1e3, "ms"),
        "spectral.power_iters_per_init": (tracer.power_iters / init.calls, "count"),
        "spectral.unconverged": (tracer.unconverged / rounds, "count"),
        "spectral.busy_s": (busy["spectral"], "s"),
        "solvers.gradient.calls": (grad.calls / rounds, "count"),
        "solvers.gradient.us": (gradient_us, "us"),
        "solvers.matvec_floor.us": (floor_us, "us"),
        "solvers.overhead_ratio": (gradient_us / floor_us, "ratio"),
        "solvers.matvecs_per_solve": (2 * (grad.calls + tracer.power_iters) / solve.calls, "count"),
        "solvers.iters_per_s": (grad.calls / (solve.seconds - init.seconds), "1/s"),
        "solvers.useful_iter_ratio": (tracer.useful_iterations / max(tracer.iterations, 1), "ratio"),
        "solvers.busy_s": (busy["solvers"], "s"),
        "quantile.sample_median.calls": (s["quantile.sample_median"].calls / rounds, "count"),
        "quantile.sample_median.us": (
            s["quantile.sample_median"].seconds / s["quantile.sample_median"].calls * 1e6, "us"),
        "quantile.busy_s": (busy["quantile"], "s"),
        "metrics.relative_error.calls": (s["metrics.relative_error"].calls / rounds, "count"),
        "metrics.relative_error.us": (
            s["metrics.relative_error"].seconds / s["metrics.relative_error"].calls * 1e6, "us"),
        "metrics.busy_s": (busy["metrics"], "s"),
        "harness.self_s": (busy["harness"], "s"),
        "harness.write_csv_s": (s["harness.write_csv"].seconds / rounds, "s"),
        "harness.csv_bytes": (csv_bytes / rounds, "bytes"),
        "harness.fanout_efficiency": (statistics.median(rates[("plain", 2)]) / (2 * plain1), "ratio"),
        "trace.rate_ratio": (statistics.median(rates[("traced", 1)]) / plain1, "ratio"),
    }


def main(argv: list[str]) -> dict:
    name, seed, seconds, trace, workdir = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4]
    workload = WORKLOADS[name]
    tracer = Tracer()
    traced_cli = tracer.span(harness.cli_main, "harness.cli", "harness")
    kernel = ReferenceKernel((m, c.n) for c in workload.commands for m in c.m_values)
    # Trials per reference-kernel run, per round, keyed by (mode, processes).
    rates: dict[tuple[str, int], list[float]] = {}
    raw_rates = []
    trials, first_round = [], []
    traced_rounds = csv_bytes = index = 0
    measured = 0.0
    while True:
        mode, threads = TRACE_CYCLE[index % 3] if trace else ("plain", None)
        cli = traced_cli if mode == "traced" else harness.cli_main
        if mode == "traced":
            tracer.install()
        try:
            (elapsed, outputs), kernel_s = timed_against(
                kernel, lambda: run_round(workload, seed, index, workdir, threads, cli))
        finally:
            tracer.uninstall()
        round_trials = []
        for cmd, path in outputs:
            round_trials += read_trials(cmd, path)
            if mode == "traced":
                csv_bytes += os.path.getsize(path)
            os.remove(path)
        trials += round_trials
        first_round = first_round or round_trials
        traced_rounds += mode == "traced"
        rates.setdefault((mode, threads), []).append(len(round_trials) / elapsed * kernel_s)
        raw_rates.append(len(round_trials) / elapsed)
        measured += elapsed
        index += 1
        if measured >= seconds and (not trace or index % 3 == 0):
            break
    check_workload(name, trials)
    result = {
        "attempted": len(trials),
        "failed": sum(t.failed for t in trials),
        "rounds": index,
        "spot_checked": spot_check(first_round),
    }
    if trace:
        tracer.require_calls()
        result["per_layer"] = per_layer(tracer, traced_rounds, rates, csv_bytes)
    else:
        result["trials_per_ref"] = statistics.median(rates[("plain", None)])
        result["trials_per_s"] = statistics.median(raw_rates)
    return result


if __name__ == "__main__":
    try:
        outcome = {"ok": True, **main(sys.argv[1:])}
    except Exception as exc:  # reported to run.py, which fails the run
        traceback.print_exc()
        outcome = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(outcome))
