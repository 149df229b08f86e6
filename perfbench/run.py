"""Benchmark entry point for the robust-phase CLI workloads.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it prints the end-to-end metrics (set-up time, trials per
run of the reference kernel, peak resident set), then trials per second as
measured; with ``--trace 1`` the per-layer metrics of a traced run.  Each
metric is printed by name with its unit, then the last line of standard
output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
Exit status is 0 only when every output passed its checks.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time

from common import HERE, WORK, require_source, run_child
from workloads import WORKLOADS, round_seed

SETUP_PROBES = 7
TIME_LIMIT_S = 170.0  # the whole run, probes included


def setup_seconds(workload, seed: int, workdir: str, deadline: float) -> float:
    """Median time from a fresh interpreter's start to its first trial.

    The probe runs the workload's first command with one process, so the
    first trial starts in the interpreter being timed; starting the pool is
    part of the experiment time.
    """
    argv = workload.commands[0].argv(round_seed(seed, 0), f"{workdir}/probe.csv", threads=1)
    probes = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic_ns()
        done = run_child([str(HERE / "probe.py"), *argv], deadline - time.monotonic())
        if done.returncode != 0 or not done.stdout.strip():
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"set-up probe exited {done.returncode}")
        probes.append((int(done.stdout.split()[-1]) - start) / 1e9)
    return statistics.median(probes)


def peak_rss_mb(workload, seed: int, workdir: str, deadline: float) -> float:
    """Peak resident set of a fresh interpreter running one round, pool workers included."""
    done = run_child([str(HERE / "rss.py"), workload.name, str(round_seed(seed, 0)), workdir],
                     deadline - time.monotonic())
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"memory probe exited {done.returncode}")
    return int(done.stdout.split()[-1]) / 1024.0  # ru_maxrss is in KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    require_source()
    deadline = time.monotonic() + TIME_LIMIT_S
    workload = WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        setup_s = None if args.trace else setup_seconds(workload, args.seed, workdir, deadline)
        done = run_child(
            [str(HERE / "child.py"), args.workload, str(args.seed), str(args.seconds),
             str(args.trace), workdir],
            deadline - time.monotonic(),
        )
        try:
            outcome = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            outcome = {"ok": False, "error": "child printed no result"}
        if done.returncode != 0 or not outcome["ok"]:
            sys.stderr.write(done.stderr)
            sys.stderr.write(f"perfbench: {args.workload}: {outcome.get('error', 'child failed')}\n")
            return 1
        rss_mb = None if args.trace else peak_rss_mb(workload, args.seed, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = outcome["per_layer"]
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "trials_per_ref": (outcome["trials_per_ref"], "trials/ref"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    print(f"workload {args.workload}, seed {args.seed}: {outcome['rounds']} rounds, "
          f"{outcome['spot_checked']} trials spot-checked")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  as measured: {outcome['trials_per_s']:.6g} trials/s")
    print(f"  attempted {outcome['attempted']}, failed {outcome['failed']}")
    print(json.dumps({
        "correct": True,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
