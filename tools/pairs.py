"""Paired benchmark runs: a parent revision against the working tree.

Each pair runs the benchmark command that ``BENCHMARK.json`` declares on
both trees with the same seed, one after the other; the order alternates
from pair to pair, and every pair has a seed of its own (``--seed-base``,
then one more per pair, across all workloads).  The parent tree comes from
``git archive <rev> | tar -x`` under ``$TMPDIR``; the change is the working
tree.  Every run lasts ``run_seconds`` of ``BENCHMARK.json``.

For every workload and end-to-end metric it prints the parent and change
medians with their quartiles, the pairs the change won, the change of the
median and its verdict against the metric's bound, then each side's failed
share.  The verdict is CROSSED when the change's median is worse than the
parent's by more than the bound; otherwise it is unresolved when either
side's quartile distance is wider than the bound (as a share of the
parent's median) and not every change run beats every parent run, and held
when neither holds.  Every run's command line is printed
as it starts, so any one can be rerun.  A run that fails is reported with
its seed and tree, never dropped or re-seeded.  The tool reads the bounds
and never writes them.  It exits 1 when a run fails, a bound is crossed or
the change fails a larger share of trials than the parent; otherwise 0,
unresolved metrics included.

    python tools/pairs.py HEAD~1
    python tools/pairs.py 1c29930 --workload sweep-n64 --pairs 10 --seed-base 9000

It is not part of the test suite.  Run it from the repository root on an
otherwise idle machine; every run takes about ``run_seconds`` plus its
set-up and memory probes.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_RUN_TIMEOUT_S = 600


def _materialise(rev: str, into: Path) -> None:
    into.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def _run(command: list[str], tree: Path) -> tuple[dict | None, str]:
    """One benchmark run: (its JSON result, "") or (None, why it failed)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # each tree its own src
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=_RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {_RUN_TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if done.returncode != 0 or not result or not result.get("correct"):
        tail = " | ".join(done.stderr.strip().splitlines()[-3:])
        return None, f"exit {done.returncode}: {tail}"
    return result, ""


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _verdict(parent: list[float], change: list[float], metric: dict) -> str:
    """CROSSED, unresolved or held: the change's runs against the parent's."""
    lower, bound = metric["better"] == "lower", metric["bound"]
    (p1, pm, p3), (c1, cm, c3) = _quartiles(parent), _quartiles(change)
    if ((cm - pm) / pm if lower else (pm - cm) / pm) > bound:
        return "CROSSED"
    separated = max(change) < min(parent) if lower else min(change) > max(parent)
    if max(p3 - p1, c3 - c1) > bound * pm and not separated:
        return "unresolved"
    return "held"


def _summarise(workload: str, pairs: list[dict], metrics: list[dict]) -> bool:
    """Print one workload's verdict; True when no bound is crossed and the
    change fails no larger share of trials than the parent."""
    clean = True
    print(f"\n{workload}: {len(pairs)} pairs")
    print(f"  {'metric':16s} {'parent median [q1, q3]':30s} {'change median [q1, q3]':30s} "
          f"{'change':>8s} {'won':>6s}  bound")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                for p in pairs if p["parent"] and p["change"]]
        if not both:
            print(f"  {name:16s} no pair with both runs")
            continue
        parent, change = ([b[i] for b in both] for i in (0, 1))
        (p1, pm, p3), (c1, cm, c3) = _quartiles(parent), _quartiles(change)
        won = sum((c < p) if lower else (c > p) for p, c in both)
        verdict = _verdict(parent, change, metric)
        clean &= verdict != "CROSSED"
        print(f"  {name:16s} {f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':30s} "
              f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':30s} {(cm - pm) / pm:+8.1%} "
              f"{won:>2d}/{len(both):<3d}  {metric['bound']:.0%}: {verdict}")
    shares = {}
    for side in ("parent", "change"):
        runs = [p[side] for p in pairs if p[side]]
        failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
        shares[side] = failed / attempted if attempted else 0.0
        print(f"  failed share, {side}: {failed}/{attempted} = {shares[side]:.2%}")
    if shares["change"] > shares["parent"]:
        print("  the change fails a larger share of trials than the parent")
        clean = False
    return clean


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision to compare the working tree against")
    parser.add_argument("--workload", action="append", help="repeatable; default all")
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--seed-base", type=int, default=7001, help="the first pair's seed")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    if args.pairs < 1 or any(w not in known for w in workloads):
        parser.error(f"--pairs must be at least 1 and each workload one of {', '.join(known)}")

    scratch = Path(tempfile.mkdtemp(prefix="pairs-"))
    try:
        trees = {"parent": scratch / "parent", "change": ROOT}
        try:
            _materialise(args.parent, trees["parent"])
        except subprocess.CalledProcessError:
            print(f"cannot materialise {args.parent!r} with git archive", file=sys.stderr)
            return 2
        print(f"parent {args.parent} at {trees['parent']}; change: the working tree at {ROOT}")
        clean, seed = True, args.seed_base
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                command = [*spec["command"], "--workload", workload, "--seed", str(seed),
                           "--seconds", f"{spec['run_seconds']:g}"]
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {}
                print(f"{workload} pair {i + 1}, seed {seed}, {order[0]} first:", flush=True)
                for side in order:
                    print(f"  {side}: (cd {trees[side]} && {shlex.join(command)})", flush=True)
                    pair[side], why = _run(command, trees[side])
                    if pair[side] is None:
                        clean = False
                        print(f"  FAILED: {side} tree, seed {seed}: {why}", flush=True)
                pairs.append(pair)
                seed += 1
            clean &= _summarise(workload, pairs, spec["end_to_end"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"\n{'no run failed and no bound was crossed' if clean else 'NOT CLEAN'}")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
