"""Tests of the benchmark itself, at reduced sizes.

Run from the repository root: PYTHONPATH=src python3 -m pytest perfbench -q
"""

import csv
import dataclasses
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import robustphase.solvers
import determinism
from checks import CheckError, Trial, check_workload, read_trials, spot_check
from common import HERE, WORK
from robustphase.harness import cli_main
from tracing import Tracer
from workloads import WORKLOADS

SWEEP, SLICE = WORKLOADS["sweep-n64"].commands
GRID = WORKLOADS["grid-n512"].commands[0]
POISSON = WORKLOADS["poisson-t2"].commands[0]


@pytest.fixture
def scratch():
    """A scratch directory inside the benchmark's own work directory."""
    WORK.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=WORK)
    yield Path(path)
    shutil.rmtree(path, ignore_errors=True)


def _write(cmd, path, trials=1, seed=5):
    cmd = dataclasses.replace(cmd, trials=trials, threads=1)
    assert cli_main(cmd.argv(seed, str(path))) == 0
    return cmd


def _edit(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_determinism_command_at_reduced_size(capsys):
    assert determinism.main(["--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("rerun identical") == 4  # two sweep commands, grid, poisson


def test_known_fault_rows_are_counted_as_failed(scratch):
    cmd = _write(SLICE, scratch / "slice.csv")
    trials = read_trials(cmd, str(scratch / "slice.csv"))
    assert len(trials) == 2 and all(t.failed for t in trials)


def test_failed_trial_outside_the_known_fault_fails_the_check(scratch):
    cmd = _write(dataclasses.replace(SLICE, known_fault=False), scratch / "slice.csv")
    with pytest.raises(CheckError, match="failed outside the known fault"):
        read_trials(cmd, str(scratch / "slice.csv"))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows[1].__setitem__(8, "0" if rows[1][8] == "1" else "1"), "success"),
        (lambda rows: rows[1].__setitem__(10, "499"), "iterations under --fixed-T"),
        (lambda rows: rows.pop(), "rows, expected"),
        (lambda rows: rows[2].__setitem__(7, rows[1][7]), "seeds repeat"),
        (lambda rows: rows[1].__setitem__(3, "513"), "grid"),
    ],
)
def test_hand_corrupted_result_csv_fails(scratch, edit, message):
    path = scratch / "sweep.csv"
    cmd = _write(SWEEP, path)
    read_trials(cmd, str(path))
    _edit(path, edit)
    with pytest.raises(CheckError, match=message):
        read_trials(cmd, str(path))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows.pop(100), "contiguous"),
        (lambda rows: rows[7].__setitem__(7, "1025"), "kept outside"),
        (lambda rows: rows[9].__setitem__(6, "nan"), "non-finite"),
    ],
)
def test_hand_corrupted_iteration_csv_fails(scratch, edit, message):
    path = scratch / "poisson.csv"
    cmd = _write(POISSON, path)
    read_trials(cmd, str(path))
    _edit(path, edit)
    with pytest.raises(CheckError, match=message):
        read_trials(cmd, str(path))


def test_spot_check_recomputes_the_reported_error(scratch):
    path = scratch / "sweep.csv"
    cmd = _write(SWEEP, path)
    trials = read_trials(cmd, str(path))
    assert spot_check(trials, per_algorithm=1) == 4
    first = trials[0]
    nudged = dataclasses.replace(first, final_err=first.final_err * (1 + 1e-15) + 1e-300)
    with pytest.raises(CheckError, match="spot check"):
        spot_check([nudged])


def test_method_properties_reject_a_broken_run(scratch):
    cmd = _write(SWEEP, scratch / "sweep.csv", seed=101)
    trials = read_trials(cmd, str(scratch / "sweep.csv"))
    check_workload("sweep-n64", trials)
    lucky = [dataclasses.replace(t, final_err=0.0) if t.algorithm == "twf" else t for t in trials]
    with pytest.raises(CheckError, match="twf succeeded on 4 of 4"):
        check_workload("sweep-n64", lucky)
    unlucky = [dataclasses.replace(t, final_err=1.0) for t in trials]
    with pytest.raises(CheckError, match="success rate"):
        check_workload("sweep-n64", unlucky)


def _grid_trials(missed_algorithm, rounds=4):
    """Trials of the phase grid where one algorithm misses every trial at m/n = 4."""
    trials = []
    for r in range(rounds):
        for m in GRID.m_values:
            for algorithm in GRID.algos:
                err = 0.5 if (algorithm == missed_algorithm and m == 4 * GRID.n) else 1e-12
                trials.append(Trial(GRID, "phase_grid", algorithm, m, 0.0, 0.0, r * 10_000 + m,
                                    err, 40, False))
    return trials


def test_grid_floor_applies_only_to_plain_twf_and_rwf():
    check_workload("grid-n512", _grid_trials(None))
    with pytest.raises(CheckError, match="median solvers"):
        check_workload("grid-n512", _grid_trials("median-rwf"))
    with pytest.raises(CheckError, match="twf phase-grid success at m/n = 4 is 0 of 4"):
        check_workload("grid-n512", _grid_trials("twf"))


def test_tracer_fails_loudly_when_a_wrapped_name_is_gone(monkeypatch):
    monkeypatch.delattr(robustphase.solvers, "mtwf_gradient")
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.install()
    tracer.uninstall()
    assert hasattr(robustphase.solvers, "twf_gradient")


def test_tracer_fails_loudly_on_a_layer_with_no_calls():
    tracer = Tracer()
    tracer.span(lambda: None, "harness.run_trial", "harness")()
    with pytest.raises(RuntimeError, match="model.generate_problem"):
        tracer.require_calls()


def test_run_refuses_a_tree_without_the_package(scratch):
    shutil.copytree(HERE, scratch / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", scratch)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-n64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
