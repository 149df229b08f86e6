"""The benchmark's entry point runs to completion and passes its own checks.

``perfbench/run.py`` exits non-zero when a check rejects the CSV, when the
set-up probe or the memory probe fails, when a round's ``cli_main`` call
returns non-zero, or when a traced run finds a wrapped name gone, a layer
with no calls or a solver result without the attributes it reads.  Each run
here is cut to one second of rounds; the checks are those of a full run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "workload, trace",
    [("sweep-n64", 0), ("grid-n512", 0), ("poisson-t2", 0), ("poisson-t2", 1)],
)
def test_benchmark_run_exits_zero_and_passes_its_checks(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
