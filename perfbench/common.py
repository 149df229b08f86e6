"""Paths and process environment shared by the benchmark's scripts."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# Every process of a run, pool workers included, gets one BLAS thread, so a
# single-threaded workload is the plain baseline and two harness workers
# stay within two cores.
BLAS_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def require_source() -> None:
    """Exit with status 2 unless the package's source tree is present."""
    if not (SRC / "robustphase" / "harness.py").is_file():
        sys.stderr.write(f"perfbench: no package source at {SRC / 'robustphase'}\n")
        raise SystemExit(2)


def child_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports the package from src."""
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a Python child in its own session; on timeout kill the whole group.

    The group kill also stops harness pool workers the child started.
    """
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nperfbench: child killed after {timeout:.0f} s\n"
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)
