"""Set-up probe: import the package and run the CLI up to its first trial.

Usage: python3 perfbench/probe.py CLI-ARGS...

Prints ``time.monotonic_ns()`` at the moment the harness calls
``run_trial`` for the first time, then exits at once.  The caller takes the
difference from its own clock reading just before it started this process.
"""

import os
import sys
import time

import robustphase.harness as harness


def first_trial(*args, **kwargs):
    sys.stdout.write(f"{time.monotonic_ns()}\n")
    sys.stdout.flush()
    os._exit(0)


harness.run_trial = first_trial
harness.cli_main(sys.argv[1:])
sys.exit("probe: the command returned without running a trial")
