"""Peak-memory probe: run one round of a workload through the CLI, nothing else.

Usage: python3 perfbench/rss.py WORKLOAD ROUND-SEED WORKDIR

Runs every command of the workload's round with ``cli_main``, as the
``robust-phase`` tool would, then prints the largest ``ru_maxrss`` in KiB of
this interpreter and of its finished pool workers.  The process holds no
benchmark state (no parsed CSV, no timing buffers), so the figure is the
program's own.
"""

import contextlib
import os
import resource
import sys

from robustphase.harness import cli_main
from workloads import WORKLOADS

name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
for i, cmd in enumerate(WORKLOADS[name].commands):
    out = os.path.join(workdir, f"rss-{i}.csv")
    with contextlib.redirect_stdout(sys.stderr):
        status = cli_main(cmd.argv(seed, out))
    if status != 0:
        sys.exit(f"rss probe: command {i} exited {status}")
    os.remove(out)
usage = (resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
print(max(usage))
