"""Check that each workload's CSV is byte-identical across runs and pool sizes.

Usage: python3 perfbench/determinism.py [--trials N]

Every command of every workload runs three times at master seed 1,
each in a fresh interpreter writing its own file: twice as given, and once
with the other pool size (1 process if the command uses more, else 2).  The
three files must hold the same bytes.  Both sides are built fresh on every
call; no hash is pinned.  ``--trials`` shrinks every command's trial count.
Exit status 0 means every comparison matched.
"""

from __future__ import annotations

import argparse
import dataclasses
import filecmp
import shutil
import sys
import tempfile

from common import WORK, require_source, run_child
from workloads import WORKLOADS

CLI = "import sys; from robustphase.harness import cli_main; sys.exit(cli_main(sys.argv[1:]))"
SEED = 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=None)
    args = parser.parse_args(argv)
    require_source()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="determinism-", dir=WORK)
    mismatches = 0
    try:
        for name in sorted(WORKLOADS):
            for i, cmd in enumerate(WORKLOADS[name].commands):
                if args.trials is not None:
                    cmd = dataclasses.replace(cmd, trials=args.trials)
                other = 1 if cmd.threads > 1 else 2
                paths = []
                for run, threads in (("a", cmd.threads), ("b", cmd.threads), ("c", other)):
                    path = f"{workdir}/{name}-{i}-{run}.csv"
                    done = run_child(["-c", CLI, *cmd.argv(SEED, path, threads)], 600.0)
                    if done.returncode != 0:
                        sys.stderr.write(done.stderr)
                        raise SystemExit(f"{name} command {i} exited {done.returncode}")
                    paths.append(path)
                same_rerun = filecmp.cmp(paths[0], paths[1], shallow=False)
                same_threads = filecmp.cmp(paths[0], paths[2], shallow=False)
                mismatches += not (same_rerun and same_threads)
                print(f"{name} command {i} ({cmd.experiment}): "
                      f"rerun {'identical' if same_rerun else 'DIFFERS'}, "
                      f"--threads {other} {'identical' if same_threads else 'DIFFERS'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
