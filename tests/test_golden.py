"""Golden output: SHA-256 of the CSV each experiment writes for a fixed command.

One small command per experiment runs every algorithm through ``cli_main``.
The hashes pin the exact bytes, so any change to the solvers, the spectral
init, the seed derivation, cell order or CSV formatting shows here.  They
were taken with numpy 2.4.6 and OpenBLAS 0.3.31; another BLAS build may
round a matvec differently and move them (see README "Tests").

The two ``*-replay`` commands run the full 500-iteration budget at n=64,
where median-RWF and median-TWF end in bitwise cycles, so most of their
traces are copied by ``run_solver``'s cycle replay rather than computed;
``noise-replay`` writes every iteration's kept count and statistic.  Their
hashes match a run with the replay switched off, which recomputes every
iteration.

``test_result_rows_are_failed_or_complete`` holds the summary commands to the
row contract the benchmark checks: a trial either failed (NaN error, no
iterations, not successful) or ran to a finite error.
``test_iteration_traces_are_complete`` is its per-iteration counterpart: a
failed trial writes no rows, and every other trial writes t = 0..max_iters
with finite errors and kept counts in [0, m].
"""

import csv
import hashlib
import math
from collections import defaultdict

import pytest

from robustphase.harness import cli_main

ALGOS = "median-twf,median-rwf,twf,rwf,trimean-twf"

GOLDEN = {
    "single": (
        ["single", "--n", "16", "--m", "96,128", "--trials", "2", "--algos", ALGOS,
         "--s", "0.1", "--eta-max-rel", "1", "--max-iters", "60"],
        "4f20d9e8a72b8cb975009760fc5c4f0be1319a843b7f9f273497eda83326a5ea",
    ),
    "grid": (
        ["phase-grid", "--n", "16,24", "--m-over-n", "3,6", "--trials", "2",
         "--algos", ALGOS, "--s", "0.05", "--no-fixed-T", "--max-iters", "200"],
        "767f349673e4de078eeafb6acf48ab776b48e0b9d296d402d6c6fed145754ae8",
    ),
    "sweep": (
        ["outlier-sweep", "--n", "16", "--m-over-n", "8", "--trials", "2",
         "--algos", ALGOS, "--s", "0.05,0.2", "--eta-max-rel", "1,1e200",
         "--max-iters", "80", "--threads", "2"],
        "db67e7a820bab4b4266fc79bb8f4024549e058fe47faf2894b685ca0741e9529",
    ),
    "noise": (
        ["noise-curve", "--n", "16", "--m-over-n", "8", "--trials", "2",
         "--algos", ALGOS, "--s", "0.1", "--w-max-rel", "0.01,0.001",
         "--max-iters", "40"],
        "c9eed1ee3e3200d9716355f2257ac32c4152c522061e20658b8d8e45177700ab",
    ),
    "poisson": (
        ["poisson", "--n", "16", "--m-over-n", "8", "--trials", "2",
         "--algos", ALGOS, "--s", "0.1", "--max-iters", "40"],
        "1222147a176f24861eb0964c539d326bbdfeaf7b2be37b1798884dee6c2772d8",
    ),
    "sweep-replay": (
        ["outlier-sweep", "--n", "64", "--m-over-n", "8", "--s", "0.1",
         "--eta-max-rel", "1", "--algos", "median-twf,median-rwf", "--trials", "2",
         "--max-iters", "500"],
        "7aeb046032eaad348853aeacd1f1ce27d338c1e424adf33bc0f6038ff92961e2",
    ),
    "noise-replay": (
        ["noise-curve", "--n", "64", "--m-over-n", "8", "--trials", "1",
         "--algos", "median-twf,median-rwf,twf", "--s", "0.1", "--w-max-rel", "0.01,0",
         "--max-iters", "500"],
        "67b129c82d8ec97e1b335d204663c3d65231176bd638c4cecf12ba0633556c33",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_bytes_match_golden_hash(name, tmp_path):
    argv, expected = GOLDEN[name]
    out = tmp_path / f"{name}.csv"
    assert cli_main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def _flag(argv, flag, default):
    return type(default)(argv[argv.index(flag) + 1]) if flag in argv else default


@pytest.mark.parametrize("name", ["single", "grid", "sweep"])
def test_result_rows_are_failed_or_complete(name, tmp_path):
    argv, _ = GOLDEN[name]
    out = tmp_path / f"{name}.csv"
    assert cli_main(argv + ["--out", str(out)]) == 0
    max_iters, tol = _flag(argv, "--max-iters", 500), _flag(argv, "--tol", 1e-8)
    with out.open(newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows
    failed = 0
    for row in rows:
        err, iters, success = (
            float(row["final_rel_err"]), int(row["iterations"]), int(row["success"])
        )
        if math.isnan(err):
            assert (iters, success) == (0, 0), row
            failed += 1
        else:
            assert math.isfinite(err) and err >= 0.0, row
            assert success == int(err <= tol), row
            if "--no-fixed-T" in argv:
                assert 0 <= iters <= max_iters, row
            else:
                assert iters == max_iters, row
    # Only the sweep's eta=1e200 cells hold trials that fail by design.
    assert (failed > 0) == (name == "sweep")


# (argv, traces written): every trial of the golden commands completes; at
# n=1, m=3 the Poisson counts of 23 of the 40 trials are all zero, so their
# init has no scale estimate and the trial fails.
PER_ITERATION = {
    "noise": (GOLDEN["noise"][0], 24),
    "poisson": (GOLDEN["poisson"][0], 12),
    "noise-replay": (GOLDEN["noise-replay"][0], 8),
    "poisson-tiny": (
        ["poisson", "--n", "1", "--m", "3", "--trials", "20", "--algos", "median-twf",
         "--max-iters", "5"],
        17,
    ),
}


@pytest.mark.parametrize("name", sorted(PER_ITERATION))
def test_iteration_traces_are_complete(name, tmp_path):
    argv, expected_traces = PER_ITERATION[name]
    out = tmp_path / f"{name}.csv"
    assert cli_main(argv + ["--out", str(out)]) == 0
    traces = defaultdict(list)
    with out.open(newline="") as f:
        for row in csv.DictReader(f):
            traces[int(row["seed"])].append(row)
    assert len(traces) == expected_traces
    max_iters = _flag(argv, "--max-iters", 500)
    for seed, trace in traces.items():
        m = int(trace[0]["m"])
        assert [int(r["t"]) for r in trace] == list(range(max_iters + 1)), seed
        assert all(math.isfinite(float(r["rel_err"])) for r in trace), seed
        assert all(0 <= int(r["kept"]) <= m for r in trace), seed
