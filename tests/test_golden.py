"""Golden output: SHA-256 of the CSV each experiment writes for a fixed command.

One small command per experiment runs every algorithm through ``cli_main``.
The hashes pin the exact bytes, so any change to the solvers, the spectral
init, the seed derivation, cell order or CSV formatting shows here.  They
were taken with numpy 2.4.6 and OpenBLAS 0.3.31; another BLAS build may
round a matvec differently and move them (see README "Tests").
"""

import hashlib

import pytest

from robustphase.harness import cli_main

ALGOS = "median-twf,median-rwf,twf,rwf,trimean-twf"

GOLDEN = {
    "single": (
        ["single", "--n", "16", "--m", "96,128", "--trials", "2", "--algos", ALGOS,
         "--s", "0.1", "--eta-max-rel", "1", "--max-iters", "60"],
        "ea8f17ff982fb305bb064abfd29aa97de26e2e356022e29d7c6271387dbf7f43",
    ),
    "grid": (
        ["phase-grid", "--n", "16,24", "--m-over-n", "3,6", "--trials", "2",
         "--algos", ALGOS, "--s", "0.05", "--no-fixed-T", "--max-iters", "200"],
        "071e60a940f347dfc31bc49cde8712a1c82fb5d5d776af0253a8869832b2453c",
    ),
    "sweep": (
        ["outlier-sweep", "--n", "16", "--m-over-n", "8", "--trials", "2",
         "--algos", ALGOS, "--s", "0.05,0.2", "--eta-max-rel", "1,1e200",
         "--max-iters", "80", "--threads", "2"],
        "0622dddc90e765f1da5db7bc6a9e76e43a1b19ac20ecfadf9c323355943db7e6",
    ),
    "noise": (
        ["noise-curve", "--n", "16", "--m-over-n", "8", "--trials", "2",
         "--algos", ALGOS, "--s", "0.1", "--w-max-rel", "0.01,0.001",
         "--max-iters", "40"],
        "9e6dcb7c594fb9bf0a40a2726fbf6d56c3c086ae9ea576a6ec246bb1de5055e6",
    ),
    "poisson": (
        ["poisson", "--n", "16", "--m-over-n", "8", "--trials", "2",
         "--algos", ALGOS, "--s", "0.1", "--max-iters", "40"],
        "764bbddd0e51c703ad3073c289fb3ba2822ef3f3ce027bf9da01486483bdc2f2",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_bytes_match_golden_hash(name, tmp_path):
    argv, expected = GOLDEN[name]
    out = tmp_path / f"{name}.csv"
    assert cli_main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected
