"""Golden output: the CSV each experiment writes for a fixed command.

One small command per experiment runs every algorithm through ``cli_main``.
The SHA-256 pins are the gate: they pin the exact bytes, so any change to
the solvers, the spectral init, the seed derivation, cell order or CSV
formatting shows here.  They were taken with numpy 2.4.6 and OpenBLAS
0.3.31; another BLAS build may round a matvec differently and move them
(see README "Tests").

``tests/golden/`` holds what the hashes stand for, so that a mismatch can be
read.  The four summary commands commit their whole CSV (``<name>.csv``);
the three per-iteration commands commit one digest line per trace
(``<name>.traces.csv``: experiment, algorithm, seed, row count, ``rel_err``
at the first and last ``t``, and the SHA-256 of the trace's rows).
``test_csv_matches_committed_golden_file`` names the first differing row or
trace, its ``t`` and column, and calls the change "rounding-level" when
every difference it can measure is below 1e-12 relative, "structural"
otherwise.  A re-pin rewrites the files and prints the seven hashes in one
step::

    PYTHONPATH=src python tests/test_golden.py

The two ``*-hold`` commands run the full 500-iteration budget at n=64,
where median-RWF and median-TWF become stationary (``||g|| <= 2^-50 ||z||``)
well before the budget; ``run_solver`` then holds the iterate and repeats
its row instead of computing the rest of the trace.  ``noise-hold``
writes every iteration's kept count and statistic.
``test_hold_commands_compute_fewer_gradients_than_the_budget`` counts the
calls of the kernel every solver shares, ``solvers._screened_gradient``, and
asserts that they are fewer than the budget asks for.

``test_result_rows_are_failed_or_complete`` holds the summary commands to the
row contract the benchmark checks: a trial either failed (NaN error, no
iterations, not successful) or ran to a finite error.
``test_iteration_traces_are_complete`` is its per-iteration counterpart: a
failed trial writes no rows, and every other trial writes t = 0..max_iters
with finite errors and kept counts in [0, m].

Each command runs once per test run; every test here reads its output.
"""

import csv
import hashlib
import io
import math
from collections import defaultdict
from pathlib import Path

import pytest

import robustphase.solvers as solvers_module
from robustphase.harness import cli_main

ALGOS = "median-twf,median-rwf,twf,rwf,trimean-twf"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

GOLDEN = {
    "single": (
        ["single", "--n", "16", "--m", "96,128", "--trials", "2", "--algos", ALGOS,
         "--s", "0.1", "--eta-max-rel", "1", "--max-iters", "60"],
        "913dbf0599361f97fbcd85138461413fa838db73b25e6ec3141ff6da36fcbc8c",
    ),
    "grid": (
        ["phase-grid", "--n", "16,24", "--m-over-n", "3,6", "--trials", "2",
         "--algos", ALGOS, "--s", "0.05", "--no-fixed-T", "--max-iters", "200"],
        "9a4ee381c3f7bc3d62da61c2797b3714f35d6a551afb9411d9fbebced4331fd9",
    ),
    "sweep": (
        ["outlier-sweep", "--n", "16", "--m-over-n", "8", "--trials", "2",
         "--algos", ALGOS, "--s", "0.05,0.2", "--eta-max-rel", "1,1e200",
         "--max-iters", "80", "--threads", "2"],
        "7dc01485880f796a9f7bcc47163ec01f2035c95803a069e8e2f1859817989ffe",
    ),
    "noise": (
        ["noise-curve", "--n", "16", "--m-over-n", "8", "--trials", "2",
         "--algos", ALGOS, "--s", "0.1", "--w-max-rel", "0.01,0.001",
         "--max-iters", "40"],
        "fcbe3e7bc2377b8f8f9854828c923812118e8d9c9774f618b0c2f349f08b267d",
    ),
    "poisson": (
        ["poisson", "--n", "16", "--m-over-n", "8", "--trials", "2",
         "--algos", ALGOS, "--s", "0.1", "--max-iters", "40"],
        "92d9dfda62ad90eb6119ca639a24c1b8cf72afcce8bae4bf632adc11bd248a06",
    ),
    "sweep-hold": (
        ["outlier-sweep", "--n", "64", "--m-over-n", "8", "--s", "0.1",
         "--eta-max-rel", "1", "--algos", "median-twf,median-rwf", "--trials", "2",
         "--max-iters", "500"],
        "dda6d19339c2da6c3e1dc5032c8ad9b84b3f649697b89dd5ad4db48276f96b2a",
    ),
    "noise-hold": (
        ["noise-curve", "--n", "64", "--m-over-n", "8", "--trials", "1",
         "--algos", "median-twf,median-rwf,twf", "--s", "0.1", "--w-max-rel", "0.01,0",
         "--max-iters", "500"],
        "0a6ca00cd96ac8b68d9e15f9556ae20bc5c91b7b692b667fa5d0db8340655050",
    ),
}
PER_ITERATION_COMMANDS = ("noise-curve", "poisson")

# (argv, traces written): every trial of the golden commands completes; at
# n=1, m=3 the Poisson counts of 23 of the 40 trials are all zero, so their
# init has no scale estimate and the trial fails.
PER_ITERATION = {
    "noise": (GOLDEN["noise"][0], 24),
    "poisson": (GOLDEN["poisson"][0], 12),
    "noise-hold": (GOLDEN["noise-hold"][0], 8),
    "poisson-tiny": (
        ["poisson", "--n", "1", "--m", "3", "--trials", "20", "--algos", "median-twf",
         "--max-iters", "5"],
        17,
    ),
}

def _run(argv, out):
    """Run one command into ``out``; returns the calls of the shared gradient
    kernel made in this process (a pool's workers count none)."""
    calls = 0
    kernel = solvers_module._screened_gradient

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return kernel(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers_module, "_screened_gradient", counting)
        assert cli_main(argv + ["--out", str(out)]) == 0
    return calls


@pytest.fixture(scope="module")
def output(tmp_path_factory):
    """name -> (CSV bytes, gradient calls) of the golden and per-iteration
    commands, each run once on first use."""
    runs = {}

    def get(name):
        if name not in runs:
            argv = GOLDEN[name][0] if name in GOLDEN else PER_ITERATION[name][0]
            out = tmp_path_factory.mktemp("golden") / f"{name}.csv"
            calls = _run(argv, out)
            runs[name] = (out.read_bytes(), calls)
        return runs[name]

    return get


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_bytes_match_golden_hash(name, output):
    assert hashlib.sha256(output(name)[0]).hexdigest() == GOLDEN[name][1]


# ------------------------------------------------ readable golden mismatches

ROUNDING = 1e-12  # largest relative difference still called rounding-level
FLOAT_COLUMNS = {"s", "eta_max_rel", "w_max_rel", "final_rel_err", "wall_time_ms",
                 "rel_err", "median_stat", "rel_err_first", "rel_err_last"}
DIGEST_HEADER = ["experiment", "algorithm", "seed", "rows", "rel_err_first",
                 "rel_err_last", "sha256"]


def _per_iteration(name):
    return GOLDEN[name][0][0] in PER_ITERATION_COMMANDS


def _golden_path(name):
    return GOLDEN_DIR / (f"{name}.traces.csv" if _per_iteration(name) else f"{name}.csv")


def _trace_digest(csv_bytes):
    """One digest line per trace of a per-iteration CSV, in file order."""
    lines = csv_bytes.decode().splitlines(keepends=True)
    traces = {}  # (experiment, algorithm, seed) -> its lines; dicts keep order
    for line in lines[1:]:
        experiment, algorithm, _, _, seed, _ = line.split(",", 5)
        traces.setdefault((experiment, algorithm, seed), []).append(line)
    out = io.StringIO()
    out.write(",".join(DIGEST_HEADER) + "\n")
    for key, rows in traces.items():
        first, last = (row.split(",")[6] for row in (rows[0], rows[-1]))
        sha = hashlib.sha256("".join(rows).encode()).hexdigest()
        out.write(",".join([*key, str(len(rows)), first, last, sha]) + "\n")
    return out.getvalue().encode()


def _golden_bytes(name, csv_bytes):
    """What ``tests/golden/`` holds for a command's output."""
    return _trace_digest(csv_bytes) if _per_iteration(name) else csv_bytes


def _relative(want, got):
    """|want - got| / max(|want|, |got|) of two written floats; inf unless
    both are finite numbers."""
    a, b = float(want), float(got)
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _where(header, row, column):
    """Where a difference sits: the column, and for a trace digest the ``t``."""
    if "sha256" not in header or column not in ("rel_err_first", "rel_err_last", "sha256"):
        return f"column {column}"
    last_t = int(row[header.index("rows")]) - 1
    if column == "sha256":
        return f"t between 1 and {last_t - 1} (rel_err at t = 0 and t = {last_t} agree)"
    return f"t = {0 if column == 'rel_err_first' else last_t}, column rel_err"


def golden_mismatch(name, csv_bytes):
    """None if the output matches ``tests/golden/``, else a message naming the
    first differing row or trace and calling the change rounding-level or
    structural."""
    want_text = _golden_path(name).read_text()
    got_text = _golden_bytes(name, csv_bytes).decode()
    if want_text == got_text:
        return None
    want = list(csv.reader(io.StringIO(want_text)))
    got = list(csv.reader(io.StringIO(got_text)))
    header = want[0]
    if got[0] != header:
        return f"{name}: structural: header {got[0]} != {header}"
    trace_level = "sha256" in header
    key_columns = [c for c in ("experiment", "algorithm", "n", "m", "seed") if c in header]
    first, largest, differing = None, 0.0, 0
    for i, (w, g) in enumerate(zip(want[1:], got[1:]), start=1):
        if w == g:
            continue
        differing += 1
        diffs = {}  # column -> relative difference, inf when not measurable
        for column, a, b in zip(header, w, g):
            if a != b:
                diffs[column] = _relative(a, b) if column in FLOAT_COLUMNS else math.inf
        if trace_level and len(diffs) > 1:
            diffs.pop("sha256")  # the other columns measure it; alone, its size is unknown
        row_largest = max(diffs.values())
        largest = max(largest, row_largest)
        if first is None:
            column = next(iter(diffs))
            named = ", ".join(f"{c}={w[header.index(c)]}" for c in key_columns)
            detail = f"{w[header.index(column)]} != {g[header.index(column)]}"
            if column in FLOAT_COLUMNS:
                detail += f" (relative {diffs[column]:.3g})"
            first = (f"first differing {'trace' if trace_level else 'row'} {i} "
                     f"({named}), {_where(header, w, column)}: {detail}")
    if len(want) != len(got):
        largest = math.inf
        first = first or f"the golden file has {len(want) - 1} lines, the output {len(got) - 1}"
    kind = "rounding-level" if largest < ROUNDING else "structural"
    size = f"largest relative difference {largest:.3g}" if math.isfinite(largest) else (
        "a difference no relative size measures")
    return (f"{name} differs from {_golden_path(name).name}: {kind} ({size}; "
            f"{differing} of {len(want) - 1} {'traces' if trace_level else 'rows'} differ)\n"
            f"{first}")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_matches_committed_golden_file(name, output):
    message = golden_mismatch(name, output(name)[0])
    assert message is None, message


def test_golden_mismatch_names_the_row_and_the_kind():
    csv_bytes = _golden_path("single").read_bytes()
    assert golden_mismatch("single", csv_bytes) is None
    lines = csv_bytes.decode().splitlines(keepends=True)
    fields = lines[3].split(",")
    err = float(fields[9])
    for new_err, kind in ((err * (1 + 1e-15), "rounding-level"), (err * 1.001, "structural")):
        fields[9] = repr(new_err)
        edited = "".join(lines[:3] + [",".join(fields)] + lines[4:]).encode()
        message = golden_mismatch("single", edited)
        assert f": {kind} (" in message, message
        assert f"first differing row 3 (experiment=single, algorithm={fields[1]}" in message
        assert "column final_rel_err" in message, message


def test_golden_mismatch_names_the_trace_and_t(output):
    assert golden_mismatch("noise", output("noise")[0]) is None
    lines = output("noise")[0].decode().splitlines(keepends=True)
    per_trace = 41  # t = 0..40
    for t, where in ((40, "t = 40, column rel_err"), (7, "t between 1 and 39")):
        edited = list(lines)
        fields = edited[1 + per_trace + t].split(",")  # the second trace
        fields[6] = repr(float(fields[6]) * 1.001)
        edited[1 + per_trace + t] = ",".join(fields)
        message = golden_mismatch("noise", "".join(edited).encode())
        assert ": structural (" in message and "1 of 24 traces differ" in message, message
        assert f"first differing trace 2 (experiment={fields[0]}, algorithm={fields[1]}" in message
        assert where in message, message


# ------------------------------------------------------------ held iterates


@pytest.mark.parametrize("name", ["sweep-hold", "noise-hold"])
def test_hold_commands_compute_fewer_gradients_than_the_budget(name, output):
    """A held iterate's rows are repeated, not recomputed, so these
    commands make fewer gradient calls than one per trial and iteration."""
    csv_bytes, calls = output(name)
    argv = GOLDEN[name][0]
    budget = _flag(argv, "--max-iters", 500)
    lines = csv_bytes.decode().splitlines()[1:]
    if argv[0] in PER_ITERATION_COMMANDS:
        trials = len({tuple(line.split(",")[:5]) for line in lines})
    else:
        trials = len(lines)
    assert 0 < calls < trials * (budget + 1)


# ------------------------------------------------------------ row contracts


def _flag(argv, flag, default):
    return type(default)(argv[argv.index(flag) + 1]) if flag in argv else default


@pytest.mark.parametrize("name", ["single", "grid", "sweep"])
def test_result_rows_are_failed_or_complete(name, output):
    argv, _ = GOLDEN[name]
    max_iters, tol = _flag(argv, "--max-iters", 500), _flag(argv, "--tol", 1e-8)
    rows = list(csv.DictReader(io.StringIO(output(name)[0].decode())))
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


@pytest.mark.parametrize("name", sorted(PER_ITERATION))
def test_iteration_traces_are_complete(name, output):
    argv, expected_traces = PER_ITERATION[name]
    traces = defaultdict(list)
    for row in csv.DictReader(io.StringIO(output(name)[0].decode())):
        traces[int(row["seed"])].append(row)
    assert len(traces) == expected_traces
    max_iters = _flag(argv, "--max-iters", 500)
    for seed, trace in traces.items():
        m = int(trace[0]["m"])
        assert [int(r["t"]) for r in trace] == list(range(max_iters + 1)), seed
        assert all(math.isfinite(float(r["rel_err"])) for r in trace), seed
        assert all(0 <= int(r["kept"]) <= m for r in trace), seed


def write_golden_files(directory=GOLDEN_DIR):
    """Rewrite ``tests/golden/`` from the current package; returns the seven
    hashes to pin in ``GOLDEN``."""
    import tempfile

    directory.mkdir(exist_ok=True)
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, _) in GOLDEN.items():
            out = Path(tmp) / f"{name}.csv"
            _run(argv, out)
            csv_bytes = out.read_bytes()
            hashes[name] = hashlib.sha256(csv_bytes).hexdigest()
            (directory / _golden_path(name).name).write_bytes(_golden_bytes(name, csv_bytes))
    return hashes


if __name__ == "__main__":
    for name, digest in write_golden_files().items():
        print(f"{name}: {digest}")
