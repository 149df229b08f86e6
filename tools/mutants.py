"""Mutation probe: does the test suite notice a one-line change to the code?

Each mutant replaces one exact piece of text in one file.  For each, the
probe copies the working tree to a temporary directory, checks that the old
text occurs exactly once there, applies the replacement and runs the tests
that guard the file with ``-x``:

* a mutant of ``src/`` runs ``tests/`` without ``tests/test_benchmark_runs.py``
  and criterion 6, which fails by design;
* a mutant of ``perfbench/checks.py`` runs ``perfbench/test_perfbench.py``.

It prints one line per mutant (killed or survived, the first failing test and
the seconds taken) and exits 1 when a mutant not marked equivalent survives
or when a replacement no longer applies.  A change that deletes a mutant's
code updates its entry here.  Run it from the repository root, with every
mutant or with the ids given (about ten minutes for all of them):

    python tools/mutants.py
    python tools/mutants.py lanczos-tol relative-error-max

It is not part of the test suite.  Temporary copies go under ``$TMPDIR``.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
_COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".work", "*.egg-info"
)
_SRC_TESTS = [
    "tests",
    "--ignore=tests/test_benchmark_runs.py",
    "--deselect=tests/test_acceptance.py::test_criterion_6_product_density_median_oracle",
]
_PERFBENCH_TESTS = ["perfbench/test_perfbench.py"]
_TIMEOUT_S = 1800


class Mutant(NamedTuple):
    id: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    note: str
    equivalent: bool = False  # expected to survive: no reachable input tells it apart


_S, _SP, _M, _MT, _Q, _E, _H = (
    "src/robustphase/solvers.py",
    "src/robustphase/spectral.py",
    "src/robustphase/model.py",
    "src/robustphase/metrics.py",
    "src/robustphase/quantile.py",
    "src/robustphase/errors.py",
    "src/robustphase/harness.py",
)
_C = "perfbench/checks.py"

MUTANTS = [
    # The screened-gradient kernel.
    Mutant("e1-upper-dropped", _S,
           "passed = (abs_az >= _ALPHA_L * z_norm) & (abs_az <= _ALPHA_U * z_norm)",
           "passed = abs_az >= _ALPHA_L * z_norm",
           "no E1 upper bound"),
    Mutant("e1-lower-strict", _S, "(abs_az >= _ALPHA_L * z_norm)", "(abs_az > _ALPHA_L * z_norm)",
           "strict E1 lower bound"),
    Mutant("e2-no-factor", _S,
           "passed &= resid <= _ALPHA_H * stat * abs_az / z_norm",
           "passed &= resid <= _ALPHA_H * stat",
           "E2 without its |a.z| / ||z|| factor"),
    Mutant("rwf-screen-strict", _S, "keep = resid <= _ALPHA_H_PRIME * stat",
           "keep = resid < _ALPHA_H_PRIME * stat", "strict RWF screen"),
    Mutant("sign-zero-negative", _S, "np.where(az >= 0.0, sqrt_y, -sqrt_y)",
           "np.where(az > 0.0, sqrt_y, -sqrt_y)", "sign(0) = -1"),
    Mutant("stat-check-mean-only", _S, "    if not math.isfinite(stat):",
           '    if statistic == "mean" and not math.isfinite(stat):',
           "only the mean statistic is checked for NaN and inf"),
    Mutant("trimmed-mean", _S, "stat = float(resid[keep].sum() / n_untrimmed)",
           "stat = float(resid[keep].mean())", ".mean() for the trimmed statistic",
           equivalent=True),
    Mutant("trimean-mean-init", _S,
           "(trimean_twf_gradient, median_spectral_init, 0.4)",
           "(trimean_twf_gradient, mean_spectral_init, 0.4)", "mean init for trimean-twf"),
    Mutant("mrwf-step-0.4", _S, "(mrwf_gradient, median_spectral_init, 0.8)",
           "(mrwf_gradient, median_spectral_init, 0.4)", "step 0.4 for median-RWF"),
    # The solver loop.
    Mutant("stationary-2^-49", _S, "_STATIONARY = 2.0**-50", "_STATIONARY = 2.0**-49",
           "a looser stationarity factor"),
    Mutant("stationary-2^-51", _S, "_STATIONARY = 2.0**-50", "_STATIONARY = 2.0**-51",
           "a tighter stationarity factor"),
    Mutant("early-stop-strict", _S, "if errors[-1] <= cfg.success_tol:",
           "if errors[-1] < cfg.success_tol:", "strict early-stop test"),
    Mutant("converged-at-strict", _S, "np.asarray(errors) <= cfg.success_tol",
           "np.asarray(errors) < cfg.success_tol", "strict converged_at"),
    # The spectral init.
    Mutant("calibration-0.4549", _SP, "MEDIAN_INTENSITY_CALIBRATION = 0.455",
           "MEDIAN_INTENSITY_CALIBRATION = 0.4549", "median calibration off by 1e-4"),
    Mutant("init-mask-signed-y", _SP, "mask = np.abs(y) <= (_ALPHA_Y * lambda0) ** 2",
           "mask = y <= (_ALPHA_Y * lambda0) ** 2", "y instead of |y| in the init mask"),
    Mutant("init-mask-alpha-2", _SP, "mask = np.abs(y) <= (_ALPHA_Y * lambda0) ** 2",
           "mask = np.abs(y) <= (2.0 * lambda0) ** 2", "alpha_y = 2 in _surrogate_weights"),
    Mutant("lanczos-tol", _SP, "_LANCZOS_TOL = 1e-6", "_LANCZOS_TOL = 1e-5",
           "a looser Lanczos tolerance"),
    Mutant("lanczos-budget-30", _SP, "_LANCZOS_BUDGET = 200", "_LANCZOS_BUDGET = 30",
           "a Lanczos basis capped at 30"),
    Mutant("lanczos-one-pass", _SP, "for _ in range(2):", "for _ in range(1):",
           "one reorthogonalisation pass"),
    Mutant("lanczos-largest-ritz", _SP, "j = int(np.argmax(np.abs(theta)))",
           "j = int(np.argmax(theta))", "largest Ritz value, not largest in magnitude"),
    Mutant("lanczos-beta-above", _SP, "tri[k + 1, k] = beta", "tri[k, k + 1] = beta",
           "beta above the diagonal, where eigh does not read it"),
    # Problem generation and statistics.
    Mutant("integer-outliers-floor", _M, "values = np.round(signal_power * rng.random(k))",
           "values = np.floor(signal_power * rng.random(k))", "floor for integer outliers"),
    Mutant("placement-inclusive", _M, "rng.random(m) < spec.outlier_fraction",
           "rng.random(m) <= spec.outlier_fraction", "<= in outlier placement", equivalent=True),
    Mutant("uniform-outlier-draw", _M,
           "values = spec.eta_max_rel * signal_power * rng.random(k)",
           "values = rng.uniform(0.0, spec.eta_max_rel * signal_power, size=k)",
           "Generator.uniform for outlier values: same bytes, raises on an overflowing bound"),
    Mutant("rows-unaligned", _M, "rows = buf[start : start + m * n]",
           "rows = buf[start + 1 : start + 1 + m * n]", "ensemble rows off the cache line"),
    Mutant("x-norm-unchecked", _M, '_require_positive(x_norm, "x_norm")', "pass",
           "apply_corruption takes any x_norm"),
    Mutant("median-xtol-1e-4", _Q, "2.0, xtol=1e-12)", "2.0, xtol=1e-4)",
           "the median oracle's root search stops at 1e-4"),
    Mutant("cdf-eps-1e-10", _Q, "_CDF_EPS = 1e-30", "_CDF_EPS = 1e-10",
           "the CDF quadrature drops the mass of (0, 1e-10]"),
    Mutant("upper-median", _Q,
           'return _order_statistic(_vector(values, "sample", finite=True), 0.5)',
           'return _order_statistic(_vector(values, "sample", finite=True), 0.5 + 1e-9)',
           "the upper median for even m"),
    # Metrics.
    Mutant("relative-error-max", _MT, "np.where(pn < dn, pn, dn)", "np.where(pn < dn, dn, pn)",
           "max(||z - x||, ||z + x||) in relative_error"),
    Mutant("is-success-strict", _MT, "return outcome_error <= tol",
           "return outcome_error < tol", "strict is_success"),
    # Input rules.
    Mutant("positive-lets-nan", _E, "if not 0.0 < value < math.inf:",
           "if value <= 0.0 or value == math.inf:", "a positive rule that lets NaN through"),
    Mutant("positive-takes-zero", _E, "if not 0.0 < value < math.inf:",
           "if not 0.0 <= value < math.inf:", "a positive rule that takes 0"),
    Mutant("positive-takes-inf", _E, "if not 0.0 < value < math.inf:",
           "if not 0.0 < value:", "a positive rule that takes inf"),
    Mutant("fraction-takes-half", _E, "if not 0.0 <= value < 0.5:",
           "if not 0.0 <= value <= 0.5:", "a fraction rule that takes 0.5"),
    Mutant("count-ignores-least", _E, "value < least:", "value < 0:",
           "_require_count ignoring least"),
    # Seeds and output.
    Mutant("seed-codes-reversed", _H, "code = list(Algorithm).index(algorithm)",
           "code = list(reversed(Algorithm)).index(algorithm)",
           "algorithm seed codes in reverse declaration order"),
    Mutant("experiment-codes-reversed", _H,
           "exp_code = list(EXPERIMENTS).index(cfg.experiment)",
           "exp_code = list(reversed(EXPERIMENTS)).index(cfg.experiment)",
           "experiment seed codes in reverse table order"),
    Mutant("csv-format-by-annotation", _H, '".17g" if f.type == "float" else ""',
           '".17g" if f.type is float else ""',
           "result columns formatted as if no field were declared float"),
    # The benchmark's own checks, run against perfbench/test_perfbench.py.
    Mutant("check-header", _C, "_expect(got == header,", "_expect(True,",
           "a CSV header is not checked"),
    Mutant("check-row-count", _C, "_expect(len(rows) == cmd.trial_count,", "_expect(True,",
           "the result row count is not checked"),
    Mutant("check-failed-success", _C, "_expect(success == 0,", "_expect(True,",
           "a failed trial may be marked successful"),
    Mutant("check-success-column", _C, "_expect(success == int(err <= TOL),", "_expect(True,",
           "the success column is not checked against the error"),
    Mutant("check-fixed-t-iterations", _C, "_expect(iters == MAX_ITERS,", "_expect(True,",
           "a fixed-T row may report fewer iterations"),
    Mutant("check-grid", _C, "_expect(grid == expected,", "_expect(True,",
           "the (m, s, eta, algorithm) grid is not checked"),
    Mutant("check-t-contiguous", _C,
           '_expect([int(r["t"]) for r in trace] == list(range(MAX_ITERS + 1)),',
           "_expect(True,", "a trace's t column is not checked"),
    Mutant("check-finite-errors", _C, "_expect(all(math.isfinite(e) for e in errs),",
           "_expect(True,", "a trace may hold a non-finite error"),
    Mutant("check-kept-range", _C, '_expect(all(0 <= int(r["kept"]) <= key[2] for r in trace),',
           "_expect(True,", "kept is not checked against [0, m]"),
    Mutant("check-known-fault", _C,
           "unexpected = [t for t in trials if t.failed and not cmd.known_fault]",
           "unexpected = []", "failures outside the known fault pass"),
    Mutant("check-seed-repeat", _C, "_expect(len(seeds) == len(set(seeds)),", "_expect(True,",
           "repeated trial seeds pass"),
    Mutant("check-twf-ceiling", _C, "_expect(sum(twf) <= 1 + TWF_CEILING * len(twf),",
           "_expect(True,", "twf's outlier-sweep ceiling is not checked"),
    Mutant("check-median-floor", _C, "_expect(rate >= floor,", "_expect(True,",
           "the median solvers' outlier-sweep floor is not checked"),
    Mutant("check-grid-failures", _C, "_expect(not failed,", "_expect(True,",
           "noise-free phase-grid failures pass"),
    Mutant("check-poisson-factor", _C, "_expect(max(errs) <= POISSON_FACTOR * clean,",
           "_expect(True,", "the Poisson error bound is not checked"),
    Mutant("check-spot-error", _C, "_expect(float(err) == trial.final_err,", "_expect(True,",
           "the spot check does not compare the error"),
    Mutant("check-spot-iterations", _C, "_expect(trace.iterations == trial.iterations,",
           "_expect(True,", "the spot check does not compare the iteration count"),
    Mutant("check-spot-intensity", _C, "_expect(mismatch <= INTENSITY_RTOL,", "_expect(True,",
           "the spot check does not compare intensities"),
]


def _first_failure(output: str) -> str:
    match = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", output, re.MULTILINE)
    return match.group(1) if match else output.strip().splitlines()[-1] if output.strip() else ""


def run(mutant: Mutant) -> tuple[str, str, float]:
    """(outcome, first failing test or reason, seconds) for one mutant."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_COPY_IGNORE)
        target = tree / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "stale", f"old text occurs {text.count(mutant.old)} times", 0.0
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        suite = _PERFBENCH_TESTS if mutant.path.startswith("perfbench/") else _SRC_TESTS
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *suite]
        try:
            proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", f"timeout after {_TIMEOUT_S} s", time.perf_counter() - start
    seconds = time.perf_counter() - start
    if proc.returncode == 0:
        return "survived", "", seconds
    return "killed", _first_failure(proc.stdout + proc.stderr), seconds


def main(argv: list[str]) -> int:
    known = {m.id: m for m in MUTANTS}
    unknown = [i for i in argv if i not in known]
    if unknown:
        print(f"unknown mutant ids: {', '.join(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in [known[i] for i in argv] or MUTANTS:
        outcome, detail, seconds = run(mutant)
        if outcome == "stale" or (outcome == "survived" and not mutant.equivalent):
            bad += 1
        mark = " (equivalent)" if mutant.equivalent else ""
        print(f"{mutant.id:26s} {outcome}{mark:13s} {seconds:6.1f} s  {detail}", flush=True)
    print(f"{bad} mutant(s) survived unexpectedly or no longer apply")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
