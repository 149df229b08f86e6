"""Spans around the package's public functions, recorded from outside it.

The package's modules look these names up in their own globals at call
time, so replacing the module attribute routes every internal call through
a wrapper.  A wrapper opens a span, calls the original, and on return adds
its duration to its key and its self time (duration minus the time of the
spans it enclosed) to its layer.  Spans live in memory only.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, attribute, span key, layer).  A rename or merge in the package
# makes install() fail instead of silently recording nothing.
WRAPPED = [
    ("robustphase.harness", "run_trial", "harness.run_trial", "harness"),
    ("robustphase.harness", "write_result_csv", "harness.write_csv", "harness"),
    ("robustphase.harness", "write_iteration_csv", "harness.write_csv", "harness"),
    ("robustphase.harness", "generate_problem", "model.generate_problem", "model"),
    ("robustphase.harness", "run_solver", "solvers.run_solver", "solvers"),
    ("robustphase.solvers", "median_spectral_init", "spectral.init", "spectral"),
    ("robustphase.solvers", "mean_spectral_init", "spectral.init", "spectral"),
    ("robustphase.solvers", "mtwf_gradient", "solvers.gradient", "solvers"),
    ("robustphase.solvers", "mrwf_gradient", "solvers.gradient", "solvers"),
    ("robustphase.solvers", "twf_gradient", "solvers.gradient", "solvers"),
    ("robustphase.solvers", "rwf_gradient", "solvers.gradient", "solvers"),
    ("robustphase.solvers", "trimean_twf_gradient", "solvers.gradient", "solvers"),
    ("robustphase.solvers", "relative_error", "metrics.relative_error", "metrics"),
    ("robustphase.solvers", "sample_median", "quantile.sample_median", "quantile"),
    ("robustphase.spectral", "sample_median", "quantile.sample_median", "quantile"),
]


@dataclass
class Stat:
    calls: int = 0
    seconds: float = 0.0


@dataclass
class Tracer:
    stats: dict[str, Stat] = field(default_factory=lambda: defaultdict(Stat))
    busy: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    gradient_shapes: dict[tuple[int, int], int] = field(default_factory=lambda: defaultdict(int))
    power_iters: int = 0
    unconverged: int = 0
    iterations: int = 0
    useful_iterations: int = 0
    _stack: list[list[float]] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def span(self, fn, key: str, layer: str):
        """Wrap ``fn`` so each call records a span under ``key`` and ``layer``."""
        observe = {
            "solvers.gradient": self._gradient_shape,
            "spectral.init": self._init_result,
            "solvers.run_solver": self._solver_trace,
        }.get(key)

        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]  # start, time of enclosed spans
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame[0]
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += elapsed
                stat = self.stats[key]
                stat.calls += 1
                stat.seconds += elapsed
                self.busy[layer] += elapsed - frame[1]
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _gradient_shape(self, args, result) -> None:
        ensemble = args[0]
        self.gradient_shapes[(ensemble.m, ensemble.n)] += 1

    def _init_result(self, args, result) -> None:
        self.power_iters += result.power_iters
        self.unconverged += not result.converged

    def _solver_trace(self, args, result) -> None:
        self.iterations += result.iterations
        if result.converged_at is not None:
            self.useful_iterations += result.converged_at

    def install(self) -> None:
        for module_name, attr, key, layer in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)  # AttributeError if renamed
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(original, key, layer))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def require_calls(self) -> None:
        """Fail loudly when a layer the workload exercises recorded nothing."""
        silent = sorted({key for _, _, key, _ in WRAPPED} - {
            key for key, stat in self.stats.items() if stat.calls
        })
        if silent:
            raise RuntimeError(
                "traced run recorded no calls to " + ", ".join(silent)
                + "; the package's public names changed and the benchmark must follow"
            )
