"""The names the benchmark's tracer rebinds are looked up when called.

``perfbench/tracing.py`` lists in ``WRAPPED`` the module attributes it
replaces with timing wrappers.  A name the package binds at import time
(a default argument, a dict built at module load, ``from x import f`` used
through a captured reference) would keep calling the original, and the
traced benchmark run would record nothing for it.  This test rebinds every
listed attribute with a counting wrapper, runs two small CLI commands that
between them reach every listed name, and asserts that each wrapper ran.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

from robustphase import Algorithm
from robustphase.harness import cli_main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped_names():
    # WRAPPED is a literal list; read it without importing the benchmark.
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "WRAPPED" for t in node.targets
        ):
            return [(module, attr) for module, attr, _, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"no WRAPPED list in {TRACING}")


def test_every_traced_name_is_called_through_its_module_attribute(tmp_path, monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    names = _wrapped_names()
    assert names
    for module_name, attr in names:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, counting((module_name, attr), getattr(module, attr)))

    small = ["--n", "8", "--m", "48", "--max-iters", "3", "--threads", "1"]
    all_algos = ",".join(a.value for a in Algorithm)
    assert cli_main(["single", *small, "--algos", all_algos,
                     "--out", str(tmp_path / "single.csv")]) == 0
    assert cli_main(["poisson", *small, "--out", str(tmp_path / "poisson.csv")]) == 0

    assert [name for name in names if not calls[name]] == []
