"""The verdict logic of tools/pairs.py, on hand-made pairs of benchmark runs.

The tool itself runs the benchmark and stays outside the suite; these tests
only feed its summary pairs of results shaped like ``perfbench/run.py``'s
JSON line.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

LOWER = {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}
HIGHER = {"name": "trials_per_ref", "better": "higher", "bound": 0.25}


def _run(value, failed=0, attempted=100):
    return {"metrics": {"peak_rss_mb": {"value": value}, "trials_per_ref": {"value": value}},
            "failed": failed, "attempted": attempted}


def _pairs(parent, change, change_failed=0):
    return [{"parent": _run(p), "change": _run(c, failed=change_failed)}
            for p, c in zip(parent, change)]


@pytest.mark.parametrize("metric, change, verdict", [
    (HIGHER, [0.70, 0.71, 0.72, 0.73], "CROSSED"),    # 30% fewer trials per ref
    (HIGHER, [1.10, 1.11, 1.12, 1.13], "held"),       # more is better: no loss
    (LOWER, [1.06, 1.07, 1.08, 1.09], "CROSSED"),     # 7% more memory
    (LOWER, [0.70, 0.71, 0.72, 0.73], "held"),        # less is better: no loss
], ids=["higher-crossed", "higher-held", "lower-crossed", "lower-held"])
def test_a_bound_is_crossed_only_in_the_worse_direction(metric, change, verdict, capsys):
    parent = [0.99, 1.00, 1.00, 1.01]
    assert pairs._verdict(parent, change, metric) == verdict
    assert pairs._summarise("w", _pairs(parent, change), [metric]) == (verdict != "CROSSED")
    assert f"{metric['bound']:.0%}: {verdict}" in capsys.readouterr().out


def test_a_spread_wider_than_the_bound_is_unresolved_unless_the_runs_separate():
    parent = [0.90, 0.95, 1.05, 1.10]   # quartile distance ~10% against a 5% bound
    assert pairs._verdict(parent, [0.91, 0.96, 1.04, 1.09], LOWER) == "unresolved"
    assert pairs._verdict(parent, [0.80, 0.82, 0.84, 0.86], LOWER) == "held"  # all below
    assert pairs._verdict(parent, [1.10, 1.15, 1.20, 1.25], LOWER) == "CROSSED"


def test_pairs_won_count_the_better_direction(capsys):
    pairs._summarise("w", _pairs([1.0, 1.0, 1.0, 1.0], [0.99, 1.01, 0.98, 1.0]), [LOWER])
    assert " 2/4 " in capsys.readouterr().out


def test_a_larger_failed_share_is_not_clean(capsys):
    same = [1.0, 1.0, 1.0, 1.0]
    assert pairs._summarise("w", _pairs(same, same), [HIGHER])
    assert not pairs._summarise("w", _pairs(same, same, change_failed=1), [HIGHER])
    assert "fails a larger share" in capsys.readouterr().out
