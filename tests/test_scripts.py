"""The runnable scripts still run against the package's public names."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [["scripts/demo.py"], ["scripts/law_sweep.py", "--pairs", "5"]],
    ids=["demo", "law_sweep"],
)
def test_script_exits_zero(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_route_digest_prints_one_digest_per_route_and_the_folds():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "scripts/route_digest.py", "--seeds", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "blackbox", "blackbox_categorical", "oracle_behavior", "blackbox_fast", "compose_folds",
        "netlists",
    ]
    assert all(len(line.split()[1]) == 64 for line in lines)


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canned_run(check_ms, rounds, correct=True):
    """The stdout of a ``bench/run.py`` run: summary lines, then the JSON."""
    result = {
        "correct": correct,
        "attempted": 10,
        "failed": 0 if correct else 1,
        "metrics": {"check_p50_ms": {"value": check_ms, "unit": "ms"},
                    "rounds": {"value": rounds, "unit": "count"}},
    }
    return f"workload corpus, seed 1: 5 operations per round\ncheck: p50 {check_ms} ms\n" \
        + json.dumps(result) + "\n"


def test_bench_pairs_summarizes_canned_runs():
    bp = _load_script("bench_pairs")
    parent = [2.0, 1.9, 2.1, 1.8, 2.2]
    change = [1.5, 1.6, 1.4, 1.9, 1.5]
    pairs = [(bp.last_json(_canned_run(p, 10)), bp.last_json(_canned_run(c, 9 + k % 3)))
             for k, (p, c) in enumerate(zip(parent, change))]
    summary = bp.summarize(pairs, {"check_p50_ms": "lower", "rounds": "higher"})
    check = summary["metrics"]["check_p50_ms"]
    assert check["parent_median"] == 2.0 and check["change_median"] == 1.5
    assert check["parent_quartiles"] == pytest.approx((1.85, 2.15))
    assert check["change_quartiles"] == pytest.approx((1.45, 1.75))
    # The fourth pair is lost (1.9 against 1.8).
    assert check["pairs_won"] == 4 and check["pairs"] == 5
    assert check["parent"] == parent and check["change"] == change
    assert check["unit"] == "ms" and check["better"] == "lower"
    rounds = summary["metrics"]["rounds"]
    # Higher is better: only 11 beats 10; 9 loses twice and 10 ties twice.
    assert rounds["change"] == [9, 10, 11, 9, 10] and rounds["pairs_won"] == 1
    assert summary["all_correct"] and summary["failed"] == 0

    pairs[2] = (pairs[2][0], bp.last_json(_canned_run(1.4, 11, correct=False)))
    summary = bp.summarize(pairs, {"check_p50_ms": "lower"})
    assert not summary["all_correct"] and summary["failed"] == 1
    assert bp.quartiles([3.0]) == (3.0, 3.0)
    with pytest.raises(ValueError):
        bp.last_json("\n\n")


def test_bench_pairs_reads_the_end_to_end_metrics():
    bp = _load_script("bench_pairs")
    metrics = bp.end_to_end_metrics()
    assert "check_p50_ms" in metrics and "peak_rss_mb" in metrics
    assert set(metrics.values()) <= {"lower", "higher"}
