"""The runnable scripts still run against the package's public names."""

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
    ]
    assert all(len(line.split()[1]) == 64 for line in lines)
