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
