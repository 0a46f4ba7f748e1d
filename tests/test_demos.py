# tests/test_demos.py
#
# Each demo is a script a reader runs by hand; run them all so a change to
# the library cannot break one unnoticed.
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert DEMOS  # an empty glob would skip every case below silently


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
