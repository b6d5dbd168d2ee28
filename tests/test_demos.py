"""Smoke test for the demo scripts: each runs to completion and prints.

``04_fitting.py`` runs a full EM fit, the slowest of the five (seconds).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_building_blocks.py", "02_joint_model.py",
         "03_dependence_measures.py", "04_fitting.py",
         "05_beran_diagnostics.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
