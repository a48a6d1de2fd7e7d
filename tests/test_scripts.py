"""Smoke tests of the scripts in scripts/, run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_profile_step_profiles_steady_state_steps():
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "profile_step.py"), "steps", "--m", "16",
         "--steps", "2"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, faults, solves = proc.stdout.splitlines()[:3]
    assert header.startswith("2 steps at m=16, "), proc.stdout
    assert faults.startswith("minor page faults per step: ") and len(faults.split()) == 7
    assert solves.startswith("psd iterations per step: mean "), proc.stdout
    assert "; median relative tolerance " in solves
