"""Smoke tests of the scripts in scripts/, run as a user runs them."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
ENERGY_LINE = r"energy diagnostics: (\d+\.\d{3}) s of (\d+\.\d{3}) s profiled \((\d+\.\d)%\)"


def profile_step(*args):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OMP_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / "profile_step.py"), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_profile_step_profiles_steady_state_steps():
    proc = profile_step("steps", "--m", "16", "--steps", "2")
    assert proc.returncode == 0, proc.stderr
    header, faults, solves = proc.stdout.splitlines()[:3]
    assert header.startswith("2 steps at m=16, "), proc.stdout
    assert faults.startswith("minor page faults per step: ") and len(faults.split()) == 7
    assert solves.startswith("psd iterations per step: mean "), proc.stdout
    assert "; median relative tolerance " in solves
    # every unforced step forms E and E_mod
    energies = re.fullmatch(ENERGY_LINE, proc.stdout.splitlines()[3])
    assert energies, proc.stdout
    spent, profiled, share = map(float, energies.groups())
    assert 0.0 <= spent <= profiled and 0.0 < share < 100.0


def test_profile_step_profiles_late_steps_of_the_full_physics():
    """--physics full takes configs/spinodal_full.yaml's eps, A and dt at its cell
    width 0.025, and --warmup steps run before the profiled ones."""
    proc = profile_step("steps", "--physics", "full", "--m", "16", "--warmup", "3", "--steps", "2")
    assert proc.returncode == 0, proc.stderr
    header, faults, solves = proc.stdout.splitlines()[:3]
    assert header.startswith("2 steps at m=16, full physics (L=0.4, eps=0.03, A=0.0625, "
                             "dt=0.01) after 3 warm-up step(s), "), proc.stdout
    assert faults.startswith("minor page faults per step: ") and len(faults.split()) == 7
    assert solves.startswith("psd iterations per step: mean "), proc.stdout


def test_profile_step_profiles_the_refinement_study():
    """Every step of the forced study solves at TOL_REL (1e-10)."""
    proc = profile_step("converge")
    assert proc.returncode == 0, proc.stderr
    header, solves = proc.stdout.splitlines()[:2]
    assert header.startswith("convergence_study((16, 32, 64)): 672 steps, "), proc.stdout
    assert solves.startswith("psd iterations per step: mean "), proc.stdout
    assert solves.endswith("; median relative tolerance 1.00e-10")
    forcing = re.fullmatch(r"forcing sample: (\d+\.\d{3}) s of (\d+\.\d{3}) s profiled "
                           r"\((\d+\.\d)%\)", proc.stdout.splitlines()[2])
    assert forcing, proc.stdout
    sampled, profiled, share = map(float, forcing.groups())
    assert 0.0 < sampled < profiled
    assert share == pytest.approx(100.0 * sampled / profiled, abs=0.5)
    # a forced step forms no energies
    energies = re.fullmatch(ENERGY_LINE, proc.stdout.splitlines()[3])
    assert energies, proc.stdout
    assert energies.group(1) == "0.000" and energies.group(3) == "0.0"
    assert float(energies.group(2)) == profiled
