#!/usr/bin/env python3
"""Profile one workload-shaped call of the solver and print the top self times.

Two shapes of call:

* ``converge`` (default): ``convergence_study((16, 32, 64))``, the refinement
  study on the grids the benchmark's ``converge`` workload uses;
* ``steps --m M --steps N``: N unforced steps on an M x M grid, from a flat
  restart of a seeded random mixture.  ``--physics desk`` (default) takes
  eps, A and the first dt of ``configs/spinodal_desk.yaml`` and its box
  L = 12.8; ``--physics full`` takes those of ``configs/spinodal_full.yaml``
  with L = 0.025 M, that run's cell width.  The plan and ``--warmup`` steps
  (default 1) run before the profiler starts, so the profile shows
  steady-state steps, or late ones.  It also prints the minor page faults
  that each profiled step took (``resource.getrusage`` of this process): a
  step that allocates afresh what the previous one freed takes them where
  the C allocator has given that memory back to the system.

For both, a line before the profile gives the mean PSD iterations per
profiled step and the median of the relative tolerances their solves stopped
at (an unforced step's own, from its time-error estimate; a forced step's
``TOL_REL``; see ``chfd.scheme``).  For ``converge`` a further line gives the
cumulative time of ``chfd.scheme.sample_source``, the forced steps' sampling
of the stencil forcing, as a share of all profiled time.  A last line gives
that share for the energy diagnostics, ``energy`` plus ``modified_energy``,
which only unforced steps form: it reads 0 for ``converge``.

The script only calls the package; it changes nothing.  cProfile adds a cost
to every Python-level call and none to the work inside numpy, so it
overstates per-call overhead against arithmetic: use it to see where the
calls go, and the benchmark (``perfbench/run.py``) to time them.  Run it from
a checkout, pinned to one thread as the benchmark is:

    OMP_NUM_THREADS=1 PYTHONPATH=src python scripts/profile_step.py converge
    OMP_NUM_THREADS=1 PYTHONPATH=src python scripts/profile_step.py steps --m 128 --steps 20

The PSD iterations of late full-physics steps (steps 2001-2400 at m = 256,
about a minute):

    OMP_NUM_THREADS=1 PYTHONPATH=src python scripts/profile_step.py steps \
        --physics full --m 256 --warmup 2000 --steps 400
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path

from chfd.cli import load_config
from chfd.diagnostics import energy, modified_energy
from chfd.grid import GridSpec
from chfd.psd import SolveStats
from chfd.rng import random_initial_field
from chfd.scheme import SchemeParams, restart_flat, sample_source, step
from chfd.spectral import make_plan
from chfd.verification import convergence_study


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def physics(name: str, m: int) -> tuple[GridSpec, SchemeParams]:
    """The m x m grid and the scheme parameters of configs/spinodal_<name>.yaml:
    the desk box, or the full run's cell width."""
    config = load_config(CONFIGS / f"spinodal_{name}.yaml")
    L = config.L if name == "desk" else config.L / config.m * m
    return GridSpec(L=L, m=m), SchemeParams(eps=config.eps, dt=config.schedule[0].dt, A=config.A)


def solve_line(stats: list[SolveStats]) -> str:
    iters = statistics.fmean(s.iterations for s in stats)
    rel_tol = statistics.median(s.rel_tol for s in stats)
    return f"psd iterations per step: mean {iters:.2f}; median relative tolerance {rel_tol:.2e}"


def share_line(profiler: cProfile.Profile, label: str, *functions) -> str:
    """The summed cumulative time of ``functions`` as a share of all profiled
    time; a function that was never called adds 0."""
    profile = pstats.Stats(profiler)
    spent = 0.0
    for fn in functions:
        code = fn.__code__
        stats = profile.stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        spent += stats[3] if stats else 0.0  # cumulative time
    return (f"{label}: {spent:.3f} s of {profile.total_tt:.3f} s profiled "
            f"({100.0 * spent / profile.total_tt:.1f}%)")


def energy_line(profiler: cProfile.Profile) -> str:
    return share_line(profiler, "energy diagnostics", energy, modified_energy)


def profile_converge(profiler: cProfile.Profile) -> tuple[str, list[str]]:
    profiler.enable()
    report = convergence_study((16, 32, 64))
    profiler.disable()
    stats = [s for level in report.solve_stats.values() for s in level]
    return (f"convergence_study((16, 32, 64)): {len(stats)} steps",
            [solve_line(stats), share_line(profiler, "forcing sample", sample_source),
             energy_line(profiler)])


def profile_steps(profiler: cProfile.Profile, name: str, m: int, n_steps: int,
                  warmup: int) -> tuple[str, list[str]]:
    grid, params = physics(name, m)
    plan = make_plan(grid)
    state = restart_flat(random_initial_field(grid, 0.0, 0.1, seed=1))
    for _ in range(warmup):
        state, _ = step(state, params, plan)
    faults, stats = [], []
    profiler.enable()
    for _ in range(n_steps):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        state, diag = step(state, params, plan)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        stats.append(diag.solve)
    profiler.disable()
    return (f"{n_steps} steps at m={m}, {name} physics (L={grid.L:g}, eps={params.eps:g}, "
            f"A={params.A:g}, dt={params.dt:g}) after {warmup} warm-up step(s)"), [
        " ".join(["minor page faults per step:", *map(str, faults)]),
        solve_line(stats),
        energy_line(profiler),
    ]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("shape", nargs="?", choices=("converge", "steps"), default="converge")
    ap.add_argument("--m", type=int, default=128, help="grid size for 'steps' (default 128)")
    ap.add_argument("--steps", type=int, default=20, help="steps for 'steps' (default 20)")
    ap.add_argument("--physics", choices=("desk", "full"), default="desk",
                    help="physics for 'steps': that of configs/spinodal_<physics>.yaml "
                         "(default desk)")
    ap.add_argument("--warmup", type=int, default=1,
                    help="steps for 'steps' to take before profiling (default 1)")
    args = ap.parse_args(argv)
    if args.m < 5 or args.steps < 1 or args.warmup < 0:
        ap.error("need --m >= 5, --steps >= 1 and --warmup >= 0")

    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    if args.shape == "converge":
        what, lines = profile_converge(profiler)
    else:
        what, lines = profile_steps(profiler, args.physics, args.m, args.steps, args.warmup)
    print(f"{what}, {time.perf_counter() - t0:.2f} s under the profiler")
    for line in lines:
        print(line)
    pstats.Stats(profiler, stream=sys.stdout).sort_stats("tottime").print_stats(25)
    return 0


if __name__ == "__main__":
    sys.exit(main())
