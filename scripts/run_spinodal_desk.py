#!/usr/bin/env python3
"""Run the desk-scale spinodal decomposition and fit the energy decay law.

Drives the solver through a YAML config (configs/spinodal_desk.yaml by
default: 128^2 cells, eps = 0.05, dt = 0.01 up to t = 100), then fits
E(t) ~ a * t^(-b) over the coarsening window and reports the exponent.
The fit and the PSD iteration line use the steps that ``energy.csv`` keeps
(every ``energy_every``-th and the last).  The run takes a few minutes;
outputs land in the config's output dir.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from chfd.cli import load_config, run_simulation
from chfd.diagnostics import fit_power_law

REPO = pathlib.Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("config", nargs="?", default=str(REPO / "configs" / "spinodal_desk.yaml"))
    ap.add_argument("--fit-window", default="10,100",
                    help="t_min,t_max for the power-law fit (default 10,100)")
    args = ap.parse_args(argv)

    config = load_config(args.config)
    result = run_simulation(config)
    records = result.records

    last = records[-1]
    print(f"finished at t = {last.t:g} after {last.step} steps")
    print(f"mass = {last.mass:.17g} (initial {records[0].mass:.17g})")
    print(f"energy: {records[0].E:.6f} -> {last.E:.6f}")

    t_min, t_max = (float(tok) for tok in args.fit_window.split(","))
    a, b = fit_power_law(records, t_min=t_min, t_max=t_max)
    print(f"fitted E(t) ~ {a:.4f} * t^(-{b:.4f}) over t in [{t_min:g}, {t_max:g}]")
    iters = [s.iterations for s in result.solve_stats]
    print(f"psd iterations/step over the {len(iters)} energy.csv steps: "
          f"mean {sum(iters) / len(iters):.1f}, max {max(iters)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
