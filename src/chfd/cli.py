"""Command-line front end: config parsing, run orchestration, reports.

Two subcommands:

* ``chfd run CONFIG.yaml`` — advance random data or a snapshot through its
  time-step schedule, streaming the energy CSV and writing field snapshots;
  steps are planned once and numbered through the whole run.  The closing
  summary gives the PSD iterations per step, the steps that the energy
  guard solved again (only when there are any), and the energy-decay
  exponent fitted over the last decade of time.
* ``chfd verify {truncation,symbols,inequalities,convergence,all}`` — the
  operator-level studies and the refinement study of the forced reference
  problem, each at fixed inputs, writing CSVs to ``--out`` and gating the
  results.

Exit codes: 0 success, 2 configuration/usage error, 3 solver failure (any
subcommand), 4 verification assertion failure.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .diagnostics import EnergyRecord, energy, fit_power_law, modified_energy
from .grid import Field, GridSpec, mean
from .io import EnergyCsvWriter, read_snapshot, write_snapshot
from .psd import SolverError, SolveStats
from .rng import random_initial_field
from .scheme import (
    MassDriftError,
    NonFiniteStateError,
    SchemeParams,
    StepState,
    ghost_init,  # not called here: perfbench's traced mode patches chfd.cli.ghost_init
    restart_flat,
    step,
)
from .spectral import make_plan
from .verification import (
    TRUNCATION_CASES,
    convergence_study,
    inequality_study,
    symbol_bound_study,
    truncation_study,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "SegmentConfig",
    "load_config",
    "run_simulation",
    "RunResult",
    "cmd_run",
    "cmd_verify",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

# The keys of the initial section that each kind uses, besides kind itself.
_INITIAL_KEYS = {"random": ("mean", "amplitude", "seed"), "file": ("path",)}

# Two times closer than this, relative to the larger of |t| and the step dt of
# their lattice, are the same step time; it covers the rounding that t = t + dt
# accumulates over a long run, and near t = 0 it shrinks with dt.
_TIME_REL_TOL = 1e-9


class ConfigError(ValueError):
    """Invalid configuration file or option combination."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SegmentConfig:
    dt: float
    t_end: float


@dataclass(frozen=True)
class InitialConfig:
    kind: str  # random | file
    mean: float
    amplitude: float
    seed: int
    path: str | None  # kind == file


@dataclass(frozen=True)
class OutputConfig:
    dir: str
    energy_every: int
    snapshot_times: tuple[float, ...]
    formats: tuple[str, ...]


@dataclass(frozen=True)
class RunConfig:
    L: float
    m: int
    eps: float
    A: float
    schedule: tuple[SegmentConfig, ...]
    initial: InitialConfig
    output: OutputConfig


def _section(data: dict, name: str, allowed: set[str], required: set[str] = frozenset()) -> dict:
    sec = data.pop(name, {})
    if sec is None:
        sec = {}
    if not isinstance(sec, dict):
        raise ConfigError(f"section '{name}' must be a mapping, got {type(sec).__name__}")
    unknown = set(sec) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in '{name}': {', '.join(sorted(unknown))}")
    missing = required - set(sec)
    if missing:
        raise ConfigError(f"missing required key(s) in '{name}': {', '.join(sorted(missing))}")
    return sec


def _time_tol(t: float, dt: float) -> float:
    """The step-time tolerance at time t on a lattice of step dt."""
    return _TIME_REL_TOL * max(dt, abs(t))


def _reached(t_target: float, t: float, dt: float = 1.0) -> bool:
    """Whether time t is at or past t_target, up to the step-time tolerance on a
    lattice of step dt."""
    return t_target <= t + _time_tol(t, dt)


def _whole_steps(span: float, dt: float) -> int | None:
    """span / dt when it is a whole number to a relative 1e-9, else None."""
    n = span / dt
    k = round(n)
    return k if abs(n - k) <= _TIME_REL_TOL * max(1.0, abs(n)) else None


def _step_plan(
    schedule: tuple[SegmentConfig, ...], t0: float, snapshot_times: tuple[float, ...]
) -> tuple[list[tuple[float, int]], list[int]]:
    """The steps from t0 through the schedule, decided once as integers.

    Returns ``(dt, n_steps)`` for each segment after t0 and the run step of
    each snapshot time, in time order; run step 0 is t0.  Each segment must
    hold a whole number of its steps, counted from t0 or from the end of the
    segment before it; segments that end by t0 (a warm start) are skipped.  A
    snapshot time must be t0 itself, or a step time after it no later than the
    schedule end.  Anything else is a ConfigError.
    """
    t_end = schedule[-1].t_end
    if t_end <= t0:
        raise ConfigError(f"initial time {t0} is already past the schedule end {t_end}")
    # times at t0 are compared on the lattice of the first segment that ends after it
    dt0 = next(seg.dt for seg in schedule if seg.t_end > t0)
    if _reached(t_end, t0, dt0):
        raise ConfigError(
            f"the schedule end {t_end} is within the step-time tolerance "
            f"{_time_tol(t0, dt0):.3g} of the initial time {t0}"
        )
    early = [s for s in snapshot_times if not _reached(t0, s, dt0)]
    if early:
        raise ConfigError(
            f"snapshot time(s) {', '.join(map(repr, early))} before the start time {t0!r}"
        )
    segments: list[tuple[float, int]] = []
    snap_steps = [0 for s in snapshot_times if _reached(s, t0, dt0)]
    snaps = sorted(s for s in snapshot_times if not _reached(s, t0, dt0))
    t_start, k_start = t0, 0
    for i, seg in enumerate(schedule):
        if _reached(seg.t_end, t_start, seg.dt):
            continue
        n = _whole_steps(seg.t_end - t_start, seg.dt)
        if not n:
            raise ConfigError(
                f"schedule[{i}]: ({seg.t_end!r} - {t_start!r}) / dt = "
                f"{(seg.t_end - t_start) / seg.dt!r} is not a whole number of steps "
                f"of dt = {seg.dt!r}"
            )
        inside = [s for s in snaps if _reached(s, seg.t_end, seg.dt)]
        for s in inside:
            k = _whole_steps(s - t_start, seg.dt)
            if k is None:
                raise ConfigError(
                    f"snapshot time {s!r} is not a step time of schedule[{i}] "
                    f"({t_start!r} + k * {seg.dt!r})"
                )
            snap_steps.append(k_start + k)
        snaps = snaps[len(inside):]
        segments.append((seg.dt, n))
        t_start, k_start = seg.t_end, k_start + n
    if snaps:
        raise ConfigError(
            f"snapshot time(s) {', '.join(map(repr, snaps))} after the schedule end {t_start!r}"
        )
    return segments, snap_steps


def _finite(val) -> bool:
    """Whether a YAML value is a number whose square a float holds finitely: the
    scheme squares eps and dt.  NaN, inf and an int too large compare False."""
    return isinstance(val, (int, float)) and not isinstance(val, bool) and abs(val) <= 1e154


def _misread_number(val) -> str:
    """" (YAML read it as text: write 1.0e-3)" for text that holds a number, such
    as 1e-3, else "": YAML 1.1 reads a float only with a dot in the mantissa and a
    sign on the exponent."""
    m = isinstance(val, str) and re.fullmatch(
        r"\s*([+-]?\d+)(?:\.(\d*))?(?:([eE])([+-]?)(\d+))?\s*", val)
    if not m:
        return ""
    exponent = f"{m[3]}{m[4] or '+'}{m[5]}" if m[3] else ""
    return f" (YAML read it as text: write {m[1]}.{m[2] or 0}{exponent})"


def _number(sec: dict, section: str, key: str, default=None, sign: str = "") -> float:
    """The number at ``section.key`` (see _finite) as a float; ``sign`` is "",
    "positive" or "nonnegative"."""
    val = sec.get(key, default)
    if not _finite(val):
        raise ConfigError(f"'{section}.{key}' must be a finite number of magnitude at most "
                          f"1e154, got {val!r}{_misread_number(val)}")
    val = float(val)
    if (sign == "positive" and val <= 0) or (sign == "nonnegative" and val < 0):
        raise ConfigError(f"'{section}.{key}' must be {sign}, got {val!r}")
    return val


def _integer(sec: dict, section: str, key: str, default=None, minimum: int | None = None) -> int:
    val = sec.get(key, default)
    if not isinstance(val, int) or isinstance(val, bool) or (
        minimum is not None and val < minimum
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"'{section}.{key}' must be an integer{bound}, got {val!r}")
    return val


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed config mapping; unknown keys anywhere are errors."""
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a mapping")
    data = dict(data)

    domain = _section(data, "domain", {"L"})
    L = _number(domain, "domain", "L", 12.8, sign="positive")

    grid_sec = _section(data, "grid", {"m"}, required={"m"})
    m = _integer(grid_sec, "grid", "m", minimum=5)
    if m > 2**15:  # one field of 32768^2 cells takes 8 GiB
        raise ConfigError(f"'grid.m' must be at most {2**15}, got {m!r}")
    if L / m < 1e-76:  # make_plan squares 4 / h^2
        raise ConfigError(f"'domain.L' = {L!r} gives a cell width h = L / m below 1e-76")

    physics = _section(data, "physics", {"eps", "A"})
    eps = _number(physics, "physics", "eps", 0.05, sign="positive")
    A = _number(physics, "physics", "A", 1.0 / 16.0, sign="nonnegative")

    raw_schedule = data.pop("schedule", None)
    if not isinstance(raw_schedule, list) or not raw_schedule:
        raise ConfigError("'schedule' must be a nonempty list of {dt, t_end} entries")
    segments = []
    for i, entry in enumerate(raw_schedule):
        if not isinstance(entry, dict) or set(entry) != {"dt", "t_end"}:
            raise ConfigError(f"schedule[{i}] must have exactly the keys dt and t_end")
        dt = _number(entry, f"schedule[{i}]", "dt", sign="positive")
        t_end = _number(entry, f"schedule[{i}]", "t_end")
        segments.append(SegmentConfig(dt=dt, t_end=t_end))
    for a, b in zip(segments, segments[1:]):
        if b.t_end <= a.t_end:
            raise ConfigError("schedule t_end values must be strictly increasing")

    init_sec = _section(data, "initial", {"kind", "mean", "amplitude", "seed", "path"})
    kind = init_sec.get("kind", "random")
    if kind not in _INITIAL_KEYS:
        raise ConfigError(f"'initial.kind' must be random or file, got {kind!r}")
    stray = set(init_sec) - {"kind", *_INITIAL_KEYS[kind]}
    if stray:
        raise ConfigError(
            f"initial.kind {kind} does not use the key(s) {', '.join(sorted(stray))}"
        )
    amplitude = _number(init_sec, "initial", "amplitude", 0.1, sign="nonnegative")
    seed = _integer(init_sec, "initial", "seed", 0, minimum=0)
    if seed >= 2**64:  # the generator would read it mod 2**64, as another seed
        raise ConfigError(f"'initial.seed' must be below 2**64, got {seed!r}")
    path = init_sec.get("path")
    if kind == "file" and not isinstance(path, str):
        raise ConfigError("'initial.path' is required when initial.kind is file")
    initial = InitialConfig(
        kind=kind,
        mean=_number(init_sec, "initial", "mean", 0.0),
        amplitude=amplitude,
        seed=seed,
        path=path,
    )

    out_sec = _section(data, "output", {"dir", "energy_every", "snapshot_times", "formats"})
    energy_every = _integer(out_sec, "output", "energy_every", 1, minimum=1)
    snap_times = out_sec.get("snapshot_times", [])
    if not isinstance(snap_times, list):
        raise ConfigError("'output.snapshot_times' must be a list of numbers")
    bad_times = [t for t in snap_times if not _finite(t)]
    if bad_times:
        raise ConfigError(f"'output.snapshot_times' must hold finite numbers of magnitude at "
                          f"most 1e154, got {bad_times[0]!r}{_misread_number(bad_times[0])}")
    formats = out_sec.get("formats", ["chf"])
    if not isinstance(formats, list) or not formats:
        raise ConfigError("'output.formats' must be a nonempty list")
    for f in formats:
        if f not in ("chf", "pgm"):
            raise ConfigError(f"unknown output format {f!r} (chf and pgm are supported)")
    if len(set(formats)) < len(formats):
        raise ConfigError(f"'output.formats' lists a format twice: {formats!r}")
    out_dir = out_sec.get("dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"'output.dir' must be a nonempty string, got {out_dir!r}")
    output = OutputConfig(
        dir=out_dir,
        energy_every=energy_every,
        snapshot_times=tuple(sorted(float(t) for t in snap_times)),
        formats=tuple(formats),
    )

    if data:
        raise ConfigError(f"unknown top-level section(s): {', '.join(sorted(data))}")
    if kind != "file":  # a warm start is checked against the file's time
        _step_plan(tuple(segments), 0.0, output.snapshot_times)
    return RunConfig(
        L=L, m=m, eps=eps, A=A,
        schedule=tuple(segments),
        initial=initial, output=output,
    )


def load_config(path: str | os.PathLike) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return parse_config(data if data is not None else {})


def _config_echo(config: RunConfig) -> dict:
    """Plain-data mirror of the effective configuration (defaults filled in).

    It is itself a config that ``chfd run`` accepts; ``run_simulation`` puts
    the code version in a comment line above it.
    """
    return {
        "domain": {"L": config.L},
        "grid": {"m": config.m},
        "physics": {"eps": config.eps, "A": config.A},
        "schedule": [{"dt": s.dt, "t_end": s.t_end} for s in config.schedule],
        "initial": {
            k: getattr(config.initial, k) for k in ("kind", *_INITIAL_KEYS[config.initial.kind])
        },
        "output": {
            "dir": config.output.dir,
            "energy_every": config.output.energy_every,
            "snapshot_times": list(config.output.snapshot_times),
            "formats": list(config.output.formats),
        },
    }


# ---------------------------------------------------------------------------
# run orchestration


@dataclass
class RunResult:
    """What a run returns; the histories hold the ``energy.csv`` rows only."""

    records: list[EnergyRecord]  # the initial row and each row of a step
    state: StepState
    solve_stats: list[SolveStats]  # one per step row of records, records[1:]
    snapshots: list[float]  # step times of the snapshots written
    resolves: int = 0  # steps of the whole run that the energy guard solved again


def _initial_field(config: RunConfig, grid: GridSpec) -> tuple[Field, float]:
    """Initial field and its time: seeded random data at 0, or a warm-start snapshot."""
    if config.initial.kind == "random":
        phi0 = random_initial_field(grid, config.initial.mean, config.initial.amplitude,
                                    config.initial.seed)
        return phi0, 0.0
    try:
        phi0, t0 = read_snapshot(config.initial.path)
    except (OSError, ValueError) as exc:  # ValueError covers SnapshotFormatError
        raise ConfigError(f"cannot read initial snapshot {config.initial.path}: {exc}") from exc
    if phi0.grid != grid:
        raise ConfigError(
            f"snapshot grid (m={phi0.grid.m}, L={phi0.grid.L}) does not match "
            f"config (m={grid.m}, L={grid.L})"
        )
    return phi0, t0


def run_simulation(config: RunConfig, write_outputs: bool = True) -> RunResult:
    """Advance through the whole schedule; returns records and final state.

    Writes (when ``write_outputs``): ``energy.csv`` streamed row by row, the
    requested snapshots, and a ``run.yaml`` echo of the effective config; an
    output file it cannot write is a ConfigError, after the rows already in
    ``energy.csv``.  The energy CSV always contains the initial row, every
    ``energy_every``-th step, and the final step; the returned records and
    solve stats are those rows, with or without ``write_outputs``, so a run
    holds no more history than the CSV.  Every segment and snapshot time must sit on the
    step lattice from the initial time (ConfigError otherwise), so a snapshot
    is taken at exactly the step time it names.  Steps are numbered from the
    initial time through the whole run, across changes of dt.  The history
    starts flat (``restart_flat``), and ``step`` restarts it flat at each dt change.
    """
    grid = GridSpec(L=config.L, m=config.m)
    plan = make_plan(grid)
    phi0, t0 = _initial_field(config, grid)
    segments, snap_steps = _step_plan(config.schedule, t0, config.output.snapshot_times)
    last_step = sum(n for _, n in segments)
    state = restart_flat(phi0, t=t0)

    out_dir = Path(config.output.dir)
    csv_writer = None
    taken_snaps: list[float] = []

    def take_snapshots(state: StepState) -> None:
        """Write the field once for each snapshot due at this run step."""
        while snap_steps and snap_steps[0] == state.step_index:
            snap_steps.pop(0)
            if write_outputs:
                for fmt in config.output.formats:
                    name = f"snap_{len(taken_snaps):03d}.{fmt}"
                    write_snapshot(state.phi_curr, out_dir / name, state.t, format=fmt)
            taken_snaps.append(state.t)

    try:
        if write_outputs:
            out_dir.mkdir(parents=True, exist_ok=True)
            with open(out_dir / "run.yaml", "w", encoding="utf-8") as fh:
                fh.write(f"# chfd {__version__}\n")
                yaml.safe_dump(_config_echo(config), fh, sort_keys=True)
            csv_writer = EnergyCsvWriter(out_dir / "energy.csv")

        with np.errstate(over="ignore", invalid="ignore"):
            E0 = energy(state.phi_curr, config.eps, plan)
        if not math.isfinite(E0):
            raise NonFiniteStateError(f"initial energy not finite at t={state.t:g}: E = {E0}")
        rec0 = EnergyRecord(
            step=0,
            t=state.t,
            mass=mean(state.phi_curr),
            E=E0,
            E_mod=modified_energy(state.phi_curr, state.phi_prev, segments[0][0], plan, E=E0),
            psd_iters=0,
            residual=0.0,
        )
        records = [rec0]
        if csv_writer:
            csv_writer.write(rec0)
        take_snapshots(state)

        solve_stats: list[SolveStats] = []
        resolves = 0
        for dt, n in segments:
            params = SchemeParams(eps=config.eps, dt=dt, A=config.A)
            for _ in range(n):
                state, diag = step(state, params, plan)
                resolves += diag.solve.resolves
                k = state.step_index
                if k % config.output.energy_every == 0 or k == last_step:
                    solve_stats.append(diag.solve)
                    records.append(diag.record)
                    if csv_writer:
                        csv_writer.write(diag.record)
                take_snapshots(state)
    except OSError as exc:  # only the output files are written here
        raise ConfigError(f"cannot write output in {out_dir}: {exc}") from exc
    finally:
        if csv_writer:
            csv_writer.close()

    return RunResult(records=records, state=state, solve_stats=solve_stats,
                     snapshots=taken_snaps, resolves=resolves)


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    result = run_simulation(config)
    final = result.records[-1]
    print(
        f"done: {final.step} steps to t={final.t:g}; E={final.E:.6g}, "
        f"mass={final.mass:.3e}, {len(result.snapshots)} snapshot(s) in "
        f"{config.output.dir}"
    )
    iters = [s.iterations for s in result.solve_stats]
    print(f"psd iterations/step over the {len(iters)} energy.csv steps: "
          f"mean {sum(iters) / len(iters):.1f}, max {max(iters)}")
    if result.resolves:
        print(f"energy guard: {result.resolves} step(s) raised E_mod at a loosened "
              f"tolerance and were solved again at the tightest")
    # the coarsening law E ~ t^-b, fitted over the run's last decade of time;
    # the summed step times miss its ends by rounding
    t_end, dt = config.schedule[-1].t_end, config.schedule[-1].dt
    window = [r for r in result.records
              if _reached(t_end / 10, r.t, dt) and _reached(r.t, t_end, dt)]
    if len(window) >= 10 and all(r.E > 0 for r in window):
        a, b = fit_power_law(window, window[0].t, window[-1].t)
        print(f"energy decay: E ~ {a:.4g} t^{-b:.4f} over t in [{t_end / 10:g}, {t_end:g}] "
              f"({len(window)} rows)")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    failures: list[str] = []

    def gate(line: str, ok: bool) -> None:
        if ok:
            print(line + " [ok]")
        else:
            failures.append(line)

    try:  # only --out and the CSVs in it are written here
        out_dir.mkdir(parents=True, exist_ok=True)

        if args.target in ("truncation", "all"):
            for case in TRUNCATION_CASES:
                report = truncation_study(case, m_list=(32, 64, 128, 256), L=1.0)
                (out_dir / f"truncation_{case}.csv").write_text(report.to_csv(), encoding="ascii")
                rates = [r for pair in report.finest_rates(2) for r in pair]
                gate(f"truncation {case}: finest rates " + ", ".join(f"{r:.3f}" for r in rates),
                     all(3.9 <= r <= 4.1 for r in rates))

        if args.target in ("symbols", "all"):
            report = symbol_bound_study(L=12.8, m_list=(16, 32, 64, 128, 256, 512))
            (out_dir / "symbol_bound.csv").write_text(report.to_csv(), encoding="ascii")
            r512 = report.rows[-1][1]
            gate(f"symbols: max ratio {report.max_ratio():.6g} vs 2x finest {2 * r512:.6g}, "
                 f"min defect {report.min_defect():.3e}",
                 report.max_ratio() <= 2.0 * r512 and report.min_defect() >= 0.0)

        if args.target in ("inequalities", "all"):
            for m in (32, 64):
                grid = GridSpec(L=12.8, m=m)
                report = inequality_study(grid, n_trials=200, rng_seed=0)
                (out_dir / f"inequalities_m{m}.csv").write_text(report.to_csv(), encoding="ascii")
                gate(f"inequalities m={m}: {report.violations} violation(s) in "
                     f"{report.n_trials} trials", report.violations == 0)

        if args.target in ("convergence", "all"):
            report = convergence_study()
            (out_dir / "convergence.csv").write_text(report.to_csv(), encoding="ascii")
            for m, level in report.solve_stats.items():
                iters = [s.iterations for s in level]
                print(f"m={m}: psd iterations/step mean {sum(iters) / len(iters):.1f}, "
                      f"max {max(iters)}")
            rates = [r for pair in report.finest_rates(2) for r in pair]
            gate("convergence: finest rates " + ", ".join(f"{r:.3f}" for r in rates),
                 all(3.8 <= r <= 4.1 for r in rates))
    except OSError as exc:
        raise ConfigError(f"cannot write the reports in --out {out_dir}: {exc}") from exc

    for line in failures:
        print("FAIL " + line, file=sys.stderr)
    return EXIT_VERIFY if failures else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="chfd",
        description="Fourth-order finite-difference solver for the 2-D Cahn-Hilliard equation.",
    )
    parser.add_argument("--version", action="version", version=f"chfd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="advance a configured simulation")
    p_run.add_argument("config", help="YAML configuration file")
    p_run.set_defaults(fn=cmd_run)

    p_ver = sub.add_parser("verify", help="verification studies at fixed inputs")
    p_ver.add_argument("target",
                       choices=("truncation", "symbols", "inequalities", "convergence", "all"))
    p_ver.add_argument("--out", default="out", help="report directory (default out)")
    p_ver.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, NonFiniteStateError, MassDriftError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
