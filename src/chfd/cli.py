"""Command-line front end: config parsing, run orchestration, reports.

Three subcommands:

* ``chfd run CONFIG.yaml`` — advance a simulation through its time-step
  schedule, streaming the energy CSV and writing field snapshots.
* ``chfd converge`` — the time-stepper refinement study (Table-style CSV).
* ``chfd verify {truncation,symbols,inequalities,all}`` — operator-level
  studies with hard pass/fail assertions.

Exit codes: 0 success, 2 configuration/usage error, 3 solver failure,
4 verification assertion failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

from . import __version__
from .diagnostics import EnergyRecord, energy, modified_energy
from .grid import Field, GridSpec, field_from_fn, mean, norm_l2, norm_linf
from .io import EnergyCsvWriter, read_snapshot, write_snapshot
from .psd import PsdConfig, SolverError, SolveStats
from .rng import random_initial_field
from .scheme import (
    MassDriftError,
    NonFiniteStateError,
    SchemeParams,
    SourceSpec,
    StepState,
    ghost_init,
    manufactured_solution,
    manufactured_source_stencil,
    restart_flat,
    step,
)
from .spectral import make_plan
from .verification import (
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
    "cmd_converge",
    "cmd_verify",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

# Two times closer than this, relative to max(1, |t|), are the same step time;
# it covers the rounding that t = t + dt accumulates over a long run.
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
    kind: str = "random"  # random | file | manufactured
    mean: float = 0.0
    amplitude: float = 0.1
    seed: int = 0
    path: str | None = None  # kind == file


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    energy_every: int = 1
    snapshot_times: tuple[float, ...] = ()
    formats: tuple[str, ...] = ("chf",)


@dataclass(frozen=True)
class RunConfig:
    L: float
    m: int
    eps: float
    A: float
    schedule: tuple[SegmentConfig, ...]
    initial: InitialConfig
    solver: PsdConfig
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


def _reached(t_target: float, t: float) -> bool:
    """Whether time t is at or past t_target, up to the step-time tolerance."""
    return t_target <= t + _TIME_REL_TOL * max(1.0, abs(t))


def _whole_steps(span: float, dt: float) -> int | None:
    """span / dt when it is a whole number to a relative 1e-9, else None."""
    n = span / dt
    k = round(n)
    return k if abs(n - k) <= _TIME_REL_TOL * max(1.0, abs(n)) else None


def _check_lattice(
    schedule: tuple[SegmentConfig, ...], t0: float, snapshot_times: tuple[float, ...]
) -> None:
    """Reject segments and snapshot times that steps taken from t0 cannot land on.

    Each segment must hold a whole number of its steps, counted from t0 or
    from the end of the segment before it; segments that end by t0 (a warm
    start) are skipped.  A snapshot time must be at or before t0, or a step
    time no later than the schedule end.
    """
    t_start = t0
    snaps = sorted(s for s in snapshot_times if not _reached(s, t0))
    for i, seg in enumerate(schedule):
        if _reached(seg.t_end, t_start):
            continue
        if not _whole_steps(seg.t_end - t_start, seg.dt):
            raise ConfigError(
                f"schedule[{i}]: ({seg.t_end!r} - {t_start!r}) / dt = "
                f"{(seg.t_end - t_start) / seg.dt!r} is not a whole number of steps "
                f"of dt = {seg.dt!r}"
            )
        inside = [s for s in snaps if _reached(s, seg.t_end)]
        for s in inside:
            if _whole_steps(s - t_start, seg.dt) is None:
                raise ConfigError(
                    f"snapshot time {s!r} is not a step time of schedule[{i}] "
                    f"({t_start!r} + k * {seg.dt!r})"
                )
        snaps = snaps[len(inside):]
        t_start = seg.t_end
    if snaps:
        raise ConfigError(
            f"snapshot time(s) {', '.join(map(repr, snaps))} after the schedule end {t_start!r}"
        )


def _number(sec: dict, section: str, key: str, default=None):
    val = sec.get(key, default)
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ConfigError(f"'{section}.{key}' must be a number, got {val!r}")
    return val


def parse_config(data: dict) -> RunConfig:
    """Validate a parsed config mapping; unknown keys anywhere are errors."""
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a mapping")
    data = dict(data)

    domain = _section(data, "domain", {"L"})
    L = float(_number(domain, "domain", "L", 12.8))

    grid_sec = _section(data, "grid", {"m"}, required={"m"})
    m = _number(grid_sec, "grid", "m")
    if not isinstance(m, int) or m < 5:
        raise ConfigError(f"'grid.m' must be an integer >= 5, got {m!r}")

    physics = _section(data, "physics", {"eps", "A"})
    eps = float(_number(physics, "physics", "eps", 0.05))
    A = float(_number(physics, "physics", "A", 1.0 / 16.0))

    raw_schedule = data.pop("schedule", None)
    if not isinstance(raw_schedule, list) or not raw_schedule:
        raise ConfigError("'schedule' must be a nonempty list of {dt, t_end} entries")
    segments = []
    for i, entry in enumerate(raw_schedule):
        if not isinstance(entry, dict) or set(entry) != {"dt", "t_end"}:
            raise ConfigError(f"schedule[{i}] must have exactly the keys dt and t_end")
        dt = float(_number(entry, f"schedule[{i}]", "dt"))
        t_end = float(_number(entry, f"schedule[{i}]", "t_end"))
        if dt <= 0:
            raise ConfigError(f"schedule[{i}].dt must be positive")
        segments.append(SegmentConfig(dt=dt, t_end=t_end))
    for a, b in zip(segments, segments[1:]):
        if b.t_end <= a.t_end:
            raise ConfigError("schedule t_end values must be strictly increasing")

    init_sec = _section(data, "initial", {"kind", "mean", "amplitude", "seed", "path"})
    kind = init_sec.get("kind", "random")
    if kind not in ("random", "file", "manufactured"):
        raise ConfigError(f"'initial.kind' must be random, file or manufactured, got {kind!r}")
    amplitude = float(_number(init_sec, "initial", "amplitude", 0.1))
    if amplitude < 0:
        raise ConfigError("'initial.amplitude' must be nonnegative")
    seed = init_sec.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"'initial.seed' must be an integer, got {seed!r}")
    path = init_sec.get("path")
    if kind == "file" and not isinstance(path, str):
        raise ConfigError("'initial.path' is required when initial.kind is file")
    if kind != "file" and path is not None:
        raise ConfigError("'initial.path' is only meaningful with initial.kind: file")
    initial = InitialConfig(
        kind=kind,
        mean=float(_number(init_sec, "initial", "mean", 0.0)),
        amplitude=amplitude,
        seed=seed,
        path=path,
    )

    solver_sec = _section(data, "solver", {"tol_rel", "tol_abs", "max_iter", "init_guess"})
    try:
        solver = PsdConfig(**solver_sec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad 'solver' section: {exc}") from exc

    out_sec = _section(data, "output", {"dir", "energy_every", "snapshot_times", "formats"})
    energy_every = out_sec.get("energy_every", 1)
    if not isinstance(energy_every, int) or energy_every < 1:
        raise ConfigError(f"'output.energy_every' must be a positive integer, got {energy_every!r}")
    snap_times = out_sec.get("snapshot_times", [])
    if not isinstance(snap_times, list) or not all(
        isinstance(t, (int, float)) and not isinstance(t, bool) for t in snap_times
    ):
        raise ConfigError("'output.snapshot_times' must be a list of numbers")
    formats = out_sec.get("formats", ["chf"])
    if not isinstance(formats, list) or not formats:
        raise ConfigError("'output.formats' must be a nonempty list")
    for f in formats:
        if f not in ("chf", "pgm"):
            raise ConfigError(f"unknown output format {f!r} (chf and pgm are supported)")
    output = OutputConfig(
        dir=str(out_sec.get("dir", "out")),
        energy_every=energy_every,
        snapshot_times=tuple(sorted(float(t) for t in snap_times)),
        formats=tuple(formats),
    )

    if data:
        raise ConfigError(f"unknown top-level section(s): {', '.join(sorted(data))}")
    if kind != "file":  # a warm start is checked against the file's time
        _check_lattice(tuple(segments), 0.0, output.snapshot_times)
    return RunConfig(
        L=L, m=m, eps=eps, A=A,
        schedule=tuple(segments),
        initial=initial, solver=solver, output=output,
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
    """Plain-data mirror of the effective configuration (defaults filled in)."""
    return {
        "domain": {"L": config.L},
        "grid": {"m": config.m},
        "physics": {"eps": config.eps, "A": config.A},
        "schedule": [{"dt": s.dt, "t_end": s.t_end} for s in config.schedule],
        "initial": {
            k: v for k, v in dataclasses.asdict(config.initial).items() if v is not None
        },
        "solver": dataclasses.asdict(config.solver),
        "output": {
            "dir": config.output.dir,
            "energy_every": config.output.energy_every,
            "snapshot_times": list(config.output.snapshot_times),
            "formats": list(config.output.formats),
        },
        "version": __version__,
    }


# ---------------------------------------------------------------------------
# run orchestration


@dataclass
class RunResult:
    records: list[EnergyRecord]
    state: StepState
    solve_stats: list[SolveStats]
    snapshots: list[tuple[float, float]]  # (requested time, actual time)
    manufactured_errors: tuple[float, float] | None = None  # (linf, l2)


def _initial_state(config: RunConfig, grid: GridSpec, source: SourceSpec | None):
    """Initial field plus its start time; ghost-step init unless warm-started."""
    first_dt = config.schedule[0].dt
    params = SchemeParams(eps=config.eps, dt=first_dt, A=config.A)
    kind = config.initial.kind
    if kind == "random":
        phi0 = random_initial_field(grid, config.initial.mean, config.initial.amplitude,
                                    config.initial.seed)
        return ghost_init(phi0, params, source=None)
    if kind == "manufactured":
        exact = manufactured_solution(config.L)
        phi0 = field_from_fn(grid, lambda x, y: exact(x, y, 0.0))
        return ghost_init(phi0, params, source=source)
    # warm start from a snapshot: no history is stored, so restart flat
    phi0, t0 = read_snapshot(config.initial.path)
    if phi0.grid != grid:
        raise ConfigError(
            f"snapshot grid (m={phi0.grid.m}, L={phi0.grid.L}) does not match "
            f"config (m={grid.m}, L={grid.L})"
        )
    return restart_flat(phi0, t=t0)


def run_simulation(config: RunConfig, write_outputs: bool = True) -> RunResult:
    """Advance through the whole schedule; returns records and final state.

    Writes (when ``write_outputs``): ``energy.csv`` streamed row by row, the
    requested snapshots, and a ``run.yaml`` echo of the effective config. The
    energy CSV always contains the initial row, every ``energy_every``-th
    step, and the final step.  Every segment and snapshot time must sit on the
    step lattice from the initial time (ConfigError otherwise), so a snapshot
    is taken at exactly the step time it names.
    """
    grid = GridSpec(L=config.L, m=config.m)
    plan = make_plan(grid)
    source = (
        manufactured_source_stencil(config.eps, grid)
        if config.initial.kind == "manufactured"
        else None
    )
    state = _initial_state(config, grid, source)
    if _reached(config.schedule[-1].t_end, state.t):
        raise ConfigError(
            f"initial time {state.t} is already past the schedule end "
            f"{config.schedule[-1].t_end}"
        )
    _check_lattice(config.schedule, state.t, config.output.snapshot_times)

    out_dir = Path(config.output.dir)
    csv_writer = None
    snap_index = 0
    pending_snaps = list(config.output.snapshot_times)
    taken_snaps: list[tuple[float, float]] = []

    def take_snapshot(requested: float, actual_t: float, phi: Field) -> None:
        nonlocal snap_index
        if write_outputs:
            for fmt in config.output.formats:
                name = f"snap_{snap_index:03d}.{fmt}"
                write_snapshot(phi, out_dir / name, actual_t, format=fmt)
        taken_snaps.append((requested, actual_t))
        snap_index += 1

    try:
        if write_outputs:
            out_dir.mkdir(parents=True, exist_ok=True)
            with open(out_dir / "run.yaml", "w", encoding="utf-8") as fh:
                yaml.safe_dump(_config_echo(config), fh, sort_keys=True)
            csv_writer = EnergyCsvWriter(out_dir / "energy.csv")

        E0 = energy(state.phi_curr, config.eps)
        rec0 = EnergyRecord(
            step=0,
            t=state.t,
            mass=mean(state.phi_curr),
            E=E0,
            E_mod=modified_energy(state.phi_curr, state.phi_prev, config.eps,
                                  config.schedule[0].dt, plan, E=E0),
            psd_iters=0,
            residual=0.0,
        )
        records = [rec0]
        if csv_writer:
            csv_writer.write(rec0)
        while pending_snaps and _reached(pending_snaps[0], state.t):
            take_snapshot(pending_snaps.pop(0), state.t, state.phi_curr)

        solve_stats: list[SolveStats] = []
        global_step = 0
        for seg_index, seg in enumerate(config.schedule):
            if _reached(seg.t_end, state.t):
                continue  # segment entirely before a warm start's time
            if seg_index > 0:
                # a dt change invalidates the stored history; restart flat
                state = restart_flat(state.phi_curr, t=state.t, beta0=state.beta0)
            params = SchemeParams(eps=config.eps, dt=seg.dt, A=config.A)
            n_steps = max(0, round((seg.t_end - state.t) / seg.dt))
            for i_step in range(n_steps):
                state, diag = step(state, params, plan, solver_cfg=config.solver,
                                   source=source)
                global_step += 1
                solve_stats.append(diag.solve)
                record = dataclasses.replace(diag.record, step=global_step)
                records.append(record)
                is_last = seg_index == len(config.schedule) - 1 and i_step == n_steps - 1
                if csv_writer and (
                    global_step % config.output.energy_every == 0 or is_last
                ):
                    csv_writer.write(record)
                while pending_snaps and _reached(pending_snaps[0], state.t):
                    take_snapshot(pending_snaps.pop(0), state.t, state.phi_curr)
    finally:
        if csv_writer:
            csv_writer.close()

    manufactured_errors = None
    if config.initial.kind == "manufactured":
        exact = manufactured_solution(config.L)
        ref = field_from_fn(grid, lambda x, y: exact(x, y, state.t))
        err = Field(grid, state.phi_curr.values - ref.values)
        manufactured_errors = (norm_linf(err), norm_l2(err))
    return RunResult(
        records=records,
        state=state,
        solve_stats=solve_stats,
        snapshots=taken_snaps,
        manufactured_errors=manufactured_errors,
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    try:
        result = run_simulation(config)
    except (SolverError, NonFiniteStateError, MassDriftError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    final = result.records[-1]
    print(
        f"done: {final.step} steps to t={final.t:g}; E={final.E:.6g}, "
        f"mass={final.mass:.3e}, {len(result.snapshots)} snapshot(s) in "
        f"{config.output.dir}"
    )
    if result.manufactured_errors is not None:
        linf, l2 = result.manufactured_errors
        print(f"reference-solution error at t={final.t:g}: linf={linf:.6e} l2={l2:.6e}")
    return EXIT_OK


def cmd_converge(args: argparse.Namespace) -> int:
    m_list = [int(s) for s in args.m_list.split(",")]
    try:
        report = convergence_study(m_list=m_list, dt_factor=args.dt_factor)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    csv_text = report.to_csv()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(csv_text, encoding="ascii")
    sys.stdout.write(csv_text)
    ok = all(
        3.8 <= r <= 4.1 for pair in report.finest_rates(2) for r in pair
    )
    if not ok:
        print("convergence rates outside [3.8, 4.1]", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.trials < 1:
        print("--trials must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []

    if args.target in ("truncation", "all"):
        for case in ("mode_product", "exp_sin"):
            report = truncation_study(case, m_list=(32, 64, 128, 256), L=1.0)
            (out_dir / f"truncation_{case}.csv").write_text(report.to_csv(), encoding="ascii")
            rates = [r for pair in report.finest_rates(2) for r in pair]
            line = f"truncation {case}: finest rates " + ", ".join(f"{r:.3f}" for r in rates)
            if all(3.9 <= r <= 4.1 for r in rates):
                print(line + " [ok]")
            else:
                failures.append(line)

    if args.target in ("symbols", "all"):
        report = symbol_bound_study(L=12.8, m_list=(16, 32, 64, 128, 256, 512))
        (out_dir / "symbol_bound.csv").write_text(report.to_csv(), encoding="ascii")
        r512 = report.rows[-1][1]
        line = (
            f"symbols: max ratio {report.max_ratio():.6g} vs 2x finest {2 * r512:.6g}, "
            f"min defect {report.min_defect():.3e}"
        )
        if report.max_ratio() <= 2.0 * r512 and report.min_defect() >= 0.0:
            print(line + " [ok]")
        else:
            failures.append(line)

    if args.target in ("inequalities", "all"):
        for m in (32, 64):
            grid = GridSpec(L=12.8, m=m)
            report = inequality_study(grid, n_trials=args.trials, rng_seed=args.seed)
            (out_dir / f"inequalities_m{m}.csv").write_text(report.to_csv(), encoding="ascii")
            line = f"inequalities m={m}: {report.violations} violation(s) in {args.trials} trials"
            if report.violations == 0:
                print(line + " [ok]")
            else:
                failures.append(line)

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

    p_conv = sub.add_parser("converge", help="time-stepper refinement study")
    p_conv.add_argument("--m-list", default="16,32,64,128",
                        help="comma-separated grid sizes (default 16,32,64,128)")
    p_conv.add_argument("--dt-factor", type=float, default=0.25,
                        help="dt = dt_factor * h^2 (default 0.25)")
    p_conv.add_argument("--out", default="out/converge.csv", help="CSV output path")
    p_conv.set_defaults(fn=cmd_converge)

    p_ver = sub.add_parser("verify", help="operator-level verification studies")
    p_ver.add_argument("target", choices=("truncation", "symbols", "inequalities", "all"))
    p_ver.add_argument("--trials", type=int, default=200,
                       help="random trials for the inequality study (default 200)")
    p_ver.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_ver.add_argument("--out", default="out", help="report directory (default out)")
    p_ver.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
