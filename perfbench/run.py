#!/usr/bin/env python3
"""chfd benchmark: run one workload, check its output, print its metrics.

Run from anywhere inside a chfd checkout; the package is imported from the
checkout's ``src/``:

    python3 perfbench/run.py --workload desk128 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

A run repeats fixed reps of its workload until ``--seconds`` is spent (at
least one rep).  Every rep runs a host probe after each step
(``machine.HostProbe``).  ``--trace 0`` reports the end-to-end metrics from
untraced reps, each scaled by its probe to a reference host speed.
``--trace 1`` alternates untraced and traced reps and reports the per-layer
metrics from the traced ones plus the tracing overhead.  The last
line of standard output is the result JSON with the metrics that
BENCHMARK.json lists for the mode; the full result, with every metric, the
checks and the environment manifest, goes to ``.perfbench_results/``, and the
spans of traced reps beside it.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench_results"
WORK = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("coarsen512", "desk128", "converge")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
FULL_RUN_STEPS = 300_000  # configs/spinodal_full.yaml: 200k at dt=0.01 + 100k at dt=0.04
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile

# The entry-point modules; their ``step`` and ``make_plan`` are wrapped in every
# rep, because they give the step times and the set-up boundary.
ENTRY_MODULES = ("chfd.cli", "chfd.verification")
# Functions wrapped in traced reps only: (module or module:Class, attribute, span name).
LAYERS = (
    ("chfd.scheme", "assemble_rhs", "scheme.assemble_rhs"),
    ("chfd.psd", "solve", "psd.solve"),
    ("chfd.cli", "ghost_init", "scheme.ghost_init"),
    ("chfd.verification", "ghost_init", "scheme.ghost_init"),
    ("chfd.cli", "random_initial_field", "rng.random_initial_field"),
    ("chfd.cli", "read_snapshot", "io.snapshot_read"),
    ("chfd.cli", "write_snapshot", "io.snapshot_write"),
    ("chfd.io:EnergyCsvWriter", "write", "io.csv_row"),
    ("chfd.cli", "energy", "diagnostics.energy"),
    ("chfd.cli", "modified_energy", "diagnostics.modified_energy"),
    ("chfd.scheme", "energy", "diagnostics.energy"),
    ("chfd.scheme", "modified_energy", "diagnostics.modified_energy"),
    ("chfd.diagnostics", "energy", "diagnostics.energy"),
)
ENTRY_SPANS = ("cli.run_simulation", "verification.convergence_study")


@dataclass
class Rep:
    """What is kept of one rep once its output has been checked."""

    traced: bool
    wall: float
    setup: float
    step_times: list
    steps: int
    iterations: int
    contraction_p50: float | None
    failure: str | None
    checks: list
    summary: dict
    spans: list | None  # traced reps only
    probe_s: float  # time in the host probe, inside ``wall``
    probe_unit_s: float
    scale: float  # reference probe unit time / this rep's

    def parts(self, scaled: bool) -> dict:
        """Set-up, step times and the rest of the rep, without the probe's time;
        at the reference host speed when ``scaled``."""
        k = self.scale if scaled else 1.0
        rest = self.wall - self.probe_s - self.setup - sum(self.step_times)
        return {"setup": self.setup * k, "rest": rest * k,
                "steps": [t * k for t in self.step_times]}


def setup_seconds(spans) -> float:
    """Time from the start of the rep, or of each later make_plan, to the next step.

    For a run that is config parse, plan, initial field and history, and the
    initial record; for the refinement study the sum of that over its levels.
    """
    total, mark = 0.0, spans[0][1]
    for name, start, _end, _parent in spans:
        if name == "spectral.make_plan" and mark is None:
            mark = start
        elif name == "scheme.step" and mark is not None:
            total += start - mark
            mark = None
    return total


def probed(step, after):
    """``step``, followed by ``after(seconds the step took)``."""

    def call(*args, **kwargs):
        t0 = perf_counter()
        out = step(*args, **kwargs)
        after(perf_counter() - t0)
        return out

    return call


def run_rep(workload, probe, traced: bool):
    """One rep; returns it and the final state of its last stepper history."""
    from chfd.psd import SolverError
    from chfd.scheme import MassDriftError, NonFiniteStateError
    from spans import Patches, Tracer, durations
    from workloads import StepLog

    tracer, log, patches = Tracer(), StepLog(), Patches()
    probe.reset()
    after = tracer.wrap("bench.probe", probe.after) if traced else probe.after
    result = failure = None
    try:
        for module in ENTRY_MODULES:
            patches.replace(
                module, "step",
                lambda f: probed(tracer.wrap("scheme.step", log.wrap(f)), after))
            patches.replace(module, "make_plan", lambda f: tracer.wrap("spectral.make_plan", f))
        if traced:
            for target, attr, name in LAYERS:
                patches.replace(target, attr, lambda f, n=name: tracer.wrap(n, f))
        with tracer.span("bench.rep"):
            try:
                result = workload.run(tracer)
            except (SolverError, NonFiniteStateError, MassDriftError) as exc:
                failure = f"{type(exc).__name__}: {exc}"
    finally:
        patches.restore()
    spans = tracer.spans
    if failure:
        checks, summary = [failure], {}
    elif log.steps_done != workload.planned_steps:
        checks, summary = [f"{log.steps_done} of {workload.planned_steps} steps ran"], {}
    else:
        checks, summary = workload.check(result, log), workload.summary(result, log)
    ratios = [q for level in log.levels for q in level.ratios]
    unit_s = probe.seconds / probe.units if probe.units else 1e-3 * workload.probe_ref_ms
    rep = Rep(
        traced=traced,
        wall=spans[0][2] - spans[0][1],
        setup=setup_seconds(spans),
        step_times=durations(spans, "scheme.step"),
        steps=log.steps_done,
        iterations=sum(sum(level.iterations) for level in log.levels),
        contraction_p50=statistics.median(ratios) if ratios else None,
        failure=failure,
        checks=checks,
        summary=summary,
        spans=spans if traced else None,
        probe_s=probe.seconds,
        probe_unit_s=unit_s,
        scale=1e-3 * workload.probe_ref_ms / unit_s,
    )
    final = log.levels[-1].last_state if log.levels else None
    return rep, final


def measure(workload, seconds: float, trace: bool):
    """Reps until the next one would end past ``seconds``; stops at a failure.

    Returns the reps and the final state of the last rep that has one.
    """
    from machine import HostProbe

    probe = HostProbe(workload.probe_m)
    reps: list[Rep] = []
    final = None
    deadline = perf_counter() + seconds
    while True:
        traced = trace and len(reps) % 2 == 1
        rep, rep_final = run_rep(workload, probe, traced)
        reps.append(rep)
        final = rep_final or final
        if rep.failure:
            return reps, final
        enough = len(reps) >= (2 if trace else 1)
        if enough and perf_counter() + max(r.wall for r in reps[-2:]) > deadline:
            return reps, final


def typical(reps: list[Rep], scaled: bool = True) -> dict:
    """Per-step median over reps, plus the median set-up and rest of the loop.

    The reps of a run repeat identical work (same inputs, deterministic
    program), so step i costs the same in every rep.  With ``scaled`` each
    rep is first brought to the reference host speed (``Rep.parts``), which
    takes out the drift of the host's speed; the median then drops the
    short bursts of other load that the probe did not share.
    """
    done = [r for r in reps if not r.failure] or reps
    parts = [r.parts(scaled) for r in done]
    n = min(len(p["steps"]) for p in parts)
    steps = [statistics.median(p["steps"][i] for p in parts) for i in range(n)]
    rest = statistics.median(p["rest"] for p in parts)
    setup = statistics.median(p["setup"] for p in parts)
    return {"steps": steps, "loop": sum(steps) + rest, "wall": setup + sum(steps) + rest,
            "setup": setup}


def time_call(fn, min_seconds: float = 0.2, min_calls: int = 5) -> float:
    """Best time of repeated calls."""
    best, calls = float("inf"), 0
    end = perf_counter() + min_seconds
    while calls < min_calls or perf_counter() < end:
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
        calls += 1
    return best


def kernel_metrics(phi) -> dict:
    """Kernel times on the final field, with computed compulsory bytes.

    Bytes count each input and output array once (plus the symbol table for
    the spectral kernels); passes inside numpy and cache misses are ignored.
    """
    from chfd.grid import Field
    from chfd.operators import laplace_long
    from chfd.spectral import invert_laplace_long, laplace_long_spectral, make_plan

    plan = make_plan(phi.grid)
    m = phi.grid.m
    n, n_half = m * m, m * (m // 2 + 1)
    mean_free = Field(phi.grid, phi.values - phi.values.mean())
    kernels = {
        "spectral.fft_pair": (lambda: laplace_long_spectral(plan, phi), 16 * n + 8 * n_half),
        "operators.laplace_long": (lambda: laplace_long(phi), 16 * n),
        "spectral.invert_laplace_long": (
            lambda: invert_laplace_long(plan, mean_free), 16 * n + 8 * n_half),
    }
    out = {}
    for name, (fn, nbytes) in kernels.items():
        t = time_call(fn)
        out[f"{name}_ms"] = (1e3 * t, "ms")
        out[f"{name}_bytes"] = (nbytes, "B", "computed")
        out[f"{name}_gb_per_s"] = (nbytes / t / 1e9, "GB/s", "computed bytes / best time")
    return out


def end_to_end(workload, reps: list[Rep], attempted: int, failed: int) -> dict:
    untraced = [r for r in reps if not r.traced]
    mid, raw = typical(untraced), typical(untraced, scaled=False)
    steps = mid["steps"]
    p50 = 1e3 * statistics.median(steps) if steps else 0.0
    ref = (f"at the reference host speed (probe unit {workload.probe_ref_ms} ms "
           f"at m={workload.probe_m})")
    out = {
        "wall_s": (mid["wall"], "s",
                   f"set-up + per-step median over reps + rest of the loop, {ref}"),
        "steps_per_s": (len(steps) / mid["loop"], "1/s", ref),
        "step_ms_p50": (p50, "ms",
                        f"median over {len(steps)} steps of the per-step median, {ref}"),
        "setup_s": (mid["setup"], "s", f"median over reps, {ref}"),
        "failed_frac": (failed / attempted, "1"),
        "reps": (len(untraced), "count"),
        "raw.wall_s": (raw["wall"], "s", "as wall_s, at the speed the host had"),
        "raw.setup_s": (raw["setup"], "s", "as setup_s, at the speed the host had"),
        "host.probe_unit_ms": (1e3 * statistics.median(r.probe_unit_s for r in untraced), "ms",
                               "median over reps of the host probe's mean unit time"),
    }
    if len(steps) >= P90_MIN_SAMPLES:
        out["step_ms_p90"] = (1e3 * statistics.quantiles(steps, n=10)[-1], "ms")
    if workload.name == "coarsen512":
        out["full_run_h"] = (
            FULL_RUN_STEPS * p50 / 3.6e6, "h",
            f"{FULL_RUN_STEPS} steps x step_ms_p50 of the first {workload.planned_steps} "
            "steps after a flat restart; assumes later steps (and the dt=0.04 segment) cost "
            "the same and ignores set-up and output")
    for r in reps:
        if "ref_error_l2" in r.summary:
            out["ref_error_l2"] = (r.summary["ref_error_l2"], "1",
                                   f"L2 error at the finest level m={workload.m}")
            break
    return out


def per_layer(workload, reps: list[Rep], final) -> dict:
    """Layer self times of the fastest traced rep, which with the probe's time
    sum to its wall time; the probe's time is left out of every figure."""
    from spans import durations, self_times, wrapper_cost

    traced = [r for r in reps if r.traced and not r.failure]
    untraced = [r for r in reps if not r.traced and not r.failure]
    if not traced:
        return {}
    rep = min(traced, key=lambda r: r.wall - r.probe_s)
    selfs = self_times(rep.spans)

    def per_step_ms(*names):
        return 1e3 * sum(selfs.get(n, (0.0, 0))[0] for n in names) / rep.steps

    def per_rep_ms(name):
        return 1e3 * selfs.get(name, (0.0, 0))[0]

    def per_call_ms(name):
        t, count = selfs.get(name, (0.0, 0))
        return 1e3 * t / count if count else 0.0

    traced_wall = rep.wall - rep.probe_s
    untraced_wall = min(r.wall - r.probe_s for r in untraced or traced)
    out = {
        "psd.iters_per_step": (rep.iterations / rep.steps, "count"),
        "psd.ms_per_iter": (1e3 * sum(durations(rep.spans, "psd.solve")) / rep.iterations, "ms"),
        "psd.solve_ms": (per_step_ms("psd.solve"), "ms"),
        "psd.contraction_p50": (rep.contraction_p50, "1",
                                "median ratio of successive PSD residuals"),
        "scheme.assemble_rhs_ms": (per_step_ms("scheme.assemble_rhs"), "ms"),
        "scheme.step_self_ms": (per_step_ms("scheme.step"), "ms"),
        "diagnostics.energy_ms": (per_step_ms("diagnostics.energy"), "ms"),
        "diagnostics.modified_energy_ms": (per_step_ms("diagnostics.modified_energy"), "ms"),
        "cli.loop_self_ms": (per_step_ms(*ENTRY_SPANS), "ms",
                             "self time of the entry point (run_simulation or "
                             "convergence_study) per step"),
        "spectral.make_plan_ms": (per_rep_ms("spectral.make_plan"), "ms"),
        "scheme.ghost_init_ms": (per_rep_ms("scheme.ghost_init"), "ms"),
        "rng.random_initial_field_ms": (per_rep_ms("rng.random_initial_field"), "ms"),
        "io.snapshot_read_ms": (per_rep_ms("io.snapshot_read"), "ms"),
        "io.csv_row_ms": (per_call_ms("io.csv_row"), "ms"),
        "io.snapshot_write_ms": (per_call_ms("io.snapshot_write"), "ms"),
        "io.bytes_written": (workload.bytes_written(), "B"),
        "trace.wall_s": (traced_wall, "s", "fastest traced rep, without the probe"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s",
                             "fastest traced rep minus fastest untraced rep, "
                             "both without the probe"),
        "trace.unattributed_s": (selfs["bench.rep"][0], "s",
                                 "trace.wall_s minus the sum of the layer self times"),
        "trace.spans_per_rep": (len(rep.spans), "count"),
        "trace.wrapper_cost_s": (len(rep.spans) * wrapper_cost(), "s",
                                 "spans x measured cost of one wrapped call"),
    }
    out.update(kernel_metrics(final.phi_curr))
    return out


def format_metrics(raw: dict) -> dict:
    out = {}
    for name, entry in raw.items():
        item = {"value": entry[0], "unit": entry[1]}
        if len(entry) > 2:
            item["note"] = entry[2]
        out[name] = item
    return out


def run_workload(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import chfd

    if not Path(chfd.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"chfd imported from {chfd.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from machine import manifest, peak_rss_mib
    from workloads import WORKLOADS, field_digest

    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    work = WORK / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](ROOT, work, args.seed, args.tiny)
        workload.prepare()
        reps, final = measure(workload, args.seconds, bool(args.trace))
        peak_rss = peak_rss_mib()  # before the kernel and triad probes allocate
        attempted = workload.planned_steps * len(reps)
        failed = sum(workload.planned_steps - r.steps for r in reps if r.failure)
        checks = [f"rep {i}: {c}" for i, r in enumerate(reps) for c in r.checks]
        correct = not checks
        metrics = end_to_end(workload, reps, attempted, failed)
        if args.trace:
            metrics.update(per_layer(workload, reps, final))
        metrics["peak_rss_mb"] = (peak_rss, "MiB")
        env = manifest(SRC, {v: os.environ[v] for v in THREAD_VARS}, triad_n=512 * 512)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = format_metrics(metrics)
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "reps": [
            {"traced": r.traced, "wall_s": r.wall - r.probe_s, "setup_s": r.setup,
             "steps_s": sum(r.step_times), "probe_unit_s": r.probe_unit_s,
             "scale": r.scale, "steps": r.steps, "iterations": r.iterations,
             "failure": r.failure, **r.summary}
            for r in reps
        ],
        "final_field_sha256": field_digest(final.phi_curr.values) if final else None,
        "metrics": metrics,
        "manifest": env,
        "started_utc": started,
        "ended_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    if args.trace:
        spans = [{"rep": i, "spans": r.spans} for i, r in enumerate(reps) if r.traced]
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    for name, item in metrics.items():
        print(f"{name:38s} {item['value']:>16.6g} {item['unit']}")
    for line in checks:
        print(f"CHECK FAILED {line}")
    print(f"full result: {RESULTS / stem}.json")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        # a metric is missing only when a failure left no rep to measure it
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], {}).get("value"), "unit": m["unit"]}
            for m in listed
        },
    }
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="chfd benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken grids for smoke tests; skips the recorded-value checks")
    args = ap.parse_args(argv)
    if not (SRC / "chfd" / "__init__.py").is_file():
        print(f"no chfd package under {SRC}: run from a chfd checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
