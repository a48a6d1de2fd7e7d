"""Tests of the benchmark itself, on shrunken grids (``--tiny``).

Run from the checkout root:  python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "run.py"
ROOT = RUN.parent.parent

END_TO_END = ("wall_s", "steps_per_s", "step_ms_p50", "setup_s", "peak_rss_mb", "failed_frac",
              "raw.wall_s", "raw.setup_s", "host.probe_unit_ms")
ONLY_ON = {"coarsen512": ("full_run_h",), "desk128": (), "converge": ("ref_error_l2",)}
PER_LAYER = (
    "psd.iters_per_step", "psd.ms_per_iter", "psd.solve_ms", "psd.contraction_p50",
    "scheme.assemble_rhs_ms", "scheme.step_self_ms", "diagnostics.energy_ms",
    "diagnostics.modified_energy_ms", "cli.loop_self_ms",
    "spectral.make_plan_ms", "scheme.ghost_init_ms", "rng.random_initial_field_ms",
    "io.snapshot_read_ms", "io.csv_row_ms", "io.snapshot_write_ms", "io.bytes_written",
    "spectral.fft_pair_ms", "operators.laplace_long_ms", "spectral.invert_laplace_long_ms",
    "spectral.fft_pair_bytes", "operators.laplace_long_bytes",
    "spectral.invert_laplace_long_bytes", "trace.overhead_s",
)


def run_bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(last-line result, full result file) of a tiny run."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    path = next(ln.split(": ", 1)[1] for ln in lines if ln.startswith("full result: "))
    return json.loads(lines[-1]), json.loads(Path(path).read_text())


@pytest.fixture(scope="module", params=sorted(ONLY_ON))
def traced(request):
    return request.param, run_bench(request.param, seed=3, trace=1)


def test_smoke_run_is_correct(traced):
    _, (line, full) = traced
    assert line["correct"] is True, full["checks"]
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert full["reps"][0]["traced"] is False and full["reps"][1]["traced"] is True


def test_full_result_names_every_metric(traced):
    name, (_, full) = traced
    for metric in END_TO_END + ONLY_ON[name] + PER_LAYER:
        assert metric in full["metrics"], metric
        assert isinstance(full["metrics"][metric]["unit"], str)
    assert full["metrics"]["host.probe_unit_ms"]["value"] > 0
    for key in ("nproc", "cpu_model", "cache_bytes", "numpy", "fft_backend", "python",
                "thread_env", "triad"):
        assert key in full["manifest"], key
    assert set(full["manifest"]["thread_env"].values()) == {"1"}


def test_last_line_matches_benchmark_spec(traced):
    _, (line, _) = traced
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in spec["per_layer"]]


def test_untraced_line_has_end_to_end_metrics():
    line, full = run_bench("desk128", seed=3, trace=0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert not any(r["traced"] for r in full["reps"])


def test_iteration_count_repeats_for_a_seed():
    a, _ = run_bench("desk128", seed=11, trace=1)
    b, _ = run_bench("desk128", seed=11, trace=1)
    key = "psd.iters_per_step"
    assert a["metrics"][key]["value"] == b["metrics"][key]["value"]


def test_fails_without_the_package(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(RUN.parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk128", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_scaling_takes_out_host_speed():
    sys.path.insert(0, str(RUN.parent))
    from run import Rep, typical

    def rep(speed):  # the same rep on a host ``speed`` times slower
        return Rep(traced=False, wall=speed * 1.4, setup=speed * 0.1,
                   step_times=[speed * 0.3, speed * 0.5], steps=2, iterations=10,
                   contraction_p50=None, failure=None, checks=[], summary={}, spans=None,
                   probe_s=speed * 0.2, probe_unit_s=speed * 1e-3, scale=1e-3 / (speed * 1e-3))

    slow, fast = typical([rep(1.5)] * 3), typical([rep(1.0)] * 3)
    assert slow["wall"] == pytest.approx(fast["wall"]) == pytest.approx(1.2)
    assert slow["steps"] == pytest.approx([0.3, 0.5])
    assert typical([rep(1.5)], scaled=False)["wall"] == pytest.approx(1.5 * 1.2)
