import dataclasses
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

import chfd.cli
import chfd.psd
from chfd import Field, GridSpec, field_from_fn, fit_power_law, mean, norm_linf
from chfd.cli import (
    ConfigError,
    SegmentConfig,
    _reached,
    load_config,
    main,
    parse_config,
    run_simulation,
)
from chfd.io import (
    ENERGY_CSV_HEADER,
    SnapshotFormatError,
    read_snapshot,
    write_snapshot,
)
from chfd.rng import random_initial_field, splitmix64, unit_floats
from chfd.verification import TRUNCATION_CASES


# ---------------------------------------------------------------------------
# seeded field generator


def scalar_splitmix64(seed, n, start=0):
    """Pure-integer restatement of the generator, as the oracle."""
    mask = (1 << 64) - 1
    out = []
    for k in range(start, start + n):
        z = (seed + (k + 1) * 0x9E3779B97F4A7C15) & mask
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
        out.append(z ^ (z >> 31))
    return out


def test_splitmix64_matches_scalar_oracle():
    got = splitmix64(12345, 8)
    assert [int(v) for v in got] == scalar_splitmix64(12345, 8)
    # disjoint slices of one stream stitch together
    tail = splitmix64(12345, 5, start=3)
    assert [int(v) for v in tail] == scalar_splitmix64(12345, 5, start=3)
    with pytest.raises(ValueError, match="nonnegative"):
        splitmix64(12345, -1)


def test_unit_floats_are_top_53_bits():
    vals = unit_floats(99, 16)
    ints = scalar_splitmix64(99, 16)
    expected = [(z >> 11) * 2.0**-53 for z in ints]
    assert list(vals) == expected
    assert np.all((vals >= 0.0) & (vals < 1.0))


def test_random_initial_field_layout_and_range():
    grid = GridSpec(L=12.8, m=16)
    f = random_initial_field(grid, mean=0.1, amplitude=0.05, seed=7)
    u = unit_floats(7, 16 * 16).reshape(16, 16)  # row-major fill
    assert np.array_equal(f.values, 0.1 + 0.05 * (2.0 * u - 1.0))
    assert np.all(np.abs(f.values - 0.1) <= 0.05)
    again = random_initial_field(grid, mean=0.1, amplitude=0.05, seed=7)
    assert np.array_equal(f.values, again.values)
    other = random_initial_field(grid, mean=0.1, amplitude=0.05, seed=8)
    assert not np.array_equal(f.values, other.values)
    with pytest.raises(ValueError):
        random_initial_field(grid, mean=0.0, amplitude=-0.1, seed=0)


# ---------------------------------------------------------------------------
# snapshots


def test_chf_header_bytes_exact(tmp_path):
    grid = GridSpec(L=12.8, m=128)
    f = Field(grid, np.zeros(grid.shape))
    path = tmp_path / "s.chf"
    write_snapshot(f, path, t=1.0)
    raw = path.read_bytes()
    header = raw[: raw.index(b"\n") + 1]
    assert header == b"CHF1 128 128 12.8 1.0\n"
    assert len(raw) == len(header) + 128 * 128 * 8


def test_chf_roundtrip_is_bitwise(tmp_path):
    grid = GridSpec(L=3.2, m=16)
    rng = np.random.default_rng(3)
    f = Field(grid, rng.standard_normal(grid.shape))
    path = tmp_path / "f.chf"
    write_snapshot(f, path, t=0.125)
    g, t = read_snapshot(path)
    assert t == 0.125
    assert g.grid == grid
    assert np.array_equal(f.values, g.values)


def test_chf_payload_is_little_endian_row_major(tmp_path):
    grid = GridSpec(L=1.0, m=5)
    vals = np.arange(25, dtype=float).reshape(5, 5)
    path = tmp_path / "order.chf"
    write_snapshot(Field(grid, vals), path, t=0.0)
    raw = path.read_bytes()
    payload = raw[raw.index(b"\n") + 1 :]
    decoded = np.frombuffer(payload, dtype="<f8").reshape(5, 5)
    assert np.array_equal(decoded, vals)


def test_read_snapshot_rejects_garbage(tmp_path):
    p = tmp_path / "bad.chf"
    p.write_bytes(b"NOPE 4 4 1.0 0.0\n" + b"\x00" * 128)
    with pytest.raises(SnapshotFormatError):
        read_snapshot(p)
    q = tmp_path / "short.chf"
    q.write_bytes(b"CHF1 8 8 1.0 0.0\n" + b"\x00" * 16)
    with pytest.raises(SnapshotFormatError):
        read_snapshot(q)
    u = tmp_path / "utf16.chf"
    u.write_bytes(b"\xff\xfeCHF1 4 4 1.0 0.0\n" + b"\x00" * 128)  # not ASCII
    with pytest.raises(SnapshotFormatError):
        read_snapshot(u)
    p.write_bytes(b"CHF1 4 4 1.0 0.0")  # the file ends before the newline
    with pytest.raises(SnapshotFormatError, match="end of file"):
        read_snapshot(p)
    # 256 bytes before the newline are read; 257 are not
    p.write_bytes(b"CHF1 4 4 1.0 0.0" + b" " * 240 + b"\n" + b"\x00" * 128)
    read_snapshot(p)
    p.write_bytes(b"CHF1 4 4 1.0 0.0" + b" " * 241 + b"\n" + b"\x00" * 128)
    with pytest.raises(SnapshotFormatError, match="too long"):
        read_snapshot(p)
    # header fields that do not parse, and a grid that is not square
    for header, match in [("CHF1 4 x 1.0 0.0", "bad header fields"),
                          ("CHF1 4 4 one 0.0", "bad header fields"),
                          ("CHF1 4 8 1.0 0.0", "non-square snapshot 4x8")]:
        p.write_bytes(header.encode() + b"\n" + b"\x00" * 256)
        with pytest.raises(SnapshotFormatError, match=match):
            read_snapshot(p)
    # header values no run can start from, caught before the payload is read
    for header in ["CHF1 1 1 1.0 0.0", "CHF1 4 4 nan 0.0", "CHF1 4 4 0.0 0.0",
                   "CHF1 4 4 1.0 nan", "CHF1 4 4 1.0 inf", "CHF1 4 4 1.0 -inf"]:
        p.write_bytes(header.encode() + b"\n" + b"\x00" * 128)
        with pytest.raises(SnapshotFormatError, match="bad header values"):
            read_snapshot(p)
    # a payload no run can start from
    for bad in (np.nan, np.inf, -np.inf):
        vals = np.zeros((4, 4))
        vals[1, 2] = bad
        p.write_bytes(b"CHF1 4 4 1.0 0.0\n" + vals.astype("<f8").tobytes())
        with pytest.raises(SnapshotFormatError, match="non-finite values"):
            read_snapshot(p)
    # a payload longer than the header says, and one the header makes huge,
    # rejected by its size before it is read
    for header, payload, match in [
        ("CHF1 4 4 1.0 0.0", 8 * 8 * 8, "is 512 bytes, but a 4x4 grid needs 128"),
        ("CHF1 1000000000 1000000000 1.0 0.0", 128,
         "is 128 bytes, but a 1000000000x1000000000 grid needs 8000000000000000000"),
    ]:
        p.write_bytes(header.encode() + b"\n" + b"\x00" * payload)
        with pytest.raises(SnapshotFormatError, match=match):
            read_snapshot(p)


def test_pgm_encoding(tmp_path):
    grid = GridSpec(L=1.0, m=8)
    vals = np.full(grid.shape, -1.0)
    vals[2, 5] = 1.0  # x index 2, y index 5
    vals[0, 0] = 3.0  # clamps to white
    path = tmp_path / "f.pgm"
    write_snapshot(Field(grid, vals), path, t=0.0, format="pgm")
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n8 8\n255\n")
    img = np.frombuffer(raw[len(b"P5\n8 8\n255\n") :], dtype=np.uint8).reshape(8, 8)
    # row 0 is the top of the image = largest y; x runs along columns
    assert img[8 - 1 - 5, 2] == 255
    assert img[8 - 1 - 0, 0] == 255
    assert img[0, 0] == 0
    zero = np.zeros(grid.shape)
    write_snapshot(Field(grid, zero), path, t=0.0, format="pgm")
    img = np.frombuffer(path.read_bytes()[-64:], dtype=np.uint8)
    assert np.all(img == 128)


def test_write_snapshot_unknown_format(tmp_path):
    grid = GridSpec(L=1.0, m=8)
    with pytest.raises(ValueError):
        write_snapshot(Field(grid, np.zeros(grid.shape)), tmp_path / "x", 0.0, format="png")


# ---------------------------------------------------------------------------
# configuration parsing


def base_config(**overrides):
    data = {
        "domain": {"L": 3.2},
        "grid": {"m": 16},
        "physics": {"eps": 0.1},
        "schedule": [{"dt": 0.01, "t_end": 0.05}],
    }
    data.update(overrides)
    return data


def test_defaults_are_filled_in():
    cfg = parse_config(base_config())
    assert cfg.A == pytest.approx(1 / 16)
    assert cfg.initial.kind == "random"
    assert cfg.initial.amplitude == 0.1
    assert cfg.output.energy_every == 1
    assert cfg.output.formats == ("chf",)
    # a section written as YAML null ("physics:" with no value) takes the defaults
    bare = parse_config(yaml.safe_load(
        "grid: {m: 16}\nphysics:\nschedule: [{dt: 0.01, t_end: 0.05}]\n"))
    assert (bare.eps, bare.A) == (0.05, 1 / 16)


@pytest.mark.parametrize(
    "breakage",
    [
        {"grid": {}},  # m missing
        {"grid": {"m": 4}},  # too small
        {"grid": {"m": 16.0}},  # not an int
        {"grid": {"m": 16, "n": 2}},  # unknown key
        {"schedule": []},
        {"schedule": [{"dt": 0.01}]},
        {"schedule": [{"dt": -0.01, "t_end": 1.0}]},
        {"schedule": [{"dt": 0.01, "t_end": 1.0}, {"dt": 0.01, "t_end": 0.5}]},
        {"initial": {"kind": "bogus"}},
        {"initial": {"amplitude": -1.0}},
        {"initial": {"kind": "file"}},  # path required
        {"initial": {"path": "x.chf"}},  # path without kind: file
        {"solver": {"tol_rel": 1e-9}},  # the PSD settings are fixed: no such section
        {"output": {"energy_every": 0}},
        {"output": {"formats": ["bmp"]}},
        {"output": {"snapshot_times": ["soon"]}},
        {"mystery": {}},
        {"schedule": [{"dt": 0.03, "t_end": 0.1}]},  # 3.33 steps
        {"schedule": [{"dt": 0.01, "t_end": 0.05}, {"dt": 0.02, "t_end": 0.1}]},  # 2.5 steps
        {"output": {"snapshot_times": [0.025]}},  # between steps
        {"output": {"snapshot_times": [0.06]}},  # after the schedule end
        {"output": {"snapshot_times": [-1.0]}},  # before the start
        {"physics": {"eps": -0.1}},
        {"physics": {"eps": float("nan")}},  # non-finite
        {"domain": {"L": -1}},
        {"initial": {"seed": True}},
        {"domain": [12.8]},  # a section that is not a mapping
        {"physics": {"eps": 0.1, "A": "big"}},
        {"schedule": [{"dt": 0.01, "t_end": 0.05, "n": 5}]},  # extra segment key
        {"schedule": [{"dt": 0.01, "t_end": 0.0}]},  # a cold start already at the end
        {"output": {"formats": []}},
        {"output": {"snapshot_times": 0.03}},  # not a list
        {"initial": {"kind": "file", "path": 3}},  # path not a string
        {"physics": {"eps": 0.1, "A": -100.0}},  # the update objective need not be convex
        {"initial": {"kind": "file", "path": "x.chf", "seed": 99}},  # a warm start has no seed
        {"output": {"dir": None}},  # `dir:` left empty in YAML
        {"output": {"dir": 5}},
        {"output": {"snapshot_times": [float("nan")]}},
        {"output": {"formats": ["chf", "chf"]}},
        {"physics": {"eps": 10**400}},  # an int too large for a float
        {"output": {"snapshot_times": [10**400]}},
        {"grid": {"m": 10**400}},
    ],
)
def test_bad_configs_rejected(breakage):
    with pytest.raises(ConfigError) as err:
        parse_config(base_config(**breakage))
    if "solver" in breakage:
        assert "unknown top-level section(s): solver" in str(err.value)


shipped_configs = pytest.mark.parametrize(
    "path",
    sorted((Path(__file__).parents[1] / "configs").glob("*.yaml")),
    ids=lambda p: p.name,
)


@shipped_configs
def test_shipped_configs_load(path):
    assert load_config(path).schedule


@shipped_configs
def test_shipped_configs_take_their_first_steps(path):
    config = load_config(path)
    dt = config.schedule[0].dt
    config = dataclasses.replace(
        config,
        schedule=(SegmentConfig(dt=dt, t_end=2 * dt),),
        output=dataclasses.replace(config.output, snapshot_times=()),
    )
    result = run_simulation(config, write_outputs=False)
    assert result.state.step_index == 2
    # a cold start's history is flat, so the modified energy starts at E
    assert result.records[0].E_mod == result.records[0].E


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(base_config()))
    cfg = load_config(path)
    assert cfg.m == 16 and cfg.L == 3.2
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.yaml")


# ---------------------------------------------------------------------------
# the run command


def run_config(tmp_path, subdir, **extra):
    data = base_config(
        initial={"kind": "random", "seed": 3, "amplitude": 0.1},
        output={
            "dir": str(tmp_path / subdir),
            "snapshot_times": [0.0, 0.03],
            "formats": ["chf", "pgm"],
            **extra.pop("output", {}),
        },
        **extra,
    )
    path = tmp_path / f"{subdir}.yaml"
    path.write_text(yaml.safe_dump(data))
    return path, tmp_path / subdir


def test_run_end_to_end_and_deterministic(tmp_path, capsys):
    cfg_a, out_a = run_config(tmp_path, "a")
    cfg_b, out_b = run_config(tmp_path, "b")
    assert main(["run", str(cfg_a)]) == 0
    assert main(["run", str(cfg_b)]) == 0
    csv_a = (out_a / "energy.csv").read_bytes()
    assert csv_a == (out_b / "energy.csv").read_bytes()
    assert csv_a.startswith(ENERGY_CSV_HEADER.encode() + b"\n")
    assert (out_a / "snap_000.chf").read_bytes() == (out_b / "snap_000.chf").read_bytes()
    assert (out_a / "snap_001.pgm").read_bytes() == (out_b / "snap_001.pgm").read_bytes()
    rows = csv_a.decode().strip().split("\n")
    assert len(rows) == 1 + 6  # header, t=0 row, 5 steps
    last = rows[-1].split(",")
    assert int(last[0]) == 5
    assert float(last[1]) == pytest.approx(0.05)

    snap0, t0 = read_snapshot(out_a / "snap_000.chf")
    assert t0 == 0.0
    expected0 = random_initial_field(GridSpec(L=3.2, m=16), 0.0, 0.1, 3)
    assert np.array_equal(snap0.values, expected0.values)
    _, t1 = read_snapshot(out_a / "snap_001.chf")
    assert t1 == pytest.approx(0.03)


def test_run_summary_gives_the_iterations_and_the_decay_fit(tmp_path, capsys):
    cfg, _ = run_config(tmp_path, "a", schedule=[{"dt": 0.01, "t_end": 1.0}])
    assert main(["run", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = run_simulation(load_config(cfg), write_outputs=False)
    iters = [s.iterations for s in result.solve_stats]
    assert len(iters) == 100
    assert lines[1] == (f"psd iterations/step over the 100 energy.csv steps: "
                        f"mean {sum(iters) / 100:.1f}, max {max(iters)}")
    # the window is the last decade of time, [t_end / 10, t_end], with both end
    # rows although the summed step times miss them by rounding
    window = [r for r in result.records if 0.1 - 1e-9 <= r.t <= 1.0 + 1e-9]
    assert len(window) == 91 and window[0].t < 0.1 and window[-1].t > 1.0
    a, b = fit_power_law(window, window[0].t, window[-1].t)
    assert lines[2] == f"energy decay: E ~ {a:.4g} t^{-b:.4f} over t in [0.1, 1] (91 rows)"
    assert len(lines) == 3


@pytest.mark.parametrize("t_end, initial", [
    (0.05, {"kind": "random", "seed": 3, "amplitude": 0.1}),  # 5 steps: too few rows to fit
    (1.0, {"kind": "random", "mean": 1.0, "amplitude": 0.0}),  # a pure phase: E = 0
], ids=["short", "pure-phase"])
def test_run_summary_leaves_out_a_fit_it_cannot_make(tmp_path, capsys, t_end, initial):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(base_config(
        schedule=[{"dt": 0.01, "t_end": t_end}], initial=initial,
        output={"dir": str(tmp_path / "out")})))
    assert main(["run", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("done: ")
    assert lines[1].startswith("psd iterations/step over the ")


def test_run_yaml_is_a_config_that_reruns_the_run(tmp_path):
    cfg_a, out_a = run_config(tmp_path, "a")
    assert main(["run", str(cfg_a)]) == 0
    echo = (out_a / "run.yaml").read_text()
    assert echo.startswith(f"# chfd {chfd.__version__}\n")
    data = yaml.safe_load(echo)
    data["output"]["dir"] = str(tmp_path / "b")
    (tmp_path / "b.yaml").write_text(yaml.safe_dump(data))
    assert main(["run", str(tmp_path / "b.yaml")]) == 0
    names = sorted(p.name for p in out_a.iterdir() if p.name != "run.yaml")
    assert names == ["energy.csv", "snap_000.chf", "snap_000.pgm", "snap_001.chf", "snap_001.pgm"]
    for name in names:
        assert (out_a / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_warm_start_run_yaml_names_only_the_file(tmp_path):
    grid = GridSpec(L=3.2, m=16)
    warm = tmp_path / "warm.chf"
    write_snapshot(random_initial_field(grid, 0.0, 0.1, seed=11), warm, t=0.02)
    data = base_config(initial={"kind": "file", "path": str(warm)},
                       output={"dir": str(tmp_path / "a"), "snapshot_times": [0.04]})
    (tmp_path / "a.yaml").write_text(yaml.safe_dump(data))
    assert main(["run", str(tmp_path / "a.yaml")]) == 0
    echo = yaml.safe_load((tmp_path / "a" / "run.yaml").read_text())
    assert echo["initial"] == {"kind": "file", "path": str(warm)}
    echo["output"]["dir"] = str(tmp_path / "b")
    (tmp_path / "b.yaml").write_text(yaml.safe_dump(echo))
    assert main(["run", str(tmp_path / "b.yaml")]) == 0
    for name in ("energy.csv", "snap_000.chf"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_readme_config_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    parse_config(yaml.safe_load(block))


def test_run_resumes_from_snapshot(tmp_path):
    grid = GridSpec(L=3.2, m=16)
    phi = random_initial_field(grid, 0.0, 0.1, seed=11)
    warm = tmp_path / "warm.chf"
    write_snapshot(phi, warm, t=0.02)
    data = base_config(initial={"kind": "file", "path": str(warm)},
                       output={"dir": str(tmp_path / "resume"), "snapshot_times": [0.02, 0.04]})
    result = run_simulation(parse_config(data))
    # three steps carry t from 0.02 to the schedule end at 0.05
    assert result.records[0].t == pytest.approx(0.02)
    assert result.state.t == pytest.approx(0.05)
    assert result.state.step_index == 3
    assert result.records[0].mass == pytest.approx(mean(phi))
    assert result.snapshots == [0.02, pytest.approx(0.04)]
    assert read_snapshot(tmp_path / "resume" / "snap_001.chf")[1] == result.snapshots[1]


@pytest.mark.parametrize("t0, n_steps", [(2.0, 50), (1.0, 100)])
def test_warm_start_at_or_past_the_end_of_a_segment(tmp_path, t0, n_steps):
    """How a long run resumes from a late snapshot: segments that end by the
    snapshot's time are skipped, and the steps are counted from that time."""
    grid = GridSpec(L=3.2, m=16)
    warm = tmp_path / "warm.chf"
    write_snapshot(random_initial_field(grid, 0.0, 0.1, seed=11), warm, t=t0)
    data = base_config(initial={"kind": "file", "path": str(warm)},
                       schedule=[{"dt": 0.01, "t_end": 1.0}, {"dt": 0.02, "t_end": 3.0}],
                       output={"dir": str(tmp_path / "late")})
    config = parse_config(data)
    assert chfd.cli._step_plan(config.schedule, t0, ()) == ([(0.02, n_steps)], [])
    result = run_simulation(config)
    assert result.state.step_index == n_steps
    assert result.state.t == pytest.approx(3.0)
    rows = [row.split(",") for row in
            (tmp_path / "late" / "energy.csv").read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(n_steps + 1))
    assert float(rows[0][1]) == t0
    assert float(rows[1][1]) == pytest.approx(t0 + 0.02)


def test_steps_are_numbered_through_a_dt_change(tmp_path):
    # 5 steps of 0.01, then 2 of 0.02; the repeated time writes two files
    data = base_config(
        schedule=[{"dt": 0.01, "t_end": 0.05}, {"dt": 0.02, "t_end": 0.09}],
        output={"dir": str(tmp_path / "two"), "energy_every": 3,
                "snapshot_times": [0.03, 0.07, 0.07]},
    )
    result = run_simulation(parse_config(data))
    assert result.state.step_index == 7
    assert [r.step for r in result.records] == [0, 3, 6, 7]
    assert result.snapshots == [pytest.approx(0.03), pytest.approx(0.07), pytest.approx(0.07)]
    rows = (tmp_path / "two" / "energy.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == [0, 3, 6, 7]
    for i, t in enumerate(result.snapshots):
        assert read_snapshot(tmp_path / "two" / f"snap_{i:03d}.chf")[1] == t


def test_history_spectra_stay_those_of_the_values(tmp_path):
    """Every spectrum a run caches is that of the field as it stands: nothing
    writes into a field, across a warm start and a dt change."""
    grid = GridSpec(L=3.2, m=16)
    warm = tmp_path / "warm.chf"
    write_snapshot(random_initial_field(grid, 0.0, 0.1, seed=11), warm, t=0.02)
    data = base_config(initial={"kind": "file", "path": str(warm)},
                       schedule=[{"dt": 0.01, "t_end": 0.05}, {"dt": 0.02, "t_end": 0.09}])
    state = run_simulation(parse_config(data), write_outputs=False).state
    for field in (state.phi_prev, state.phi_curr):
        assert "spectrum" in vars(field)  # cached during the run
        assert np.array_equal(field.spectrum, np.fft.rfft2(field.values))


def test_run_result_keeps_the_energy_csv_rows_only(tmp_path):
    data = base_config(schedule=[{"dt": 0.01, "t_end": 0.12}],
                       output={"dir": str(tmp_path / "every5"), "energy_every": 5})
    result = run_simulation(parse_config(data))
    rows = [row.split(",") for row in
            (tmp_path / "every5" / "energy.csv").read_text().splitlines()[1:]]
    assert [r.step for r in result.records] == [int(row[0]) for row in rows] == [0, 5, 10, 12]
    assert len(result.solve_stats) == len(result.records) - 1
    assert [s.iterations for s in result.solve_stats] == [int(row[5]) for row in rows[1:]]
    quiet = run_simulation(parse_config(data), write_outputs=False)
    assert quiet.records == result.records


def test_schedule_and_snapshots_on_the_step_lattice_pass():
    cfg = parse_config(base_config(
        schedule=[{"dt": 0.01, "t_end": 0.05}, {"dt": 0.025, "t_end": 0.1}],
        output={"snapshot_times": [0.0, 0.03, 0.05, 0.075, 0.1]},
    ))
    assert [s.t_end for s in cfg.schedule] == [0.05, 0.1]
    # 3 x 0.1 is 0.30000000000000004: on the lattice to rounding
    parse_config(base_config(schedule=[{"dt": 0.1, "t_end": 0.3}],
                             output={"snapshot_times": [0.3]}))


def test_step_times_accumulated_over_a_long_segment_reach_its_end():
    # configs/spinodal_full.yaml: 200k steps of 0.01 end 1.7e-9 short of t = 2000,
    # more than an absolute 1e-9 slack, so the t = 2000 snapshot would move a step
    t = 0.0
    for _ in range(200_000):
        t += 0.01
    assert t != 2000.0
    assert _reached(2000.0, t)
    assert not _reached(2000.0 + 0.01, t)


def test_warm_start_off_the_step_lattice_rejected(tmp_path):
    grid = GridSpec(L=3.2, m=16)
    phi = random_initial_field(grid, 0.0, 0.1, seed=11)
    warm = tmp_path / "warm.chf"
    write_snapshot(phi, warm, t=0.015)  # 3.5 steps before t_end = 0.05
    data = base_config(initial={"kind": "file", "path": str(warm)},
                       output={"dir": str(tmp_path / "resume")})
    config = parse_config(data)  # the file's time is only known at run time
    with pytest.raises(ConfigError, match="whole number"):
        run_simulation(config, write_outputs=False)
    write_snapshot(phi, warm, t=0.02)
    data["output"]["snapshot_times"] = [0.035]
    with pytest.raises(ConfigError, match="snapshot time"):
        run_simulation(parse_config(data), write_outputs=False)
    data["output"]["snapshot_times"] = [0.01, 0.03]  # 0.01 is before the file's t = 0.02
    with pytest.raises(ConfigError, match="before the start time"):
        run_simulation(parse_config(data), write_outputs=False)


def test_run_rejects_mismatched_snapshot(tmp_path):
    grid = GridSpec(L=3.2, m=32)  # config says m=16
    write_snapshot(Field(grid, np.zeros(grid.shape)), tmp_path / "w.chf", t=0.0)
    data = base_config(initial={"kind": "file", "path": str(tmp_path / "w.chf")})
    with pytest.raises(ConfigError):
        run_simulation(parse_config(data), write_outputs=False)


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    # 2: config trouble
    bad = tmp_path / "bad.yaml"
    bad.write_text("grid: {m: 16}\n")  # schedule missing
    assert main(["run", str(bad)]) == 2
    assert main(["run", str(tmp_path / "nope.yaml")]) == 2
    for text, named in [("grid: [m: 16\n", "cannot parse config"),
                        ("- grid\n- schedule\n", "top-level config must be a mapping")]:
        bad.write_text(text)
        capsys.readouterr()
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err, err
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["verify", "all", "--out", str(taken)]) == 2
    # 3: an initial energy that overflows, caught before row 0 and before any step
    overflow = tmp_path / "overflow.yaml"
    overflow.write_text(yaml.safe_dump(base_config(
        initial={"kind": "random", "seed": 1, "amplitude": 1.0e120},
        output={"dir": str(tmp_path / "o")},
    )))
    capsys.readouterr()
    assert main(["run", str(overflow)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("solver failure: initial energy not finite at t=0")
    assert (tmp_path / "o" / "energy.csv").read_text().splitlines() == [
        "step,t,mass,E,E_mod,psd_iters,residual"
    ]
    # 3: a finite initial state whose residual norm overflows at the first iteration
    huge = tmp_path / "huge.yaml"
    huge.write_text(yaml.safe_dump(base_config(
        initial={"kind": "random", "seed": 1, "amplitude": 1.0e60},
        output={"dir": str(tmp_path / "u")},
    )))
    assert main(["run", str(huge)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("solver failure: step 1 "), err
    assert "residual norm overflows at iteration 0" in err[0]
    assert "last residuals [nan]" in err[0]
    # 3: solver failure (impossible tolerance, one-iteration budget)
    monkeypatch.setattr(chfd.psd, "MAX_ITER", 1)
    monkeypatch.setattr(chfd.psd, "TOL_REL", 1e-16)
    hopeless = tmp_path / "hopeless.yaml"
    hopeless.write_text(yaml.safe_dump(base_config(
        initial={"kind": "random", "seed": 1, "amplitude": 0.1},
        output={"dir": str(tmp_path / "h")},
    )))
    assert main(["run", str(hopeless)]) == 3


def test_run_reports_unusable_files_as_config_errors(tmp_path, capsys):
    missing = tmp_path / "nope.chf"
    truncated = tmp_path / "short.chf"
    truncated.write_bytes(b"CHF1 16 16 3.2 0.0\n" + b"\x00" * 16)
    timeless = tmp_path / "timeless.chf"
    timeless.write_bytes(b"CHF1 16 16 3.2 nan\n" + b"\x00" * (16 * 16 * 8))
    nan_cell, inf_cell = tmp_path / "nan.chf", tmp_path / "inf.chf"
    for path, bad in ((nan_cell, np.nan), (inf_cell, np.inf)):
        vals = np.zeros((16, 16))
        vals[3, 4] = bad
        path.write_bytes(b"CHF1 16 16 3.2 0.0\n" + vals.astype("<f8").tobytes())
    huge = tmp_path / "huge.chf"
    huge.write_bytes(b"CHF1 1000000000 1000000000 3.2 0.0\n" + b"\x00" * (16 * 16 * 8))
    taken = tmp_path / "taken"
    taken.write_text("")
    for bad_path, section in [
        (missing, {"initial": {"kind": "file", "path": str(missing)}}),
        (truncated, {"initial": {"kind": "file", "path": str(truncated)}}),
        (timeless, {"initial": {"kind": "file", "path": str(timeless)}}),  # t = nan
        (nan_cell, {"initial": {"kind": "file", "path": str(nan_cell)}}),
        (inf_cell, {"initial": {"kind": "file", "path": str(inf_cell)}}),
        (huge, {"initial": {"kind": "file", "path": str(huge)}}),  # header of 8e18 bytes
        (taken, {"output": {"dir": str(taken)}}),  # output dir is a file
    ]:
        config = tmp_path / "c.yaml"
        config.write_text(yaml.safe_dump(base_config(**section)))
        assert main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert str(bad_path) in err


def test_verify_rejects_bad_options_before_the_studies(tmp_path, capsys, monkeypatch):
    def study(*args, **kwargs):
        raise AssertionError("a study ran")

    for name in ("truncation_study", "symbol_bound_study", "inequality_study",
                 "convergence_study"):
        monkeypatch.setattr(chfd.cli, name, study)
    taken = tmp_path / "taken"
    taken.write_text("")
    for args, named in [
        (["--out", str(taken)], str(taken)),  # a file
        (["--out", str(taken / "sub")], str(taken / "sub")),  # below a file
    ]:
        assert main(["verify", "all", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert named in err


def test_verify_subcommand_writes_reports(tmp_path, capsys):
    rc = main(["verify", "symbols", "--out", str(tmp_path / "v")])
    assert rc == 0
    assert (tmp_path / "v" / "symbol_bound.csv").exists()
    out = capsys.readouterr().out
    assert "[ok]" in out
    # every built-in truncation case is measured and gated
    assert main(["verify", "truncation", "--out", str(tmp_path / "v")]) == 0
    for case in TRUNCATION_CASES:
        assert (tmp_path / "v" / f"truncation_{case}.csv").exists()
    assert capsys.readouterr().out.count("[ok]") == len(TRUNCATION_CASES)


def test_verify_inequalities_writes_both_grids(tmp_path, capsys):
    assert main(["verify", "inequalities", "--out", str(tmp_path / "v")]) == 0
    for m in (32, 64):
        lines = (tmp_path / "v" / f"inequalities_m{m}.csv").read_text().splitlines()
        assert len(lines) == 201
    out = capsys.readouterr().out.splitlines()
    assert out == [f"inequalities m={m}: 0 violation(s) in 200 trials [ok]" for m in (32, 64)]


def fake_report(**attrs):
    return SimpleNamespace(to_csv=lambda: "fake\n", **attrs)


@pytest.mark.parametrize("target, study, fake, failure", [
    ("truncation", "truncation_study",
     lambda case, **kw: fake_report(
         finest_rates=lambda n: [(4.0, 4.0), (3.5 if case == "exp_sin" else 4.0, 4.0)]),
     "FAIL truncation exp_sin: finest rates 4.000, 4.000, 3.500, 4.000"),
    ("symbols", "symbol_bound_study",
     lambda **kw: fake_report(rows=[(512, 1.0, 0.0)], max_ratio=lambda: 1.0,
                              min_defect=lambda: -1e-3),
     "FAIL symbols: max ratio 1 vs 2x finest 2, min defect -1.000e-03"),
    ("inequalities", "inequality_study",
     lambda grid, **kw: fake_report(violations=int(grid.m == 64), n_trials=200),
     "FAIL inequalities m=64: 1 violation(s) in 200 trials"),
])
def test_verify_gate_failures_exit_4(tmp_path, capsys, monkeypatch, target, study, fake, failure):
    monkeypatch.setattr(chfd.cli, study, fake)
    assert main(["verify", target, "--out", str(tmp_path / "v")]) == 4
    assert capsys.readouterr().err.splitlines() == [failure]


def two_level_study(monkeypatch):
    """Make ``chfd verify convergence`` run the study at m = 16, 32 only."""
    study = chfd.cli.convergence_study
    monkeypatch.setattr(chfd.cli, "convergence_study", lambda: study(m_list=(16, 32)))


def test_verify_convergence_writes_the_table_and_gates_the_rates(tmp_path, capsys, monkeypatch):
    two_level_study(monkeypatch)
    # two levels stop short of the asymptotic range: the gate reports failure
    assert main(["verify", "convergence", "--out", str(tmp_path / "v")]) == 4
    text = (tmp_path / "v" / "convergence.csv").read_text()
    assert text.splitlines()[0] == "h,error_l2,rate_l2,error_linf,rate_linf"
    captured = capsys.readouterr()
    assert captured.out.startswith("m=16: psd iterations/step mean ")
    assert "\nm=32: psd iterations/step mean " in captured.out
    assert captured.err.startswith("FAIL convergence: finest rates ")


def test_verify_reports_a_solver_failure(tmp_path, capsys, monkeypatch):
    two_level_study(monkeypatch)
    monkeypatch.setattr(chfd.psd, "MAX_ITER", 1)
    monkeypatch.setattr(chfd.psd, "TOL_REL", 1e-16)
    assert main(["verify", "convergence", "--out", str(tmp_path / "v")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ") and err.count("\n") == 1, err
