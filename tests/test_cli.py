import numpy as np
import pytest
import yaml

from chfd import Field, GridSpec, field_from_fn, mean, norm_linf
from chfd.cli import (
    ConfigError,
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
from chfd.verification import convergence_study


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
    assert cfg.solver.tol_rel == 1e-10
    assert cfg.output.energy_every == 1
    assert cfg.output.formats == ("chf",)


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
        {"solver": {"tool_rel": 1e-9}},  # typo key
        {"solver": {"init_guess": "warm"}},
        {"output": {"energy_every": 0}},
        {"output": {"formats": ["bmp"]}},
        {"output": {"snapshot_times": ["soon"]}},
        {"mystery": {}},
        {"solver": {"precond_power": 1}},  # removed knobs are unknown keys
        {"solver": {"track_objective": True}},
        {"schedule": [{"dt": 0.03, "t_end": 0.1}]},  # 3.33 steps
        {"schedule": [{"dt": 0.01, "t_end": 0.05}, {"dt": 0.02, "t_end": 0.1}]},  # 2.5 steps
        {"output": {"snapshot_times": [0.025]}},  # between steps
        {"output": {"snapshot_times": [0.06]}},  # after the schedule end
    ],
)
def test_bad_configs_rejected(breakage):
    with pytest.raises(ConfigError):
        parse_config(base_config(**breakage))


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


def test_run_resumes_from_snapshot(tmp_path):
    grid = GridSpec(L=3.2, m=16)
    phi = random_initial_field(grid, 0.0, 0.1, seed=11)
    warm = tmp_path / "warm.chf"
    write_snapshot(phi, warm, t=0.02)
    data = base_config(initial={"kind": "file", "path": str(warm)},
                       output={"dir": str(tmp_path / "resume")})
    result = run_simulation(parse_config(data))
    # three steps carry t from 0.02 to the schedule end at 0.05
    assert result.records[0].t == pytest.approx(0.02)
    assert result.state.t == pytest.approx(0.05)
    assert result.state.step_index == 3
    assert result.records[0].mass == pytest.approx(mean(phi))


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


def test_run_rejects_mismatched_snapshot(tmp_path):
    grid = GridSpec(L=3.2, m=32)  # config says m=16
    write_snapshot(Field(grid, np.zeros(grid.shape)), tmp_path / "w.chf", t=0.0)
    data = base_config(initial={"kind": "file", "path": str(tmp_path / "w.chf")})
    with pytest.raises(ConfigError):
        run_simulation(parse_config(data), write_outputs=False)


def test_run_manufactured_matches_convergence_study_row():
    study = convergence_study(m_list=(16, 32))
    data = {
        "domain": {"L": 3.2},
        "grid": {"m": 16},
        "physics": {"eps": 0.1, "A": 1 / 16},
        "schedule": [{"dt": 0.25 * 0.2**2, "t_end": 0.32}],
        "initial": {"kind": "manufactured"},
    }
    result = run_simulation(parse_config(data), write_outputs=False)
    linf, l2 = result.manufactured_errors
    assert linf == pytest.approx(study.rows[0].error_linf, rel=1e-12)
    assert l2 == pytest.approx(study.rows[0].error_l2, rel=1e-12)


def test_cli_exit_codes(tmp_path):
    # 2: config trouble
    bad = tmp_path / "bad.yaml"
    bad.write_text("grid: {m: 16}\n")  # schedule missing
    assert main(["run", str(bad)]) == 2
    assert main(["run", str(tmp_path / "nope.yaml")]) == 2
    assert main(["verify", "all", "--trials", "0"]) == 2
    # 3: solver failure (impossible tolerance, one-iteration budget)
    hopeless = tmp_path / "hopeless.yaml"
    hopeless.write_text(yaml.safe_dump(base_config(
        solver={"max_iter": 1, "tol_rel": 1e-16, "tol_abs": 0.0},
        initial={"kind": "random", "seed": 1, "amplitude": 0.1},
        output={"dir": str(tmp_path / "h")},
    )))
    assert main(["run", str(hopeless)]) == 3


def test_verify_subcommand_writes_reports(tmp_path, capsys):
    rc = main(["verify", "symbols", "--out", str(tmp_path / "v")])
    assert rc == 0
    assert (tmp_path / "v" / "symbol_bound.csv").exists()
    out = capsys.readouterr().out
    assert "[ok]" in out


def test_converge_subcommand_csv(tmp_path, capsys):
    rc = main([
        "converge", "--m-list", "16,32", "--out", str(tmp_path / "c.csv"),
    ])
    # two levels stop short of the asymptotic range: the gate reports failure
    assert rc == 4
    text = (tmp_path / "c.csv").read_text()
    assert text.splitlines()[0] == "h,error_l2,rate_l2,error_linf,rate_linf"
    assert capsys.readouterr().out.startswith("h,error_l2")
