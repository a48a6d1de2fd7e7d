"""Every output is a new file: a re-run never truncates an earlier output in place.

The checks read file identities (hard links) and bytes, not timings, so they
hold on any filesystem that supports hard links.
"""

import ast
import os
from pathlib import Path

import yaml

import chfd.io
from chfd.cli import main

RUN_OUTPUTS = ("energy.csv", "run.yaml", "snap_000.chf", "snap_000.pgm",
               "snap_001.chf", "snap_001.pgm")


def run_in(cwd: Path, seed: int, monkeypatch) -> Path:
    """`chfd run` of a small config with its outputs in ``cwd/out``; returns that directory.

    The output dir is relative, so ``run.yaml`` is the same in every ``cwd``."""
    cwd.mkdir(exist_ok=True)
    config = cwd / f"seed{seed}.yaml"
    config.write_text(yaml.safe_dump({
        "domain": {"L": 3.2},
        "grid": {"m": 16},
        "physics": {"eps": 0.1},
        "schedule": [{"dt": 0.01, "t_end": 0.03}],
        "initial": {"kind": "random", "seed": seed, "amplitude": 0.1},
        "output": {"dir": "out", "snapshot_times": [0.0, 0.02], "formats": ["chf", "pgm"]},
    }))
    monkeypatch.chdir(cwd)
    assert main(["run", config.name]) == 0
    return cwd / "out"


def link_aside(out: Path, names, side: Path) -> dict[str, bytes]:
    """Hard-link each output to ``side/<name>``; returns the bytes they hold."""
    side.mkdir()
    for name in names:
        os.link(out / name, side / name)
    return {name: (side / name).read_bytes() for name in names}


def assert_new_files(out: Path, side: Path, fresh: Path, old: dict[str, bytes]) -> None:
    """Each link keeps its old bytes, and each output is a new file that matches
    the same run into a fresh directory."""
    for name, data in old.items():
        assert (side / name).read_bytes() == data, name
        assert not (side / name).samefile(out / name), name
        assert (out / name).read_bytes() == (fresh / name).read_bytes(), name


def test_a_rerun_writes_new_files_and_leaves_links_to_the_old(tmp_path, capsys, monkeypatch):
    out = run_in(tmp_path / "a", 1, monkeypatch)
    old = link_aside(out, RUN_OUTPUTS, tmp_path / "side")
    assert run_in(tmp_path / "a", 2, monkeypatch) == out
    fresh = run_in(tmp_path / "b", 2, monkeypatch)
    assert_new_files(out, tmp_path / "side", fresh, old)
    # the seeds differ in every output, so a link that followed would show it
    assert all((out / name).read_bytes() != data for name, data in old.items())


def test_a_verify_rerun_writes_a_new_csv(tmp_path, capsys):
    out, fresh = tmp_path / "v", tmp_path / "fresh"
    assert main(["verify", "symbols", "--out", str(out)]) == 0
    old = link_aside(out, ["symbol_bound.csv"], tmp_path / "side")
    assert main(["verify", "symbols", "--out", str(out)]) == 0
    assert main(["verify", "symbols", "--out", str(fresh)]) == 0
    assert_new_files(out, tmp_path / "side", fresh, old)


def _opens_to_write(call: ast.Call) -> bool:
    """A call named ``open`` whose mode writes, or whose mode cannot be read from
    the source (``os.open``'s flags among them)."""
    func = call.func
    if not (isinstance(func, ast.Name) and func.id == "open"
            or isinstance(func, ast.Attribute) and func.attr == "open"):
        return False
    # open(path, mode) and io.open(path, mode), but Path.open(mode)
    at = 1 if isinstance(func, ast.Name) or ast.unparse(func) == "io.open" else 0
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[at] if len(call.args) > at else None)
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(set(mode.value) & set("wax+"))
    return True


def test_only_create_file_opens_a_file_to_write():
    """chfd.io.create_file is the package's one way to write a file: no other code
    calls open(...) with a write mode, write_text or write_bytes."""
    pkg = Path(chfd.io.__file__).parent
    calls = []
    for path in sorted(pkg.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = set()
        if path.name == "io.py":
            helper = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                          and node.name == "create_file")
            exempt = {id(node) for node in ast.walk(helper)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in exempt:
                continue
            name = ast.unparse(node.func)
            if name.split(".")[-1] in ("write_text", "write_bytes") or _opens_to_write(node):
                calls.append(f"{path.name}:{node.lineno} {name}(...)")
    assert calls == []
