"""Every module of the package and every script uses each name it imports."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SOURCES = sorted((REPO / "src" / "chfd").glob("*.py")) + sorted((REPO / "scripts").glob("*.py"))

# (file relative to the repository, name): why the import stays unused
ALLOWED = {
    ("src/chfd/cli.py", "ghost_init"):
        "perfbench's traced mode patches chfd.cli.ghost_init (perfbench/run.py LAYERS)",
}


def unused_imports(path: Path) -> set[str]:
    """Names that ``path`` imports and never reads, nor exports in ``__all__``."""
    tree = ast.parse(path.read_text())
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_the_guard_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport sys as system\nfrom math import pi, tau\n"
                      "__all__ = ['tau']\nprint(system.argv, pi)\n")
    assert unused_imports(module) == {"os"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(REPO)))
def test_no_unused_imports(path):
    rel = str(path.relative_to(REPO))
    allowed = {name for (file, name) in ALLOWED if file == rel}
    assert unused_imports(path) == allowed
