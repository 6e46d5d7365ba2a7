"""Every name a qfisher module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qfisher"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads, leaving out
    `from __future__` imports and lines marked `# noqa`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_guard_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport sys  # noqa\nimport math\nmath.pi\n")
    assert _unused_imports(source) == [(2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text()) == []
