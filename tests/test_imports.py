"""No module in ``src/fedasync`` imports a name it does not use.

Each imported name must be read in its module, be listed in the module's
``__all__``, or carry a comment on its import line that names the file
outside the package that reads it (such as ``bench/tracing.py``, which
patches a function in every module that imported it). A name left behind
by a refactor fails here.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedasync"
OUTSIDE_READER = re.compile(r"#.*\b(?:bench|tests|probes)/\w+\.py")


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _imports(tree: ast.Module):
    """``(bound name, line)`` of every name the module imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno


def _stray(path: Path) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = read | _exported(tree)
    return [
        f"{path.name}:{line}: {name}"
        for name, line in _imports(tree)
        if name not in kept and not OUTSIDE_READER.search(lines[line - 1])
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _stray(path) == []


def test_a_stray_import_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from a import b, c  # not used here; bench/tracing.py patches c\n"
        "from d import e as f, g\n"
        "__all__ = ['g']\n"
        "print(sys.argv)\n"
    )
    assert _stray(module) == ["m.py:2: os", "m.py:4: f"]
