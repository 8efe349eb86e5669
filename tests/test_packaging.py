"""The runtime depends on nothing outside the standard library, and every
module uses what it imports."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ultraherz").glob("*.py"))


def _absolute_imports(path: Path) -> set[str]:
    """Top-level names of every module the file imports by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_package_imports_only_the_standard_library():
    assert SOURCES
    imported = set().union(*map(_absolute_imports, SOURCES))
    assert sorted(imported - sys.stdlib_module_names) == []


def _unused_imports(path: Path) -> list[str]:
    """Names the file imports but never uses, in code or on a ``>>>`` line.

    A name counts as used where it appears as a name in the module's code or
    as a word on a doctest example line; ``from __future__`` is not a name.
    """
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for line in text.splitlines():
        if line.lstrip().startswith((">>>", "...")):
            used.update(re.findall(r"[A-Za-z_]\w*", line))
    return sorted(
        f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used
    )


def test_every_module_uses_its_imports():
    # __init__ re-exports what it imports through __all__
    modules = [path for path in SOURCES if path.name != "__init__.py"]
    assert modules
    assert [entry for path in modules for entry in _unused_imports(path)] == []
