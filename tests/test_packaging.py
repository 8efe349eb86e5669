"""The runtime depends on nothing outside the standard library."""

from __future__ import annotations

import ast
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
