"""The runtime depends on nothing outside the standard library, modules
import only from lower layers, every module uses what it imports, every
private module-level name is used (a private constant in its own module),
and no tuple is built from a generator."""

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


#: The package's modules in layers, lowest first. A module may import only
#: modules of earlier rows: none of its own row and none above it.
LAYERS = (
    ("errors",),
    ("padic",),
    ("radial",),
    ("norms", "operators"),
    ("oracle", "harness"),
    ("serialize",),
    ("cli",),
)


def _package_imports(path: Path) -> set[str]:
    """The package's modules that the file imports, by relative or absolute
    name (``from .x import``, ``from . import x``, ``ultraherz.x``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            dotted = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ["ultraherz"] if node.level else []
            base += node.module.split(".") if node.module else []
            dotted = [base + [alias.name] for alias in node.names]
        else:
            continue
        names.update(
            parts[1] for parts in dotted if parts[0] == "ultraherz" and len(parts) > 1
        )
    return names


def test_modules_import_only_from_lower_layers():
    """``__init__`` and ``__main__`` sit on top and are exempt."""
    row = {name: i for i, names in enumerate(LAYERS) for name in names}
    modules = [path for path in SOURCES if path.stem not in ("__init__", "__main__")]
    assert sorted(path.stem for path in modules) == sorted(row)
    upward = [
        f"{path.stem} imports {name}"
        for path in modules
        for name in sorted(_package_imports(path))
        if name in row and row[name] >= row[path.stem]
    ]
    assert upward == []


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


def _private_names(node: ast.stmt) -> list[str]:
    """Private names a module-level function, class or assignment defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [target.id for target in node.targets if isinstance(target, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        return []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _referenced_names(node: ast.stmt) -> set[str]:
    """Names the statement reads, as bare names or as attributes."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def test_every_private_module_level_name_is_referenced():
    """A private function, class or constant that no other statement under
    ``src/`` reads is dead code; a reference from inside its own definition
    (recursion) or from a doctest does not count."""
    statements = [
        (path, node, _referenced_names(node))
        for path in SOURCES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    unreferenced = [
        f"{path.name}:{node.lineno} {name}"
        for path, node, _ in statements
        for name in _private_names(node)
        if not any(name in names for _, other, names in statements if other is not node)
    ]
    assert unreferenced == []


def test_every_private_constant_is_read_in_its_own_module():
    """A private UPPER_CASE constant that only other modules read belongs
    next to its readers."""
    unread = []
    for path in SOURCES:
        body = ast.parse(path.read_text(encoding="utf-8")).body
        for node in body:
            for name in _private_names(node):
                if name.lstrip("_").isupper() and not any(
                    name in _referenced_names(other) for other in body if other is not node
                ):
                    unread.append(f"{path.name}:{node.lineno} {name}")
    assert unread == []


def _tuple_of_generator_calls(path: Path) -> list[str]:
    """``tuple(<generator expression>)`` calls in the file, as ``file:line``."""
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "tuple"
        and any(isinstance(arg, ast.GeneratorExp) for arg in node.args)
    ]


def test_no_tuple_is_built_from_a_generator():
    """Build tuples from a list (``tuple([...])``), never from a generator.

    CPython keeps freed small tuples on one freelist per length (up to 2000
    each), and only a full (generation 2) garbage collection empties them.
    ``tuple(<generator>)`` cannot know the length in advance: it allocates a
    guessed 10 slots and reallocates to the final length with
    ``_PyTuple_Resize``, so it never takes a tuple from the freelist of that
    length, while the tuple, once freed, goes onto it. Each call in a hot
    constructor so leaves one more free tuple behind, and the process's peak
    memory tracks how rarely full collections run rather than what the
    program holds. A tuple built from a list is allocated at its length and
    reuses a free one.
    """
    assert [entry for path in SOURCES for entry in _tuple_of_generator_calls(path)] == []


#: Functions that multiply a ``ppow(...)`` call directly, each with its
#: reason. Any other c * p**x goes through ``radial._times_power`` (a float)
#: or ``radial._power_row`` (an exact row), which keep a value that fits
#: where the power alone leaves the float range.
PLAIN_POWER_PRODUCTS = {
    "radial._times_power": "the kernel's own fast path",
    "radial._running_parts": "outer-tail terms; |S_j| past the float range takes the kernel",
    "operators._image": "the hot image loop; a product that is not normal takes the kernel",
    "operators._inner_bracket": "p**-min(s_f, s) <= 1 times an expm1 factor below 1",
    "norms._herz_terms": "the hot Herz loop; a term that is not normal takes the kernel",
    "norms._mixed_inner_sum": "left for ROADMAP direction 3",
    "norms._cmo_envelope_terms": "left for ROADMAP direction 3",
    "oracle._scaled": "the oracle shares no helper with the library and only refuses",
    "oracle._outer_bias": "the oracle shares no helper with the library",
}


def _plain_power_products(path: Path) -> set[str]:
    """``module.function`` for each function of the file, nested ones by
    their own name, in which a ``ppow(...)`` call is an operand of ``*``."""
    found = set()

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mult):
            operands = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.value,)
            if any(
                isinstance(x, ast.Call) and isinstance(x.func, ast.Name) and x.func.id == "ppow"
                for x in operands
            ):
                found.add(f"{path.stem}.{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_every_plain_power_product_is_pinned():
    """A new plain product ``c * ppow(p, x)`` fails here until it goes
    through the kernel or joins ``PLAIN_POWER_PRODUCTS`` with its reason."""
    found = set().union(*map(_plain_power_products, SOURCES))
    assert sorted(found) == sorted(PLAIN_POWER_PRODUCTS)
