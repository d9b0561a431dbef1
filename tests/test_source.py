"""Static checks on the package source, with the stdlib ast module only.

Every top-level import of a module is used in it, every named function
is reached from something (its name appears somewhere in src/, tests/ or
bench/ besides its own def), and no kernel reads the rational views of a
matrix, a vector or a series.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "blocksew"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module):
    """(bound name, line) of each top-level import, ``__future__`` left out."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree: ast.Module) -> set:
    """Every name the module reads, string annotations such as ``-> "QVec"`` included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)
    return used


def test_every_top_level_import_is_used():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"unused imports: {unused}"


def test_only_linalg_and_jsonio_read_the_rational_views():
    # QMat.rows and QVec.data build Fractions on each read; kernels read nums and den
    readers = []
    for path in MODULES:
        if path.name in ("linalg.py", "jsonio.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("rows", "data"):
                readers.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not readers, f"rational views read outside linalg and jsonio: {readers}"


def test_only_series_jsonio_and_cli_read_the_series_view():
    # TruncSeries.terms builds Fractions on each read; kernels read nums and den
    readers = []
    for path in MODULES:
        if path.name in ("series.py", "jsonio.py", "cli.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "terms":
                readers.append(f"{path.name}:{node.lineno} .terms")
    assert not readers, f"series coefficient view read outside series, jsonio and cli: {readers}"


def test_every_named_function_is_referenced():
    words = Counter(
        word
        for d in ("src", "tests", "bench")
        for p in (ROOT / d).rglob("*.py")
        for word in re.findall(r"\w+", p.read_text(encoding="utf-8"))
    )
    unreferenced = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                # dunder methods are reached through the protocols they implement
                if name.startswith("__") and name.endswith("__"):
                    continue
                if words[name] < 2:
                    unreferenced.append(f"{path.name}:{node.lineno} {name}")
    assert not unreferenced, f"functions whose name appears only in their def: {unreferenced}"
