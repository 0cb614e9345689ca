"""A small linter over `src/lrpath`, built on the standard `ast` module.

It fails on an import that its module never uses and on a private
module-level name (`_x`) that nothing in the package refers to: both are
what a deletion leaves behind.  It also fails on an `except` clause that
catches a built-in error a bug raises (`TypeError`, `KeyError`, ...):
such a clause relabels the bug as bad input.  Input is checked by the
readers of `documents`, which raise SchemaMismatch, and `documents` is the
one module that imports `json` or defines a `json_*` reader.  `data` is
the bottom layer: of the package it imports only `errors`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lrpath"
MODULES = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _used_names(tree: ast.AST) -> set[str]:
    """Names a module uses unqualified or lists in `__all__`."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def _imports(tree: ast.AST) -> list[tuple[str, int]]:
    """(bound name, line) of every import except `from __future__`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.append(((alias.asname or alias.name).split(".")[0], node.lineno))
    return out


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        out.extend((n, node.lineno) for n in names if n.startswith("_") and not n.startswith("__"))
    return out


def _references(tree: ast.AST) -> set[str]:
    """Names a module reads or imports from another module of the package."""
    refs = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    refs |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    refs |= {
        alias.name
        for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom)
        for alias in n.names
    }
    return refs


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_unused_imports(module):
    tree = MODULES[module]
    used = _used_names(tree)
    unused = [f"{module}:{line} {name}" for name, line in _imports(tree) if name not in used]
    assert not unused, f"unused imports: {unused}"


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_unreferenced_private_names(module):
    refs = set().union(*(_references(tree) for tree in MODULES.values()))
    dead = [
        f"{module}:{line} {name}"
        for name, line in _private_definitions(MODULES[module])
        if name not in refs
    ]
    assert not dead, f"private names that nothing refers to: {dead}"


CATCH_ALL = {"AttributeError", "LookupError", "KeyError", "IndexError", "TypeError"}


def _caught_names(handler: ast.ExceptHandler) -> set[str]:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.id if isinstance(t, ast.Name) else getattr(t, "attr", None) for t in types}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_catch_all_except(module):
    found = [
        f"{module}:{node.lineno} {sorted(_caught_names(node) & CATCH_ALL)}"
        for node in ast.walk(MODULES[module])
        if isinstance(node, ast.ExceptHandler)
        and (node.type is None or _caught_names(node) & CATCH_ALL)
    ]
    assert not found, f"except clauses that catch what a bug raises: {found}"


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"documents.py"}))
def test_json_is_read_and_written_in_documents_only(module):
    found = []
    for node in ast.walk(MODULES[module]):
        if isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported = [node.module or ""]
        else:
            imported = []
        if any(name.split(".")[0] == "json" for name in imported):
            found.append(f"{module}:{node.lineno} imports json")
        if isinstance(node, ast.FunctionDef) and node.name.startswith("json_"):
            found.append(f"{module}:{node.lineno} defines {node.name}")
    assert not found, f"JSON handled outside documents.py: {found}"


def _package_imports(tree: ast.AST) -> list[tuple[str, int]]:
    """(module, line) of every import from lrpath: the module's name, or
    "lrpath" for the package itself, whose `__init__` imports the rest."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "lrpath" + (f".{node.module}" if node.module else "") if node.level else node.module
            targets = [f"lrpath.{a.name}" for a in node.names] if base == "lrpath" else [base]
        else:
            continue
        for target in targets:
            head, _, rest = target.partition(".")
            if head == "lrpath":
                out.append((rest.split(".")[0] or "lrpath", node.lineno))
    return out


def test_data_is_the_bottom_layer():
    # data imports no other module of the package, so modules that build
    # on it can grow without an import cycle
    found = [f"data.py:{line} imports {name}" for name, line in _package_imports(MODULES["data.py"])
             if name != "errors"]
    assert not found, f"data.py imports more of lrpath than errors: {found}"
