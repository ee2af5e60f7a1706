"""Every name a hornsing module imports is used in that module, and every
module-level private function or class is referenced by some module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hornsing"


def unused_imports(source):
    """Names bound by import statements of source and never read in it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_detects_a_stray_name():
    source = "import math\nfrom fractions import Fraction\nfrom os import path as p\nx = math.pi\n"
    assert unused_imports(source) == [(2, "Fraction"), (3, "p")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _names_read(node):
    """Names and attribute names read under node, and names it imports from."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (alias.name for alias in n.names)


def dead_helpers(sources):
    """(module, line, name) of each module-level private function or class in
    sources, a {module: source} dict, that no module reads outside its own body."""
    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            names = set(_names_read(node))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((module, node.lineno, node.name))
                names.discard(node.name)
            read |= names
    return [entry for entry in defined if entry[2] not in read]


def test_dead_helpers_detects_an_unread_helper():
    a = "def _used():\n    pass\n\ndef _dead():\n    return _dead()\n\nclass _Gone:\n    pass\n"
    b = "from a import _used\n\ndef __getattr__(name):\n    return _used\n"
    assert dead_helpers({"a": a, "b": b}) == [("a", 4, "_dead"), ("a", 7, "_Gone")]


def test_no_dead_helpers():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert dead_helpers(sources) == []
