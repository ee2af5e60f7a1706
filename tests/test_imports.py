"""Every name a hornsing module imports is used in that module, every
module-level private function or class is referenced by some module, and
every public function, class or method has a caller or a stated reason."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hornsing"


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


def _public_definitions(tree):
    """(qualified name, node) of each public module-level function or class of
    tree, and of each public method of its module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield node.name + "." + sub.name, sub


def names_without_caller(sources, readers, extra_reads=()):
    """(module, line, qualified name) of each public definition in sources, a
    {module: source} dict, whose name no source in readers reads outside its
    own body; extra_reads are names that count as read."""
    reads = Counter(extra_reads)
    for source in readers:
        reads.update(_names_read(ast.parse(source)))
    out = []
    for module, source in sources.items():
        for qualified, node in _public_definitions(ast.parse(source)):
            name = qualified.rsplit(".", 1)[-1]
            if reads[name] <= sum(n == name for n in _names_read(node)):
                out.append((module, node.lineno, qualified))
    return out


def test_names_without_caller_detects_an_unread_name():
    a = (
        "def used():\n    pass\n\ndef dead(n):\n    return dead(n - 1)\n\n"
        "class Box:\n    def open(self):\n        pass\n\n    def shut(self):\n        pass\n"
    )
    b = "from a import used, Box\n\nBox().open()\n"
    assert names_without_caller({"a": a}, [a, b]) == [("a", 4, "dead"), ("a", 11, "Box.shut")]
    assert names_without_caller({"a": a}, [a, b], ["shut"]) == [("a", 4, "dead")]


# Public names that nothing in src/ or perfbench/ calls, each with its reason:
# "CLI" for what the planned hornsing command (ROADMAP item 1) will call, or
# "test reference" for what the tests use as an oracle.
NO_CALLER = {
    "curves.nickelian_j": "CLI: the j-invariant of the Nickelian family (hornsing ising)",
    "exact.solve_linear": "test reference: _ref_interp_int solves its systems with it",
    "exprio.format_series_text": "CLI: writes series files",
    "exprio.format_spec_text": "CLI: writes spec files",
    "exprio.print_canonical": "CLI: prints canonical polynomials",
    "ising.NickelianIndex": "CLI: indexes the Nickelian family (hornsing ising)",
    "ising.isotropic_location_allowed": "CLI: the isotropic index filter (hornsing ising)",
    "ising.nickelian_curve": "CLI: Nickelian curves in exact and symbolic mode (hornsing ising)",
    "ising.nickelian_isotropic": "CLI: the isotropic Nickelian member (hornsing ising)",
    "odeguess.UniODE.to_text": "CLI: writes ODE files",
    "odeguess.local_basis": "test reference: the L2 and C3 symmetric-square checks",
    "series.expand_spec": "CLI: expands formula specs (hornsing guess)",
    "series.uniseries_from_entries": "CLI: reads univariate series files (hornsing guess)",
    "theta.ThetaOp.to_text": "CLI: writes operator files",
    "theta.annihilates": "CLI: checks a series against an operator system",
}


def test_no_public_name_without_caller():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    bench = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    spec = importlib.util.spec_from_file_location("layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    targets = [t.rsplit(".", 1)[-1] for layer in layers.LAYERS for t in layer.targets]
    unread = {
        "%s.%s" % (module, name)
        for module, _, name in names_without_caller(sources, list(sources.values()) + bench, targets)
    }
    assert sorted(unread - set(NO_CALLER)) == []
    # an entry whose name has gained a caller, or is gone, is stale
    assert sorted(set(NO_CALLER) - unread) == []
