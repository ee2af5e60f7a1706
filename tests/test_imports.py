"""Every name a hornsing module imports is used in that module, every
module-level private function or class is referenced by some module, every
public function, class or method has a caller or a stated reason, and no
class is a record written by hand where collections.namedtuple would do."""

import ast
import importlib.util
import subprocess
import sys
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


def test_importing_hornsing_builds_no_dataclass():
    """Importing every hornsing module in a fresh interpreter leaves the
    dataclasses module unloaded; building dataclasses was once the largest
    hornsing share of set-up time."""
    modules = ["hornsing." + path.stem for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"]
    code = "import sys\nfor name in %r:\n    __import__(name)\nprint(*sys.modules)" % modules
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=SRC.parent, capture_output=True, text=True, check=True, timeout=60,
    )
    loaded = set(out.stdout.split())
    assert set(modules) <= loaded
    assert "dataclasses" not in loaded


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


def _stores_an_argument(stmt, self_name, params):
    """True when stmt is self.a = b or self.a = tuple(b), b one of params."""
    if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
        return False
    target, value = stmt.targets[0], stmt.value
    if (
        isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
        and value.func.id == "tuple" and len(value.args) == 1 and not value.keywords
    ):
        value = value.args[0]
    return (
        isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
        and target.value.id == self_name and isinstance(value, ast.Name) and value.id in params
    )


def hand_written_records(source):
    """(line, name) of each module-level class of source whose __init__ only
    stores its own arguments, as self.a = b or self.a = tuple(b): a record
    that collections.namedtuple would write."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for sub in node.body:
            if isinstance(sub, ast.FunctionDef) and sub.name == "__init__":
                self_name, *params = [a.arg for a in sub.args.args + sub.args.kwonlyargs]
                if all(_stores_an_argument(stmt, self_name, params) for stmt in sub.body):
                    out.append((node.lineno, node.name))
    return out


def test_hand_written_records_detects_a_storing_init():
    source = (
        "class Pair:\n    def __init__(self, a, b):\n        self.a = a\n"
        "        self.rest = tuple(b)\n\n"
        "class Checked:\n    def __init__(self, a):\n        self.a = int(a)\n\n"
        "class Filled:\n    def __init__(self, a):\n        self.a = a\n        self.b = 0\n\n"
        "class Failed(Exception):\n    def __init__(self, msg, n):\n"
        "        super().__init__(msg)\n        self.n = n\n\n"
        "class Named(namedtuple('Named', 'a b')):\n    __slots__ = ()\n"
    )
    assert hand_written_records(source) == [(1, "Pair")]


def test_no_hand_written_records():
    found = [
        (path.name, *record)
        for path in sorted(SRC.glob("*.py"))
        for record in hand_written_records(path.read_text())
    ]
    assert found == []


def _reads(node, owner=None):
    """The reads under node: ("name", n) for a bare name or a name imported
    from a module, ("attr", n) for an attribute read .n, and ("cls", C, n)
    for C.n, or for cls.n inside the body of class C (owner, when node is
    inside it)."""
    if isinstance(node, ast.ClassDef):
        owner = node.name
    if isinstance(node, ast.Name):
        yield "name", node.id
    elif isinstance(node, ast.ImportFrom):
        yield from (("name", alias.name) for alias in node.names)
    elif isinstance(node, ast.Attribute):
        yield "attr", node.attr
        if isinstance(node.value, ast.Name):
            base = node.value.id
            yield "cls", owner if base == "cls" else base, node.attr
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, owner)


def _public_definitions(tree):
    """(qualified name, node, owner, keys) of each public module-level
    function or class of tree, and of each public method of its module-level
    classes; owner is the class of a method, and a read of any of keys (see
    _reads) is a call of the definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, None, [("name", node.name), ("attr", node.name)]
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    bound = any(
                        isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
                        for d in sub.decorator_list
                    )
                    key = ("cls", node.name, sub.name) if bound else ("attr", sub.name)
                    yield node.name + "." + sub.name, sub, node.name, [key]


def names_without_caller(sources, readers, extra_reads=()):
    """(module, line, qualified name) of each public definition in sources, a
    {module: source} dict, that no source in readers reads outside its own
    body; extra_reads are qualified names that count as read.

    A function or class is read by its bare name, an attribute of that name
    or an import of it.  A method is read only by an attribute read .name,
    and a classmethod or staticmethod only as Class.name, or as cls.name
    inside its own class.  Blind spot: the receiver of obj.name is not
    resolved, so a method counts as read when a method or attribute of
    another class with the same name is read; Curve.vars, for one, would
    pass on the reads of the MPoly attribute vars alone.
    """
    reads = Counter()
    for source in readers:
        reads.update(_reads(ast.parse(source)))
    out = []
    for module, source in sources.items():
        for qualified, node, owner, keys in _public_definitions(ast.parse(source)):
            own = Counter(_reads(node, owner))
            if qualified not in extra_reads and sum(reads[k] - own[k] for k in keys) <= 0:
                out.append((module, node.lineno, qualified))
    return out


def test_names_without_caller_detects_an_unread_name():
    a = (
        "def used():\n    pass\n\ndef dead(n):\n    return dead(n - 1)\n\n"
        "class Box:\n    def open(self):\n        pass\n\n    def shut(self):\n        pass\n"
    )
    b = "from a import used, Box\n\nBox().open()\n"
    assert names_without_caller({"a": a}, [a, b]) == [("a", 4, "dead"), ("a", 11, "Box.shut")]
    assert names_without_caller({"a": a}, [a, b], ["Box.shut"]) == [("a", 4, "dead")]
    # a method read only by a bare name, and a classmethod read only through
    # another class, are unread; cls.name inside the class is a read
    c = (
        "class Box:\n    def open(self):\n        pass\n\n"
        "    @classmethod\n    def make(cls):\n        return cls.empty()\n\n"
        "    @staticmethod\n    def empty():\n        pass\n\n"
        "class Other:\n    @classmethod\n    def make(cls):\n        pass\n"
    )
    d = "from c import Box, Other\n\nopen('f')\nOther.make()\n"
    assert names_without_caller({"c": c}, [c, d]) == [("c", 2, "Box.open"), ("c", 6, "Box.make")]


# Public names that nothing in src/ or perfbench/ calls, each with its reason:
# what the planned hornsing command (ROADMAP item 1) will call it for.  Test
# references live in the tests, not in src/.
NO_CALLER = {
    "curves.nickelian_j": "CLI: the j-invariant of the Nickelian family (hornsing ising)",
    "exprio.format_series_text": "CLI: writes series files",
    "exprio.format_spec_text": "CLI: writes spec files",
    "ising.NickelianIndex": "CLI: indexes the Nickelian family (hornsing ising)",
    "ising.isotropic_location_allowed": "CLI: the isotropic index filter (hornsing ising)",
    "ising.nickelian_curve": "CLI: Nickelian curves in exact and symbolic mode (hornsing ising)",
    "ising.nickelian_isotropic": "CLI: the isotropic Nickelian member (hornsing ising)",
    "odeguess.UniODE.to_text": "CLI: writes ODE files",
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
    targets = [t for layer in layers.LAYERS for t in layer.targets]
    unread = {
        "%s.%s" % (module, name)
        for module, _, name in names_without_caller(sources, list(sources.values()) + bench, targets)
    }
    assert sorted(unread - set(NO_CALLER)) == []
    # an entry whose name has gained a caller, or is gone, is stale
    assert sorted(set(NO_CALLER) - unread) == []
