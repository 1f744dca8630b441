"""Every name a mergesim module imports is used in that module, every
top-level name it defines is read somewhere in the package, every method
and property of its classes is read somewhere in the package or the
benchmark, and every symbol the benchmark's probes wrap still exists.

A fold that moves the last reader of a name elsewhere tends to leave the
import, or the name itself, behind; this catches both with the standard
library's ast alone.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mergesim"


def unused_imports(source: str):
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    assert unused_imports("import math\nfrom typing import List, Optional\n"
                          "x: Optional[int] = math.pi\n") == ["List"]


def top_level_names(tree):
    """(name, defining statement) of each function, class and assigned name
    at the top level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def unread_names(sources):
    """"module:name" of each top-level name of `sources` (module -> text)
    that no expression reads outside the statement that defines it."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)]
    unread = []
    for module, tree in trees.items():
        for name, node in top_level_names(tree):
            own = {id(n) for n in ast.walk(node)}
            if not any(read.id == name and id(read) not in own
                       for read in reads):
                unread.append(f"{module}:{name}")
    return unread


def test_package_reads_every_name_it_defines():
    # A public symbol with no reader in src/ is a candidate for deletion.
    assert unread_names({path.stem: path.read_text()
                         for path in sorted(SRC.glob("*.py"))}) == []


def test_an_unread_name_is_found():
    sources = {"a": "LIMIT = 1\ndef f(n):\n    return f(n - 1)\n"
                    "def g():\n    return LIMIT\n",
               "b": "from .a import g\nclass C:\n    x = g()\n"}
    assert unread_names(sources) == ["a:f", "b:C"]


def unread_methods(sources, readers=()):
    """"module:Class.name" of each method or property, dunders aside, of a
    top-level class of `sources` (module -> text) whose name no attribute
    read in `sources` or in `readers` (more texts) takes outside its own
    definition.  Names are matched alone, whatever object they are read
    from."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = [node for tree in [*trees.values(), *map(ast.parse, readers)]
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)]
    unread = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or (
                        node.name.startswith("__")
                        and node.name.endswith("__")):
                    continue
                own = {id(n) for n in ast.walk(node)}
                if not any(read.attr == node.name and id(read) not in own
                           for read in reads):
                    unread.append(f"{module}:{cls.name}.{node.name}")
    return unread


def test_package_or_benchmark_reads_every_method_it_defines():
    # The benchmark's reads count: `rows` is read only by perfbench.
    assert unread_methods(
        {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))},
        [path.read_text() for path in sorted(ROOT.glob("perfbench/*.py"))]
    ) == []


def test_an_unread_method_is_found():
    sources = {"a": "class C:\n"
                    "    def used(self):\n        return self.spare\n"
                    "    def spare(self):\n        return self.spare()\n"
                    "    def alone(self):\n        return self.alone()\n"
                    "    @property\n    def size(self):\n        return 1\n"
                    "    def __len__(self):\n        return 0\n"
                    "def size():\n    return C().used()\n",
               "b": "class D:\n    def outside(self):\n        pass\n"}
    assert unread_methods(sources) == ["a:C.alone", "a:C.size", "b:D.outside"]
    assert unread_methods(sources, ["d.outside\nd.size\n"]) == ["a:C.alone"]


def test_every_benchmark_probe_resolves():
    # perfbench/spans.py wraps each probed symbol where its caller looks it
    # up, and reports a vanished one only as missing: a deleted or renamed
    # symbol should fail here instead.
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PROBES
    assert [p.target for p in spans.PROBES if spans._resolve(p) is None] == []
