"""Every name a mergesim module imports is used in that module, and every
symbol the benchmark's probes wrap still exists.

A fold that moves the last reader of a name elsewhere tends to leave the
import behind; this catches it with the standard library's ast alone.
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
