"""The package exports only what runs: every public name of ``maslov`` is
used by another module of the package, by the acceptance suite or by the
benchmark, or is a span the benchmark traces.  A name only the unit tests
call belongs in tests/oracles.py.  No module of src/maslov or tests/
imports a name it never uses."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

import maslov

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ([p for p in (ROOT / "src" / "maslov").glob("*.py")
            if p.name != "__init__.py"]
           + [ROOT / "tests" / "test_acceptance.py"]
           + sorted((ROOT / "bench").glob("*.py")))


def _referenced():
    """Every Name and Attribute in SOURCES, and each part of the span
    targets of bench/spans.py."""
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for _, _, attr in spans.TARGETS:
        names.update(attr.split("."))
    return names


REFERENCED = _referenced()


@pytest.mark.parametrize("name", [
    name for name in maslov.__all__
    if not inspect.ismodule(getattr(maslov, name))])
def test_public_name_is_used(name):
    assert name in REFERENCED


IMPORTING = ([p for p in (ROOT / "src" / "maslov").glob("*.py")
              if p.name != "__init__.py"]
             + list((ROOT / "tests").glob("*.py")))


@pytest.mark.parametrize("path", sorted(IMPORTING),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_module_uses_every_name_it_imports(path):
    # from __future__ imports and lines marked "noqa: F401" are exempt
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, str(path))
    imported = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                and "# noqa: F401" not in lines[node.end_lineno - 1]):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used) == []
