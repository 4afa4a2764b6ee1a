"""The runtime dependency is numpy alone: every import in the package names
the standard library, numpy or the package itself. The benchmark's trace
points name attributes that exist."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "startraj"
SPANS = PACKAGE.parent.parent / "perfbench" / "spans.py"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "startraj"}

# run in a fresh interpreter: load perfbench/spans.py by path and resolve
# each (module, attribute) of its TRACE_POINTS the way Tracer.install does
_RESOLVE = """
import importlib, importlib.util, json, sys
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
missing = []
for module, attr, _ in spans.TRACE_POINTS:
    tensor = importlib.import_module("startraj.tensor")
    owner = tensor.Tensor if module == "Tensor" else importlib.import_module("startraj." + module)
    if not callable(getattr(owner, attr, None)):
        missing.append(module + "." + attr)
print(json.dumps([len(spans.TRACE_POINTS), missing]))
"""


def _imported_roots(path):
    """(line, top-level module) of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_package(path):
    foreign = [(line, root) for line, root in _imported_roots(path) if root not in ALLOWED]
    assert not foreign, f"{path.name} imports outside stdlib and numpy: {foreign}"


def test_package_found():
    assert (PACKAGE / "__init__.py").is_file()


def test_benchmark_trace_points_resolve():
    # a renamed function or import would otherwise fail only traced
    # benchmark runs
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", _RESOLVE, str(SPANS)], env=env,
                         capture_output=True, text=True, check=True)
    count, missing = json.loads(run.stdout)
    assert count > 0 and missing == []
