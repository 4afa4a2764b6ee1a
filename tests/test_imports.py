"""The runtime dependency is numpy alone: every import in the package names
the standard library, numpy or the package itself."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "startraj"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "startraj"}


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
