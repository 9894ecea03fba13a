"""Rules on the package source itself."""
import ast
from pathlib import Path

import cubiclat

SOURCES = sorted(Path(cubiclat.__file__).parent.glob("*.py"))


def test_package_source_has_no_assert():
    # python -O strips assert statements, so a check that carries weight
    # must raise explicitly
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found
