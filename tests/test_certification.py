"""Certification must not rely on assert, which python -O strips."""

import ast
from pathlib import Path

import sephash

SOURCES = sorted(Path(sephash.__file__).resolve().parent.glob("*.py"))


def test_library_has_no_assert():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 5
    assert found == []
