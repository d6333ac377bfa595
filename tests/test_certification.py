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


# Imported only to be re-exported: sephash.search.CertificationError stays.
# __init__.py imports the public names and is skipped as a whole.
REEXPORTS = {("search.py", "CertificationError")}


def test_library_has_no_unused_import():
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used and (path.name, name) not in REEXPORTS:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert len(SOURCES) > 5
    assert found == []
