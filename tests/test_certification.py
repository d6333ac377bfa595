"""Static checks of the library source.

Certification must not rely on assert, which python -O strips; the library
has no unused import or private name, and imports only the standard library.
"""

import ast
import sys
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


def test_library_imports_only_the_standard_library():
    # The package declares no dependencies: every import is a stdlib
    # module, __future__, or a relative import from the package itself.
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "__future__" and top not in sys.stdlib_module_names:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert len(SOURCES) > 5
    assert found == []


def _private_definitions(tree):
    """(name, first line, last line) of each module-level _name definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def test_library_has_no_unused_private_name():
    # A private helper, class or constant that no line outside its own
    # definition refers to is dead code, such as one a rewrite orphaned.
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    refs = []
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((fname, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((fname, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                refs.extend((fname, node.lineno, alias.name) for alias in node.names)
    found = [
        f"{fname}:{first} {name}"
        for fname, tree in trees.items()
        for name, first, last in _private_definitions(tree)
        if not any(
            ref == name and not (where == fname and first <= line <= last)
            for where, line, ref in refs
        )
    ]
    assert len(SOURCES) > 5
    assert found == []
