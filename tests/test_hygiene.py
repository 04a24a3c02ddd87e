"""Source hygiene checks that need no linter: every name a module under
``src/ccr`` imports is used in it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ccr"
MODULES = sorted(SRC.rglob("*.py"))


def imported_names(tree):
    """Each name an import binds at any level of ``tree``, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """The names ``tree`` reads, and those its ``__all__`` exports.  A name
    read only inside a quoted annotation is not seen: the modules defer
    their annotations instead of quoting them."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return used


def test_the_scan_sees_every_module():
    names = {p.relative_to(SRC).as_posix() for p in MODULES}
    assert {"core.py", "agent.py", "replicas/composite.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = used_names(tree)
    unused = [f"line {line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert unused == []


def test_an_unused_import_is_caught():
    tree = ast.parse("import os.path\nfrom typing import List, Tuple\nx: List[int] = []\n")
    used = used_names(tree)
    assert [n for n, _ in imported_names(tree) if n not in used] == ["os", "Tuple"]
