"""Source hygiene checks that need no linter: every name a module under
``src/ccr`` imports is used in it, no replica kind re-enters the sweep, and
the agent waits on a link's writes only in that link's read loop."""

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


def sweep_imports(tree):
    """The names of ``core``'s sweep that ``tree`` imports from it."""
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in ("core", "ccr.core")
            for alias in node.names if alias.name in ("transform_patch", "_sweep")]


@pytest.mark.parametrize("path", sorted((SRC / "replicas").glob("*.py")), ids=lambda p: p.name)
def test_no_replica_kind_reenters_the_sweep(path):
    """The sweep has one home, ``ccr.core``: a composite routes each op to
    its component's ``transform_prim`` and never sweeps a patch itself."""
    assert sweep_imports(ast.parse(path.read_text(), str(path))) == []


def test_a_sweep_import_is_caught():
    tree = ast.parse("from ..core import ApplyError, transform_patch\n"
                     "from ccr.core import _sweep\nfrom .base import transform_patch\n")
    assert sweep_imports(tree) == ["transform_patch", "_sweep"]


def test_agent_waits_on_a_link_only_in_its_read_loop():
    """A peer that stops reading slows only its own link: the one ``drain``
    in the agent is in ``Agent._read_loop``, and ``_send`` and
    ``_handle_batch`` are plain functions."""
    tree = ast.parse((SRC / "agent.py").read_text())
    [agent] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Agent"]
    methods = {f.name: f for f in agent.body
               if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}

    def drains(node):
        return sum(isinstance(n, ast.Attribute) and n.attr == "drain" for n in ast.walk(node))

    assert drains(tree) == drains(methods["_read_loop"]) == 1
    assert type(methods["_send"]) is type(methods["_handle_batch"]) is ast.FunctionDef
