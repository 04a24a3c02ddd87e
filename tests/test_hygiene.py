"""Source hygiene checks that need no linter: every name a module under
``src/ccr`` imports is used in it, every parameter a function takes is read
in it, no module draws from ``random``'s shared generator, no replica kind
re-enters the sweep, the kind registry loads kinds and ``json`` only on
first use, and the agent waits on a link's writes only in that link's read
loop."""

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


def unread_params(tree, skip=frozenset()):
    """Each parameter of a function in ``tree`` that its body never reads,
    as ``(qualified name, parameter)``; ``self`` and ``cls`` are not
    counted, nor are methods named in ``skip``, whatever their class."""
    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if not (in_class and child.name in skip):
                    a = child.args
                    read = {n.id for stmt in child.body for n in ast.walk(stmt)
                            if isinstance(n, ast.Name)}
                    for arg in a.posonlyargs + a.args + a.kwonlyargs + [
                            x for x in (a.vararg, a.kwarg) if x is not None]:
                        if arg.arg not in read | {"self", "cls"}:
                            yield name, arg.arg
                yield from walk(child, f"{name}.", False)
            else:
                yield from walk(child, prefix, in_class)

    return walk(tree, "", False)


# A method of the kind interface takes what every kind is handed, whether
# or not one kind reads it.
REPLICA_METHODS = frozenset(
    f.name for cls in ast.parse((SRC / "replicas" / "base.py").read_text()).body
    if isinstance(cls, ast.ClassDef) and cls.name == "ReplicaType"
    for f in cls.body if isinstance(f, ast.FunctionDef))

UNREAD_ALLOWED = {
    # Criterion 5 calls transform_patch(rt, d, p, q) positionally, and the
    # benchmark's tracer reads the patches as the third and fourth arguments.
    ("core.py", "transform_patch", "state"),
    # A map routes every key to one component; a tuple reads its slot.
    ("replicas/composite.py", "MapType.component_at", "key"),
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_unread_params(path):
    """No argument that nothing reads."""
    rel = path.relative_to(SRC).as_posix()
    unread = unread_params(ast.parse(path.read_text(), str(path)), REPLICA_METHODS)
    assert [u for u in unread if (rel, *u) not in UNREAD_ALLOWED] == []


def test_an_unread_param_is_caught():
    tree = ast.parse("def f(a, b, *c, d=1, **e):\n    return a + d\n"
                     "class K:\n    def m(self, x, y):\n        def g(z):\n"
                     "            return x\n        return g\n"
                     "    def apply(self, state, op):\n        pass\n")
    assert list(unread_params(tree, {"apply"})) == [
        ("f", "b"), ("f", "c"), ("f", "e"), ("K.m", "y"), ("K.m.g", "z")]
    assert {"apply", "transform_prim", "draw_intent"} <= REPLICA_METHODS


def shared_random_draws(tree):
    """Each draw ``tree`` makes from ``random``'s module-level generator,
    with its line: a call of ``random.<draw>`` or of a draw imported from
    ``random``.  Only building a ``Random`` is allowed, so that every draw
    comes from a seeded stream."""
    modules, draws = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "random"}
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            draws |= {a.asname or a.name for a in node.names if a.name != "Random"}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                and f.value.id in modules and f.attr != "Random":
            yield f"random.{f.attr}", node.lineno
        elif isinstance(f, ast.Name) and f.id in draws:
            yield f.id, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_shared_random_draws(path):
    """Every trial and property check replays from its seed only if each
    draw comes from a seeded ``random.Random`` (the simulator's ``:plan``
    and ``:net`` streams, or an rng passed in)."""
    assert list(shared_random_draws(ast.parse(path.read_text(), str(path)))) == []


def test_a_shared_random_draw_is_caught():
    tree = ast.parse("import random\nimport random as r\nfrom random import choice, Random\n"
                     "rng = random.Random(1)\nrng.random()\nrandom.random()\n"
                     "r.randint(1, 3)\nchoice('ab')\nRandom(2).choice('ab')\n")
    assert list(shared_random_draws(tree)) == [
        ("random.random", 6), ("random.randint", 7), ("choice", 8)]


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


def top_level_imports(tree):
    """Each module name, and each name imported from a module, that the top
    level of ``tree`` imports: ``from .text import TextType`` gives ``text``
    and ``TextType``, ``import json.decoder`` gives ``json`` and ``decoder``."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield from alias.name.split(".")
        elif isinstance(node, ast.ImportFrom):
            yield from (node.module or "").split(".")
            yield from (alias.name for alias in node.names)


KIND_MODULES = {p.stem for p in (SRC / "replicas").glob("*.py")} - {"__init__", "base"}


def test_kinds_and_json_load_on_first_use():
    """A process loads a kind's module only once a kind string names it, and
    ``json`` only at its first digest: the registry imports no kind, and the
    kind interface no ``json``, at module level."""
    assert {"text", "composite"} <= KIND_MODULES
    registry = ast.parse((SRC / "replicas" / "__init__.py").read_text())
    assert KIND_MODULES.isdisjoint(top_level_imports(registry))
    assert "json" not in set(top_level_imports(ast.parse((SRC / "replicas" / "base.py").read_text())))


def test_a_top_level_kind_or_json_import_is_caught():
    tree = ast.parse("from .counter import CounterType\nfrom . import composite\n"
                     "import json.decoder\ndef f():\n    from .text import TextType\n")
    names = set(top_level_imports(tree))
    assert KIND_MODULES & names == {"counter", "composite"}
    assert "json" in names and "text" not in names


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
