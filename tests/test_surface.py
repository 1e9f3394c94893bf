"""The library keeps only code that something outside the tests runs.

Every function and class defined in ``src/heislab`` must be referenced in
``src/heislab`` or ``perfbench/`` outside its own definition, by name or
as an attribute; in ``perfbench/tracer.py``, which wraps functions by
name, a string naming it counts too.  Code that only the tests call
belongs in the tests, next to them.  The exceptions are listed in
ALLOWED, each with its reason.  Dunder methods are protocol hooks and are
not checked.  Matching is by bare name, so a definition that shares its
name with a referenced one passes unseen.
"""

import ast
from collections import defaultdict
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "heislab"

ALLOWED = {
    "LatticeFunction.indicator": "public constructor: a set's indicator as a lattice function",
    "LatticeFunction.stacked": "public constructor: a vector-valued function from scalar ones",
}


@cache
def _surface():
    """(defs, refs): defs lists (qualified name, node) of every definition
    in src/heislab; refs maps a name to the ids of the definitions
    enclosing each reference to it."""
    defs = []
    refs = defaultdict(list)
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in paths:
        in_src = path.parent == SRC
        by_string = path == ROOT / "perfbench" / "tracer.py"

        def visit(node, scope, enclosing):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if in_src and not child.name.startswith("__"):
                        defs.append((".".join(scope + (child.name,)), child))
                    visit(child, scope + (child.name,), enclosing | {id(child)})
                    continue
                if isinstance(child, ast.Name):
                    refs[child.id].append(enclosing)
                elif isinstance(child, ast.Attribute):
                    refs[child.attr].append(enclosing)
                elif by_string and isinstance(child, ast.Constant) and isinstance(child.value, str):
                    refs[child.value].append(enclosing)
                visit(child, scope, enclosing)

        visit(ast.parse(path.read_text(), str(path)), (), frozenset())
    return defs, refs


def _unreferenced() -> list:
    defs, refs = _surface()
    return [
        name
        for name, node in defs
        if not any(id(node) not in enclosing for enclosing in refs[node.name])
    ]


def test_every_definition_has_a_caller_outside_the_tests():
    unused = [name for name in _unreferenced() if name not in ALLOWED]
    assert unused == [], f"defined in src/heislab but referenced only by tests: {unused}"


def test_every_allowlist_entry_is_needed():
    assert sorted(ALLOWED) == sorted(set(ALLOWED) & set(_unreferenced()))
