"""The library keeps only code and parameters that something outside the
tests uses.

Every function and class defined in ``src/heislab`` must be referenced in
``src/heislab`` or ``perfbench/`` outside its own definition, by name or
as an attribute; in ``perfbench/tracer.py``, which wraps functions by
name, a string naming it counts too.  Code that only the tests call
belongs in the tests, next to them.  The exceptions are listed in
ALLOWED, each with its reason.  Dunder methods are protocol hooks and are
not checked.  Matching is by bare name, so a definition that shares its
name with a referenced one passes unseen.

Likewise every parameter with a default must be passed, by position or
by keyword, by some call in ``src/heislab`` or ``perfbench/`` outside the
function itself; a call of a class counts for its ``__init__``.  A value
that no caller sets is a module constant, not a parameter that only the
tests vary.  A call that spreads a list or dict (``f(*a)``, ``f(**kw)``)
passes only the arguments it spells out before the spread.  Calls are
matched by bare name too.  The exceptions are listed in
ALLOWED_PARAMETERS.
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

_TRACED = "perfbench/tracer.py wraps interval_histogram, which keeps its signature"
ALLOWED_PARAMETERS = {
    "interval_histogram.n_lines": _TRACED,
    "interval_histogram.seed": _TRACED,
    "interval_histogram.steps": _TRACED,
    "interval_histogram.workers": _TRACED,
}


def _call_name(call: ast.Call):
    """The bare name a call goes by: f(...) and obj.f(...) both call "f"."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


@cache
def _surface():
    """(defs, refs, calls): defs lists (qualified name, node, name of the
    class it is defined in or None) of every definition in src/heislab;
    refs maps a name to the ids of the definitions enclosing each
    reference to it, and calls maps a name to (call, those ids) for each
    call by that name."""
    defs = []
    refs = defaultdict(list)
    calls = defaultdict(list)
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in paths:
        in_src = path.parent == SRC
        by_string = path == ROOT / "perfbench" / "tracer.py"

        def visit(node, scope, enclosing, cls):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if in_src:
                        defs.append((".".join(scope + (child.name,)), child, cls))
                    inner = child.name if isinstance(child, ast.ClassDef) else None
                    visit(child, scope + (child.name,), enclosing | {id(child)}, inner)
                    continue
                if isinstance(child, ast.Call):
                    calls[_call_name(child)].append((child, enclosing))
                if isinstance(child, ast.Name):
                    refs[child.id].append(enclosing)
                elif isinstance(child, ast.Attribute):
                    refs[child.attr].append(enclosing)
                elif by_string and isinstance(child, ast.Constant) and isinstance(child.value, str):
                    refs[child.value].append(enclosing)
                visit(child, scope, enclosing, None)

        visit(ast.parse(path.read_text(), str(path)), (), frozenset(), None)
    return defs, refs, calls


def _unreferenced() -> list:
    defs, refs, _ = _surface()
    return [
        name
        for name, node, _ in defs
        if not node.name.startswith("__")
        and not any(id(node) not in enclosing for enclosing in refs[node.name])
    ]


def _defaulted(node, cls) -> list:
    """(position, name) of each parameter with a default.  position counts
    the arguments a call spells out, so a method's self or cls is not
    counted; it is None for a keyword-only parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
    if cls is not None and not static:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _passes(call: ast.Call, position, name: str) -> bool:
    spelled = 0
    for arg in call.args:
        if isinstance(arg, ast.Starred):
            break
        spelled += 1
    if position is not None and position < spelled:
        return True
    return any(kw.arg == name for kw in call.keywords)


def _unpassed_parameters() -> list:
    defs, _, calls = _surface()
    out = []
    for qualname, node, cls in defs:
        if isinstance(node, ast.ClassDef):
            continue
        callee = cls if node.name == "__init__" else node.name
        for position, name in _defaulted(node, cls):
            if not any(
                id(node) not in enclosing and _passes(call, position, name)
                for call, enclosing in calls[callee]
            ):
                out.append(f"{qualname.removesuffix('.__init__')}.{name}")
    return out


def test_every_definition_has_a_caller_outside_the_tests():
    unused = [name for name in _unreferenced() if name not in ALLOWED]
    assert unused == [], f"defined in src/heislab but referenced only by tests: {unused}"


def test_every_allowlist_entry_is_needed():
    assert sorted(ALLOWED) == sorted(set(ALLOWED) & set(_unreferenced()))


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    unpassed = [name for name in _unpassed_parameters() if name not in ALLOWED_PARAMETERS]
    assert unpassed == [], f"defaulted parameters that only tests pass: {unpassed}"


def test_every_parameter_allowlist_entry_is_needed():
    assert sorted(ALLOWED_PARAMETERS) == sorted(
        set(ALLOWED_PARAMETERS) & set(_unpassed_parameters())
    )
