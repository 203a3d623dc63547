"""Dead-option guard: every defaulted parameter of a package function is
passed, by keyword or by position, at some call in src/, tests/ or
perfbench/.  A parameter that no call sets has one value in use, so it
belongs in a constant.

A call counts for every function of the called name (plain or attribute).
One with ``*args`` passes every positional parameter, one with ``**kwargs``
every keyword parameter.  A call through a dispatch table (a subscripted
name bound to a dict of functions) counts for every function in the table,
and a call of a class counts for its ``__init__``.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "svasym"
SOURCES = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")

# (module, function, parameter): reason it stays with no call setting it
EXEMPT = {}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _functions(tree: ast.Module):
    """(called name, function node, is bound method) for every function in
    the module; ``__init__`` is called by its class's name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in fn.decorator_list)
                    name = node.name if fn.name == "__init__" else fn.name
                    yield name, fn, not static
    methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for fn in cls.body}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and id(node) not in methods):
            yield node.name, node, False


def _defaulted(fn: ast.FunctionDef, bound: bool):
    """(name, positional index or None) of each defaulted parameter; the
    index counts call arguments, so a bound method's first is skipped."""
    positional = fn.args.posonlyargs + fn.args.args
    if bound:
        positional = positional[1:]
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _dispatch_tables(trees):
    """Name -> called names of each dict of plain or attribute names."""
    tables = defaultdict(set)
    for tree in trees:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                    and node.value.values
                    and all(isinstance(v, (ast.Name, ast.Attribute))
                            for v in node.value.values)):
                names = {v.id if isinstance(v, ast.Name) else v.attr
                         for v in node.value.values}
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tables[target.id] |= names
    return tables


def _callees(func: ast.expr, tables) -> set:
    if isinstance(func, ast.Name):
        return {func.id}
    if isinstance(func, ast.Attribute):
        return {func.attr}
    if isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name):
        return tables.get(func.value.id, set())
    return set()


def _passed(trees) -> dict:
    """Called name -> (positional argument count, keyword names) of the
    calls; ``*args`` counts as unbounded and ``**kwargs`` as the key None."""
    tables = _dispatch_tables(trees)
    passed = defaultdict(lambda: [0, set()])
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            n_pos = (float("inf") if any(isinstance(a, ast.Starred) for a in call.args)
                     else len(call.args))
            for name in _callees(call.func, tables):
                entry = passed[name]
                entry[0] = max(entry[0], n_pos)
                entry[1].update(kw.arg for kw in call.keywords)
    return passed


def _dead_options(module_tree: ast.Module, passed) -> list:
    dead = []
    for name, fn, bound in _functions(module_tree):
        n_pos, keywords = passed.get(name, (0, set()))
        for param, index in _defaulted(fn, bound):
            by_position = index is not None and n_pos > index
            if not (by_position or param in keywords or None in keywords):
                dead.append((fn.name, param))
    return dead


@pytest.fixture(scope="module")
def passed():
    return _passed([_parse(src) for path in SOURCES
                    for src in sorted(path.rglob("*.py"))])


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_every_defaulted_parameter_is_set_by_a_call(module, passed):
    dead = [(fn, param) for fn, param
            in _dead_options(_parse(PACKAGE / f"{module}.py"), passed)
            if (module, fn, param) not in EXEMPT]
    assert not dead, (f"svasym.{module} has defaulted parameters no call "
                      f"sets (make each a constant): {dead}")


def test_guard_sees_each_way_of_passing():
    source = '''
def f(a, b=1, *, c=2): pass
def g(a, b=1, *, c=2): pass
def h(a, b=1, *, c=2): pass
class K:
    def __init__(self, a=0): pass
    def m(self, x=0): pass
    @staticmethod
    def s(x=0): pass
TABLE = {"h": h}
f(0, 1, c=3)
g(*args, **kwargs)
TABLE["h"](0, 2)
K(1).m(2)
K.s()
'''
    tree = ast.parse(source)
    assert set(_dead_options(tree, _passed([tree]))) == {("h", "c"), ("s", "x")}
