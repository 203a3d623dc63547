"""Dead-option guard: every defaulted parameter of a package function, and
every defaulted field of a package dataclass, is set by some production
call in src/ or perfbench/.  An option that no production call sets has
one value in use, so it belongs in a constant; a test that sets it does not
keep it alive.

A call counts for every function of the called name (plain or attribute).
One with ``*args`` passes every positional parameter.  A ``**`` operand
passes the string keys of the dict literals it is built from: a literal, a
call of a helper whose every return is one, or a name bound to either in
the enclosing function, plus its ``name["key"] = ...`` assignments there.
Any other ``**`` operand passes every keyword parameter.  A call through a
dispatch table (a subscripted name bound to a dict of functions) counts for
every function in the table, and a call of a class counts for its
``__init__``.

A dataclass field is set by a call of its class (by keyword or position),
by a keyword of a ``replace(...)`` call, or by a string constant that names
it in a dotted attribute path, such as the ``"mc.paths"`` rows of the CLI's
key table.  A ``replace(...)`` whose ``**`` operand does not resolve sets
no field: the CLI's key table feeds its one such call, and its paths are
counted as strings.

A parameter that production calls do set, but always to the same constant,
also has one value in use.  A constant is a literal (None, True and False
among them) or a member of a package enum, such as ``Regime.FAST``; 2 and
2.0 are one value.  An omitted argument counts as its default, and an
argument passed through ``*args`` or a ``**`` operand that may hold it is
not a constant.  A parameter that no call sets is left to the check above.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "svasym"
SOURCES = ("src", "perfbench")

# (module, function or class, parameter or field): reason it stays with no
# production call setting it
EXEMPT = {
    ("simulate", "simulate_tilted", "h"):
        "the Girsanov drift that corrector-guided sampling of the Monte Carlo "
        "Hamiltonian (ROADMAP open items) will set",
    ("rates", "lax_solution", "sigma_bar_sq"):
        "the r = 4 closed form that the test of the fast regime's clamped "
        "Hopf-Lax cost compares against (ROADMAP open items)",
}
# (module, function, parameter): reason it stays with every production call
# passing it the same constant
ONE_VALUE_EXEMPT = {
    ("verify", "regime_compare", "rho"):
        "perfbench's fast_smile passes rho=0.0, and perfbench changes only "
        "with the benchmark (ROADMAP item 2)",
    ("rates", "lax_solution", "regime"):
        "perfbench's fast_smile passes Regime.FAST (ROADMAP item 2), and "
        "r = 4 is the reference of the clamped Hopf-Lax cost's test "
        "(ROADMAP item 1)",
}


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


def _literal_keys(node: ast.expr):
    """The keys of a dict literal whose keys are all strings, else None."""
    if isinstance(node, ast.Dict) and all(
            isinstance(k, ast.Constant) and isinstance(k.value, str)
            for k in node.keys):
        return {k.value for k in node.keys}
    return None


def _returned_keys(trees) -> dict:
    """Function name -> union of the keys of its returned dict literals;
    None when some return of a function of that name is anything else."""
    returned = {}
    for tree in trees:
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                keys = [ret.value and _literal_keys(ret.value)
                        for ret in ast.walk(fn) if isinstance(ret, ast.Return)]
                prev = returned.get(fn.name, set())
                returned[fn.name] = (None if prev is None or None in keys
                                     else prev.union(*keys))
    return returned


def _star_keys(operand: ast.expr, scope: ast.AST, returned: dict):
    """The keyword names a ``**`` operand passes, or {None} for all.  A name
    resolves only when the scope binds it by plain assignment alone (not as
    a parameter) and changes it only by ``name["key"] = ...``."""
    def keys_of(node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return returned.get(node.func.id)
        return _literal_keys(node)

    if not isinstance(operand, ast.Name):
        keys = keys_of(operand)
        return {None} if keys is None else keys
    name = operand.id
    is_name = lambda node: isinstance(node, ast.Name) and node.id == name
    keys, bound = set(), set()
    for node in ast.walk(scope):
        if isinstance(node, ast.arg) and node.arg == name:
            return {None}
        if (is_name(node) and isinstance(node.ctx, ast.Store)
                and id(node) not in bound):
            return {None}  # bound by a loop, unpacking, with or walrus
        if isinstance(node, ast.AugAssign) and is_name(node.target):
            return {None}
        if isinstance(node, ast.Attribute) and is_name(node.value):
            return {None}  # e.g. name.update(...)
        for target in node.targets if isinstance(node, ast.Assign) else ():
            if is_name(target):
                got = keys_of(node.value)
                bound.add(id(target))
            elif isinstance(target, ast.Subscript) and is_name(target.value):
                key = target.slice
                got = ({key.value} if isinstance(key, ast.Constant)
                       and isinstance(key.value, str) else None)
            else:
                continue
            if got is None:
                return {None}
            keys |= got
    return keys if bound else {None}


def _scoped_calls(node: ast.AST, scope: ast.AST):
    """(call, innermost enclosing function or module) of every call."""
    for child in ast.iter_child_nodes(node):
        inner = (child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                 else scope)
        if isinstance(child, ast.Call):
            yield child, scope
        yield from _scoped_calls(child, inner)


def _passed(trees) -> dict:
    """Called name -> (positional argument count, keyword names) of the
    calls; ``*args`` counts as unbounded and an unresolved ``**`` operand
    as the key None."""
    tables = _dispatch_tables(trees)
    returned = _returned_keys(trees)
    passed = defaultdict(lambda: [0, set()])
    for tree in trees:
        for call, scope in _scoped_calls(tree, tree):
            n_pos = (float("inf") if any(isinstance(a, ast.Starred) for a in call.args)
                     else len(call.args))
            keywords = set()
            for kw in call.keywords:
                keywords |= ({kw.arg} if kw.arg is not None
                             else _star_keys(kw.value, scope, returned))
            for name in _callees(call.func, tables):
                entry = passed[name]
                entry[0] = max(entry[0], n_pos)
                entry[1].update(keywords)
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


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (target.id if isinstance(target, ast.Name)
                else getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _has_default(value) -> bool:
    """Whether a field's right-hand side gives it a default: any value but
    a ``field(...)`` call without ``default`` or ``default_factory``."""
    if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "field"):
        return any(kw.arg in ("default", "default_factory")
                   for kw in value.keywords)
    return value is not None


def _path_names(trees) -> set:
    """Every segment of each string constant that is a dotted path of
    identifiers, such as "mc.paths" or "tilt_p"."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    names.update(parts)
    return names


def _dead_fields(module_tree: ast.Module, passed, path_names) -> list:
    replaced = passed.get("replace", (0, set()))[1] - {None}
    dead = []
    for cls in ast.walk(module_tree):
        if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
            continue
        n_pos, keywords = passed.get(cls.name, (0, set()))
        fields = [node for node in cls.body if isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)]
        for index, node in enumerate(fields):
            name = node.target.id
            if not _has_default(node.value):
                continue
            if not (n_pos > index or name in keywords or None in keywords
                    or name in replaced or name in path_names):
                dead.append((cls.name, name))
    return dead


def _production_trees(root: Path) -> list:
    return [_parse(src) for path in SOURCES
            for src in sorted((root / path).rglob("*.py"))]


def _tail(node: ast.expr):
    """The last name of a plain or dotted name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _enums(trees) -> set:
    """Names of the classes that subclass Enum."""
    return {node.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(_tail(base) == "Enum" for base in node.bases)}


def _constant(node, enums):
    """A key of the value of a constant argument, else None: equal keys
    are one value."""
    if node is None:
        return None
    if isinstance(node, ast.Attribute) and _tail(node.value) in enums:
        return "member", _tail(node.value), node.attr
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return None
    return "literal", isinstance(value, bool), value  # True is not 1


def _calls(trees) -> dict:
    """Called name -> (call, enclosing scope) of each call."""
    tables = _dispatch_tables(trees)
    calls = defaultdict(list)
    for tree in trees:
        for call, scope in _scoped_calls(tree, tree):
            for name in _callees(call.func, tables):
                calls[name].append((call, scope))
    return calls


def _parameters(fn: ast.FunctionDef, bound: bool):
    """(name, positional index or None, default or None) of each named
    parameter; a bound method's first is skipped."""
    positional = fn.args.posonlyargs + fn.args.args
    if bound:
        positional = positional[1:]
    defaults = [None] * (len(positional) - len(fn.args.defaults)) + fn.args.defaults
    for i, (arg, default) in enumerate(zip(positional, defaults)):
        yield arg.arg, i, default
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        yield arg.arg, None, default


def _argument(call: ast.Call, scope, name: str, index, default, returned):
    """(expression, set) of what a call passes a parameter: the default
    when it leaves the parameter out (set False), None when it cannot be
    told."""
    star = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)),
                len(call.args))
    if index is not None and index < len(call.args):
        return (call.args[index] if index < star else None), True
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value, True
    if star < len(call.args) and index is not None:
        return None, True
    for kw in call.keywords:
        if kw.arg is None and {None, name} & _star_keys(kw.value, scope, returned):
            return None, True
    return default, False


def _one_value(module_tree: ast.Module, calls, enums, returned) -> list:
    """(function, parameter) of each parameter that some production call
    sets and that every production call passes the same constant."""
    found = []
    for name, fn, bound in _functions(module_tree):
        sites = calls.get(name, [])
        for param, index, default in _parameters(fn, bound):
            passed = [_argument(call, scope, param, index, default, returned)
                      for call, scope in sites]
            if not any(set_ for _, set_ in passed):
                continue
            keys = [_constant(node, enums) for node, _ in passed]
            if keys[0] is not None and all(key == keys[0] for key in keys):
                found.append((fn.name, param))
    return found


@pytest.fixture(scope="module")
def trees():
    return _production_trees(ROOT)


@pytest.fixture(scope="module")
def passed(trees):
    return _passed(trees)


@pytest.fixture(scope="module")
def path_names(trees):
    return _path_names(trees)


@pytest.fixture(scope="module")
def one_value(trees):
    """Module -> its one-value parameters."""
    calls, enums, returned = _calls(trees), _enums(trees), _returned_keys(trees)
    return {p.stem: _one_value(_parse(p), calls, enums, returned)
            for p in PACKAGE.glob("*.py")}


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_every_defaulted_parameter_is_set_by_a_call(module, passed):
    dead = [(fn, param) for fn, param
            in _dead_options(_parse(PACKAGE / f"{module}.py"), passed)
            if (module, fn, param) not in EXEMPT]
    assert not dead, (f"svasym.{module} has defaulted parameters no call "
                      f"sets (make each a constant): {dead}")


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_every_defaulted_field_is_set_by_a_call(module, passed, path_names):
    dead = [(cls, name) for cls, name
            in _dead_fields(_parse(PACKAGE / f"{module}.py"), passed, path_names)
            if (module, cls, name) not in EXEMPT]
    assert not dead, (f"svasym.{module} has defaulted dataclass fields no "
                      f"call sets (make each a constant): {dead}")


@pytest.mark.parametrize("entry", sorted(EXEMPT))
def test_exempt_entry_names_an_unset_parameter(entry, passed, path_names):
    # an entry stays only while its parameter or field exists and no
    # production call sets it
    module, fn, param = entry
    tree = _parse(PACKAGE / f"{module}.py")
    dead = _dead_options(tree, passed) + _dead_fields(tree, passed, path_names)
    assert (fn, param) in dead, (
        f"EXEMPT names svasym.{module}.{fn}({param}=), which is gone or now "
        "set by a production call: drop the entry")


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_parameter_has_one_value_in_use(module, one_value):
    found = [(fn, param) for fn, param in one_value[module]
             if (module, fn, param) not in ONE_VALUE_EXEMPT]
    assert not found, (f"svasym.{module} has parameters every production "
                       f"call passes the same constant (make each a "
                       f"constant): {found}")


@pytest.mark.parametrize("entry", sorted(ONE_VALUE_EXEMPT))
def test_one_value_exempt_entry_names_a_finding(entry, one_value):
    # an entry stays only while its parameter exists and every production
    # call passes it the same constant
    module, fn, param = entry
    assert (fn, param) in one_value[module], (
        f"ONE_VALUE_EXEMPT names svasym.{module}.{fn}({param}), which is gone "
        "or now passed more than one value: drop the entry")


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
K.s(**{"y": 0})
'''
    tree = ast.parse(source)
    assert set(_dead_options(tree, _passed([tree]))) == {("h", "c"), ("s", "x")}


def test_guard_resolves_double_star_keys():
    source = '''
def f(a, *, b=1, c=2, d=3): pass
def g(a, *, b=1, c=2): pass
def h(a, *, b=1, c=2): pass
def opts(flag):
    if flag:
        return {"b": 1}
    return {"c": 2}
def other(): return dict(b=1)
def caller(kwargs):
    kw = opts(True)
    kw["d"] = 4
    f(0, **kw)
    g(0, **other())
    h(0, **kwargs)
'''
    tree = ast.parse(source)
    # f gets b and c from the helper's literals and d from the assignment;
    # other()'s return is no literal, so it passes all of g's keywords
    assert _dead_options(tree, _passed([tree])) == []
    narrowed = source.replace('kw["d"] = 4', "kw = {}")
    tree = ast.parse(narrowed)
    assert set(_dead_options(tree, _passed([tree]))) == {("f", "d")}


def test_guard_sees_each_way_of_setting_a_field():
    source = '''
from dataclasses import dataclass, field, replace
@dataclass(frozen=True)
class C:
    a: int
    required: int = field(repr=False)
    by_position: int = 0
    by_keyword: int = 0
    by_replace: int = 0
    by_path: int = 0
    unset: int = 0
    unset_factory: tuple = field(default_factory=tuple)
@dataclass
class D:
    by_star: int = 0
C(1, 2, 3, by_keyword=3)
replace(c, by_replace=4)
replace(c, **{name: 5})
KEYS = ("c.by_path",)
D(**opts)
'''
    tree = ast.parse(source)
    dead = _dead_fields(tree, _passed([tree]), _path_names([tree]))
    assert dead == [("C", "unset"), ("C", "unset_factory")]


def test_guard_ignores_fields_only_tests_set(tmp_path):
    files = {
        "src/pkg/mod.py": ("from dataclasses import dataclass\n"
                           "@dataclass\nclass C:\n    used: int = 0\n"
                           "    tested: int = 0\n"),
        "perfbench/run.py": "from pkg.mod import C\nC(used=1)\n",
        "tests/test_mod.py": "from pkg.mod import C\nC(tested=1)\n",
    }
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text, encoding="utf-8")
    trees = _production_trees(tmp_path)
    module = _parse(tmp_path / "src/pkg/mod.py")
    assert _dead_fields(module, _passed(trees), _path_names(trees)) == [
        ("C", "tested")]


def test_guard_sees_one_value_in_use():
    source = '''
from enum import Enum
class Mode(Enum):
    A = 1
    B = 2
def f(a, b, c=0.0, d=None, *, e=Mode.A, g=1, k=3): pass
def h(a=2): pass
def s(a, b=1): pass
class K:
    def m(self, x, y=True): pass
def caller(x, opts, args):
    f(x, 2, c=0, e=Mode.A, g=1, k=opts)
    f(x, 2.0, e=pkg.Mode.A, g=2)
    h(a=2)
    h(**opts)
    s(1, *args)
    s(1)
    K().m(None, y=1)
    K().m(None, y=True)
'''
    tree = ast.parse(source)
    found = _one_value(tree, _calls([tree]), _enums([tree]), _returned_keys([tree]))
    # b is 2 and 2.0, c is 0 and the omitted default 0.0, e one enum member;
    # d is never set, a and k are no constants, g has two values, h may come
    # through **opts, s's b through *args, and y is 1 once and True once
    assert set(found) == {("f", "b"), ("f", "c"), ("f", "e"), ("s", "a"),
                          ("m", "x")}
