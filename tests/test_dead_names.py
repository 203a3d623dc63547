"""Dead-name guard: every module-level function, class and constant of the
package is read by production code outside its own definition.

The production readers are src/ and perfbench/, the same callers that
tests/test_dead_options.py counts.  The imports of an ``__init__.py`` are
re-exports and read nothing, and a name that only tests read is dead code.
A reference is a loaded name, an attribute, an imported name, or a string
constant naming it (the benchmark's tracer keys spans by "module.name").
Dunder names are read by the interpreter, and ``main`` by the console-script
entry point, so neither needs a reader here.

The same rule holds for the members of each module-level class of the
package: every non-dunder method, property and annotated class attribute (a
dataclass field) needs a production reader outside its own definition.  A
member's reference is an attribute or a string constant naming it: a bare
name, such as a local that shares the member's name, never reads a member,
and a keyword that sets a field in a constructor call reads nothing.

A member is matched by its name alone, not by its class, so a member that
shares its name with an attribute of anything else the readers touch counts
as read.  Such a field needs a reader found by hand: ``RateCurve.x0``,
``.t``, ``.sigma_bar_sq`` and ``.legendre`` (read as ``params.x0``,
``cfg.t`` and ``ham.legendre``), ``McEstimate.n`` and ``.seed`` and
``TiltedBatch.seed`` (``spec.n``, ``mc.seed``) and
``GrowthBoundReport.message`` (``c.message`` of a validation clause) all
passed this guard with no reader, and are gone.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "svasym"
READERS = ("src", "perfbench")
ENTRY_POINTS = {"main"}

# (module, class, member): reason it stays with no production reader
EXEMPT = {
    ("poisson", "Corrector", "chi_prime_left"):
        "the left-anchored representation of chi', a diagnostic that ROADMAP "
        "item 11 carries into the artifacts",
    ("poisson", "Corrector", "chi_prime_right"):
        "the right-anchored representation of chi', a diagnostic that "
        "ROADMAP item 11 carries into the artifacts",
    ("poisson", "GrowthBoundReport", "log_slope"):
        "the growth check's log-log slope, a diagnostic that ROADMAP item 11 "
        "carries into the artifacts",
    ("poisson", "GrowthBoundReport", "c1"):
        "the growth check's bound constant, a diagnostic that ROADMAP item 11 "
        "carries into the artifacts",
    ("verify", "RegimeRow", "i2"):
        "regime_compare's table column; perfbench's fast_smile reads only "
        "ok, and perfbench changes only with ROADMAP item 2",
    ("verify", "RegimeRow", "i4"):
        "regime_compare's table column; perfbench's fast_smile reads only "
        "ok, and perfbench changes only with ROADMAP item 2",
}


def _references(node: ast.AST, bare: bool = True) -> Counter:
    """Names that ``node`` references; without ``bare``, only attributes
    and string constants (the references of a class member)."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs.update(sub.value.split("."))
        elif not bare:
            continue
        elif isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            refs[sub.id] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name.rpartition(".")[2]] += 1
    return refs


def _definitions(tree: ast.Module):
    """(name, node) for each function, class and assigned name at the top
    level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reader_refs(root: Path, bare: bool = True) -> Counter:
    """References (see ``_references``) in the production readers under
    ``root``, without the imports of each ``__init__.py``."""
    refs = Counter()
    for reader in READERS:
        for source in sorted((root / reader).rglob("*.py")):
            tree = _parse(source)
            if source.name == "__init__.py":
                tree.body = [node for node in tree.body
                             if not isinstance(node, (ast.Import, ast.ImportFrom))]
            refs.update(_references(tree, bare))
    return refs


def _dead_names(module_tree: ast.Module, refs: Counter) -> list:
    return [name for name, node in _definitions(module_tree)
            if not (name.startswith("__") and name.endswith("__"))
            and name not in ENTRY_POINTS
            and refs[name] - _references(node)[name] <= 0]


def _members(tree: ast.Module):
    """(class, member, node) for each method, property and annotated class
    attribute of the module-level classes."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls.name, node.name, node
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield cls.name, node.target.id, node


def _dead_members(module_tree: ast.Module, member_refs: Counter) -> list:
    """Unread members, given the readers' member references
    (``_reader_refs(root, bare=False)``)."""
    return [(cls, name) for cls, name, node in _members(module_tree)
            if not (name.startswith("__") and name.endswith("__"))
            and member_refs[name] - _references(node, bare=False)[name] <= 0]


@pytest.fixture(scope="module")
def reader_refs() -> Counter:
    return _reader_refs(ROOT)


@pytest.fixture(scope="module")
def member_refs() -> Counter:
    return _reader_refs(ROOT, bare=False)


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_every_top_level_name_has_a_reader(module, reader_refs):
    dead = _dead_names(_parse(PACKAGE / f"{module}.py"), reader_refs)
    assert not dead, (f"svasym.{module} defines names no production code "
                      f"reads: {dead}")


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_every_class_member_has_a_reader(module, member_refs):
    dead = [(cls, name) for cls, name
            in _dead_members(_parse(PACKAGE / f"{module}.py"), member_refs)
            if (module, cls, name) not in EXEMPT]
    assert not dead, (f"svasym.{module} has class members no production "
                      f"code reads: {dead}")


@pytest.mark.parametrize("entry", sorted(EXEMPT))
def test_exempt_entry_names_an_unread_member(entry, member_refs):
    # an entry stays only while its member exists and nothing reads it
    module, cls, name = entry
    dead = _dead_members(_parse(PACKAGE / f"{module}.py"), member_refs)
    assert (cls, name) in dead, (
        f"EXEMPT names svasym.{module}.{cls}.{name}, which is gone or now "
        "read by production code: drop the entry")


def test_guard_ignores_tests_and_re_exports(tmp_path):
    files = {
        "src/pkg/__init__.py": "from .mod import probe, used\n",
        "src/pkg/mod.py": "def probe(): pass\ndef used(): pass\ndef traced(): pass\n",
        "src/pkg/cli.py": "from .mod import used\nused()\n",
        "perfbench/run.py": 'SPANS = ("mod.traced",)\n',
        "tests/test_mod.py": "from pkg.mod import probe\nprobe()\n",
    }
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text, encoding="utf-8")
    module = _parse(tmp_path / "src/pkg/mod.py")
    assert _dead_names(module, _reader_refs(tmp_path)) == ["probe"]


def test_guard_sees_unread_members(tmp_path):
    files = {
        "src/pkg/mod.py": (
            "from dataclasses import dataclass\n"
            "@dataclass\nclass C:\n    read: int\n    built: int\n"
            "    def __call__(self, x): return self.helper(x)\n"
            "    def helper(self, x): return x\n"
            "    def recursive(self, n): return self.recursive(n - 1)\n"
            "    @property\n    def traced(self): return 0\n"
            "    @property\n    def tested(self): return 0\n"),
        "src/pkg/cli.py": "from .mod import C\nC(read=1, built=2).read\n",
        "perfbench/run.py": 'SPANS = ("C.traced",)\n',
        "tests/test_mod.py": "from pkg.mod import C\nC(1, 2).tested\n",
    }
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text, encoding="utf-8")
    module = _parse(tmp_path / "src/pkg/mod.py")
    # a constructor keyword and a member's own body read nothing, and the
    # dunder __call__ is read by the interpreter
    assert _dead_members(module, _reader_refs(tmp_path, bare=False)) == [
        ("C", "built"), ("C", "recursive"), ("C", "tested")]


def test_guard_sees_a_member_shadowed_by_a_local(tmp_path):
    files = {
        "src/pkg/mod.py": (
            "from dataclasses import dataclass\n"
            "@dataclass\nclass Row:\n    x: float\n    rate: float\n"),
        "src/pkg/cli.py": (
            "from .mod import Row\n"
            "def table(xs):\n"
            "    rate = [2.0 * x for x in xs]\n"
            "    rows = [Row(x=a, rate=b) for a, b in zip(xs, rate)]\n"
            "    return [row.x for row in rows], rate\n"),
    }
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text, encoding="utf-8")
    module = _parse(tmp_path / "src/pkg/mod.py")
    # the local ``rate`` is a bare name: it reads no member called rate
    assert _dead_members(module, _reader_refs(tmp_path, bare=False)) == [
        ("Row", "rate")]
