"""Dead-name guard: every module-level function, class and constant of the
package is read by production code outside its own definition.

The production readers are src/ and perfbench/, the same callers that
tests/test_dead_options.py counts.  The imports of an ``__init__.py`` are
re-exports and read nothing, and a name that only tests read is dead code.
A reference is a loaded name, an attribute, an imported name, or a string
constant naming it (the benchmark's tracer keys spans by "module.name").
Dunder names are read by the interpreter, and ``main`` by the console-script
entry point, so neither needs a reader here.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "svasym"
READERS = ("src", "perfbench")
ENTRY_POINTS = {"main"}


def _references(node: ast.AST) -> Counter:
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            refs[sub.name.rpartition(".")[2]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs.update(sub.value.split("."))
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


def _reader_refs(root: Path) -> Counter:
    """References in the production readers under ``root``, without the
    imports of each ``__init__.py``."""
    refs = Counter()
    for reader in READERS:
        for source in sorted((root / reader).rglob("*.py")):
            tree = _parse(source)
            if source.name == "__init__.py":
                tree.body = [node for node in tree.body
                             if not isinstance(node, (ast.Import, ast.ImportFrom))]
            refs.update(_references(tree))
    return refs


def _dead_names(module_tree: ast.Module, refs: Counter) -> list:
    return [name for name, node in _definitions(module_tree)
            if not (name.startswith("__") and name.endswith("__"))
            and name not in ENTRY_POINTS
            and refs[name] - _references(node)[name] <= 0]


@pytest.fixture(scope="module")
def reader_refs() -> Counter:
    return _reader_refs(ROOT)


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_every_top_level_name_has_a_reader(module, reader_refs):
    dead = _dead_names(_parse(PACKAGE / f"{module}.py"), reader_refs)
    assert not dead, (f"svasym.{module} defines names no production code "
                      f"reads: {dead}")


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
