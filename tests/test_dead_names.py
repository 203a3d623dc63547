"""Dead-name guard: every module-level function, class and constant of the
package is referenced somewhere in src/, tests/ or perfbench/ outside its
own definition.

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


@pytest.fixture(scope="module")
def all_refs() -> Counter:
    refs = Counter()
    for path in (ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
        for source in sorted(path.rglob("*.py")):
            refs.update(_references(_parse(source)))
    return refs


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_every_top_level_name_has_a_reader(module, all_refs):
    tree = _parse(PACKAGE / f"{module}.py")
    dead = [name for name, node in _definitions(tree)
            if not (name.startswith("__") and name.endswith("__"))
            and name not in ENTRY_POINTS
            and all_refs[name] - _references(node)[name] <= 0]
    assert not dead, f"svasym.{module} defines names nothing reads: {dead}"
