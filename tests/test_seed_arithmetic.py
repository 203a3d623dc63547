"""Seed-arithmetic guard: no addition in the package has an operand named
``seed``.

``seed + k`` gives seed s sub-stream 1 the stream of seed s + 1 sub-stream
0, so two runs that should be independent share draws.  A computation that
needs several streams from one seed derives them with
``simulate.substream_seed(seed, k)``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "svasym"


def _is_seed(node: ast.AST) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "seed")
            or (isinstance(node, ast.Attribute) and node.attr == "seed"))


def _seed_additions(tree: ast.AST):
    """Line numbers of the additions (a + b, a += b) with a seed operand."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            operands = (node.target, node.value)
        else:
            continue
        if any(_is_seed(op) for op in operands):
            yield node.lineno


def test_guard_sees_both_forms():
    src = "a = mc.seed + 1\nb = 10 * i + seed\nseed += 1\nc = seed * 2 + 1\n"
    assert sorted(_seed_additions(ast.parse(src))) == [1, 2, 3]


def test_no_seed_arithmetic_in_the_package():
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line in _seed_additions(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, f"seed arithmetic (use simulate.substream_seed): {found}"
