"""Checks on the library's source text."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "amplecheck"

# Proof obligations must raise explicitly, since ``python -O`` strips
# ``assert``.
MAX_ASSERTS = 0


def test_no_new_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(found) <= MAX_ASSERTS, f"{len(found)} assert statements: {found}"


def _is_intersection_number(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute) and node.attr == "self_intersection":
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dot", "pair")
    )


def test_intersection_numbers_are_not_divided_with_slash():
    """``pair`` is an ``int`` on integral classes, and ``int / int`` is a float.

    Intersection numbers are halved (or otherwise divided) through
    ``Fraction(x, n)``, so no quotient of one can become inexact.
    """
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and any(_is_intersection_number(n) for n in ast.walk(node.left))
    ]
    assert not found, f"'/' applied to an intersection number: {found}"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """Records are plain slotted classes, so a CLI process never imports
    ``dataclasses`` and, through it, ``inspect``, ``ast`` and ``dis``.

    ``-S`` keeps a site ``.pth`` file from importing these modules first.
    """
    probe = (
        "import sys; import amplecheck.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
    ).stdout
    assert out.strip() == "[]"
