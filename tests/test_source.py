"""Checks on the library's source text."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "amplecheck"

# Proof obligations must raise explicitly, since ``python -O`` strips
# ``assert``; this is the count the existing ones may only shrink from.
MAX_ASSERTS = 7


def test_no_new_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(found) <= MAX_ASSERTS, f"{len(found)} assert statements: {found}"
