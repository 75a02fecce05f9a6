"""No check in the package may depend on `assert`, which `python -O` removes."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tokennets"


def raises_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_has_no_assert():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or raises_assertion_error(node):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert or AssertionError in the package: {found}"
