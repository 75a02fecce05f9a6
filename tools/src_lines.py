"""Count the lines of the package source, per module and in total.

Raw lines are every line of a file.  Code lines are the non-blank lines
that are neither comment-only lines nor part of a docstring (the string
that opens a module, class or function body, found with `ast`).

Run from the repository root:

    python tools/src_lines.py
"""

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(raw lines, code lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(1 for no, line in enumerate(lines, 1)
               if line.strip() and not line.strip().startswith("#") and no not in docs)
    return len(lines), code


def main() -> int:
    root = Path("src/tokennets")
    total_raw = total_code = 0
    print(f"{'module':<16} {'raw':>6} {'code':>6}")
    for path in sorted(root.glob("*.py")):
        raw, code = count(path)
        total_raw += raw
        total_code += code
        print(f"{path.name:<16} {raw:>6} {code:>6}")
    print(f"{'total':<16} {total_raw:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
