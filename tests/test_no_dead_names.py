"""Every name the package defines has a reader in the package: no code
that only tests call.

A function, class, method or module-level constant defined in
`src/tokennets/*.py` counts as read when the package loads it as a name,
reads it as an attribute (of any object), or imports it.  Its own
definition does not count.  Dunders are exempt, and so are the names the
benchmark's tracer wraps by name (the string literals of
`perfbench/layers.py`).
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "tokennets"


def defined(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every function, class and method anywhere in the
    module, and of every name a module-level assignment binds."""
    out = [(n.name, n.lineno) for n in ast.walk(tree)
           if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for stmt in tree.body:
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        for t in targets:
            out.extend((n.id, n.lineno) for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def read(tree: ast.Module) -> set[str]:
    """The names a module loads, the attributes it reads and the names it
    imports."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
    return out


def traced_names() -> set[str]:
    tree = ast.parse((REPO / "perfbench" / "layers.py").read_text())
    return {n.value for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def dead_names(src_dir: Path) -> list[str]:
    modules = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(src_dir.glob("*.py"))}
    used = set().union(*map(read, modules.values())) | traced_names()
    return [f"{name}:{line} {ident}"
            for name, tree in modules.items()
            for ident, line in defined(tree)
            if ident not in used and not (ident.startswith("__") and ident.endswith("__"))]


def test_every_package_name_has_a_reader_in_the_package():
    dead = dead_names(SRC)
    assert not dead, f"defined in the package but read only outside it, if at all: {dead}"


def test_a_name_without_a_reader_is_found(tmp_path):
    # `_unread` has no reader; the constant it returns has one.
    for p in SRC.glob("*.py"):
        (tmp_path / p.name).write_text(p.read_text())
    with open(tmp_path / "nets.py", "a") as fh:
        fh.write("\n\nUNREAD = 1\n\n\ndef _unread():\n    return UNREAD\n")
    assert [d.split()[1] for d in dead_names(tmp_path)] == ["_unread"]
