"""Every level of a net has a surface index from birth, and only `Net`'s own
methods keep it up to date, so nothing else in the package may change which
node concludes or consumes an edge: no store into `.nodes[...]`, and no
assignment to or in-place change of a node's `.concl`/`.prem`, not even on
a node just made (`Net.add_node` takes its premises).  Box contents are
shared between copies of a net, so only `Net`'s methods may replace a box's
`.contents` either."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tokennets"
FIELDS = {"nodes", "concl", "prem", "contents"}
IN_PLACE = {"append", "extend", "insert", "remove", "pop", "clear", "update", "setdefault",
            "popitem", "sort", "reverse", "__setitem__", "__delitem__"}


def is_field(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in FIELDS


def changes(tree: ast.AST):
    """(line, kind, owning class) of each change to a `nodes`, `concl`,
    `prem` or `contents` field; kind is "assign" for `x.concl = ...` and the
    like."""
    found = []

    def visit(node: ast.AST, owner: str | None) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        store = isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
        if store and is_field(node):
            found.append((node.lineno, "assign" if node.attr != "nodes" else "store", owner))
        elif store and isinstance(node, ast.Subscript) and is_field(node.value):
            found.append((node.lineno, "store", owner))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in IN_PLACE and is_field(node.func.value)):
            found.append((node.lineno, "call", owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def allowed(path: Path, owner: str | None) -> bool:
    return path.name == "nets.py" and owner == "Net"


def test_only_net_methods_change_edge_endpoints():
    bad = []
    for path in sorted(SRC.glob("*.py")):
        for line, kind, owner in changes(ast.parse(path.read_text(), str(path))):
            if not allowed(path, owner):
                bad.append(f"{path.name}:{line} ({kind})")
    assert not bad, f"node fields changed outside Net's methods: {bad}"


def test_guard_sees_each_kind_of_change():
    source = """
def rule(net, node, e):
    net.nodes[e] = node
    del net.nodes[e]
    net.nodes.pop(e)
    node.concl.remove(e)
    node.prem[0] = e
    node.prem = [e]
    node.concl, x = [e], 1
    node.contents[0] = net
    node.contents = [net]
    node.contents.append(net)
    net.edges[e] = None
    net.conclusions.remove(e)
"""
    kinds = [kind for _, kind, _ in changes(ast.parse(source))]
    assert kinds == ["store", "store", "call", "call", "store", "assign", "assign",
                     "store", "assign", "call"]
