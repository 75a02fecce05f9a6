"""Typed proof nets with exponential boxes, fixpoint boxes, choice boxes and
synchronization nodes, plus their surface reduction rules.

A net is a typed graph: every edge is the conclusion of exactly one node and
the premise of at most one node (edges without a consumer are the net's
conclusions).  Boxes own nested content nets: an exponential box wraps a
single content whose first conclusion is its principal formula; a fixpoint
box additionally keeps a recursion port (a ?-typed content conclusion that is
not exposed); a choice box owns two contents, each rooted by a `bot` node,
that share the same residual interface.  Sync nodes relay tuples of positive
premises to identical conclusions and carry an operation label.

Reduction is restricted to the surface (depth 0) and exponential box steps
additionally require the box to be closed (no auxiliary conclusions).  A
closed box cut against an auxiliary conclusion of another box is absorbed
into that box's content(s), which is what lets nested boxes unblock.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from heapq import heappush
from typing import Iterator

from .memory import OperationLabel

# ---------------------------------------------------------------------------
# Formulas


class Formula:
    """An immutable formula.  Its hash is computed once, when it is built,
    from the cached hashes of its subformulas."""

    __slots__ = ("kind", "sub", "_hash")

    def __init__(self, kind: str, sub: tuple["Formula", ...] = ()):
        self.kind = kind  # one | bot | tensor | par | bang | quest
        self.sub = sub
        self._hash = hash((kind, *[s._hash for s in sub]))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Formula) and self._hash == other._hash
                                 and self.kind == other.kind and self.sub == other.sub)

    def __repr__(self) -> str:
        if self.kind == "one":
            return "1"
        if self.kind == "bot":
            return "_|_"
        if self.kind == "tensor":
            return f"({self.sub[0]}*{self.sub[1]})"
        if self.kind == "par":
            return f"({self.sub[0]}|{self.sub[1]})"
        if self.kind == "bang":
            return f"!{self.sub[0]}"
        return f"?{self.sub[0]}"


ONE = Formula("one")
BOT = Formula("bot")


def tensor(a: Formula, b: Formula) -> Formula:
    return Formula("tensor", (a, b))


def par(a: Formula, b: Formula) -> Formula:
    return Formula("par", (a, b))


def bang(a: Formula) -> Formula:
    return Formula("bang", (a,))


def quest(a: Formula) -> Formula:
    return Formula("quest", (a,))


_DUAL = {"one": "bot", "bot": "one", "tensor": "par", "par": "tensor", "bang": "quest", "quest": "bang"}


def neg(a: Formula) -> Formula:
    return Formula(_DUAL[a.kind], tuple(neg(s) for s in a.sub))


def is_positive(a: Formula) -> bool:
    return a.kind in ("one", "tensor", "bang")


# ---------------------------------------------------------------------------
# Graph structure

_ids = itertools.count()


def fresh_id() -> int:
    return next(_ids)


BOX_KINDS = ("bangbox", "ybox", "botbox")


@dataclass
class Node:
    nid: int
    kind: str
    concl: list[int] = field(default_factory=list)
    prem: list[int] = field(default_factory=list)
    label: OperationLabel | None = None
    contents: list["Net"] = field(default_factory=list)


class SurfaceIndex:
    """The edge endpoints of one level, and what `find_redexes` and
    `prognets.next_det` need of it.  The checkers build a fresh one from
    the nodes.

    `concluder` and `consumer` map each edge to the id of the node that
    concludes it and of the node that consumes it; an edge concluded or
    consumed twice raises `InvalidNetError`.  `added_ones` lists the `one`
    nodes that `add` brought in since its reader last cleared it (`rewrite`
    feeds a program net's `unlinked` heap from it).  `redex` has an entry
    for every cut and sync node: its redex or None, valid unless the node
    is in `dirty`.  A cut's redex depends only on the nodes that conclude
    its premises (a sync's too), so a change there marks it dirty (`touch`).
    A node's conclusions are fresh edges when it is added, and a rule that
    removes the concluder of a premise then renames that premise, which
    touches it; so `add` and `remove` touch no other node.

    `ready` is a heap of `NetRedex.sort_key` entries, `(kind, nodes)`,
    that holds one for every non-`test` redex in `redex` once the level
    is refreshed (`refreshed_surface` pushes each redex it classifies).
    An entry whose cut or sync node no longer has that redex is stale, and
    its reader drops it when it reaches the top; node ids are never
    reused, so the first entry that `redex` still holds is the least
    non-`test` redex of the level."""

    __slots__ = ("concluder", "consumer", "added_ones", "redex", "dirty", "ready")

    def __init__(self, nodes=()):
        self.concluder: dict[int, int] = {}
        self.consumer: dict[int, int] = {}
        self.added_ones: list[int] = []
        self.redex: dict[int, NetRedex | None] = {}
        self.dirty: set[int] = set()
        self.ready: list[tuple[str, tuple[int, ...]]] = []
        for n in nodes:
            self.add(n)
        self.added_ones.clear()

    def copy(self) -> "SurfaceIndex":
        clone = SurfaceIndex()
        clone.concluder = dict(self.concluder)
        clone.consumer = dict(self.consumer)
        clone.added_ones = list(self.added_ones)
        clone.redex = dict(self.redex)
        clone.dirty = set(self.dirty)
        clone.ready = list(self.ready)
        return clone

    def touch(self, eid: int) -> None:
        """The node concluding `eid` changed: reclassify its consumer."""
        nid = self.consumer.get(eid)
        if nid in self.redex:
            self.dirty.add(nid)

    def add(self, n: Node) -> None:
        for e in n.prem:
            if e in self.consumer:
                raise InvalidNetError(f"edge {e} consumed twice")
            self.consumer[e] = n.nid
        for e in n.concl:
            if e in self.concluder:
                raise InvalidNetError(f"edge {e} concluded twice")
            self.concluder[e] = n.nid
        if n.kind == "one":
            self.added_ones.append(n.nid)
        if n.kind in ("cut", "sync"):
            self.redex[n.nid] = None
            self.dirty.add(n.nid)

    def remove(self, n: Node) -> None:
        for e in n.prem:
            self.consumer.pop(e, None)
        for e in n.concl:
            self.concluder.pop(e, None)
        self.redex.pop(n.nid, None)
        self.dirty.discard(n.nid)


class Signature:
    """The canonical form of a box content, hashed once.  A content's
    signature holds those of its own contents as `Signature`s, so hashing
    it does not walk the levels below."""

    __slots__ = ("value", "_hash")

    def __init__(self, value):
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Signature) and self._hash == other._hash
                                 and self.value == other.value)


class Net:
    """One level of a net; boxes own nested Net contents.

    `edges` maps each edge id of the level to its formula, and
    `conclusions` is the ordered interface: edges with no consumer at this
    level.  Node and edge identifiers are unique within a level; one
    content may sit in several boxes, so they are not unique across
    levels.

    A box's content is an immutable value that copies of the box share:
    no rule changes a `Net` in place once it is a box's content.  A rule
    that opens or copies a box copies the nodes straight into the level
    (`copy_in`), and one that changes a content first gives the box private
    copies (`own_contents`).
    So copying a level (`copy.deepcopy`) copies that level and its
    surface index only, and a content keeps its signature once computed
    (`content_signature`).

    Every level has its `SurfaceIndex` (`surface`) from birth, and its
    methods keep it up to date, so that a rule costs what it touches: its
    nodes' `concl`/`prem`/`contents` and its `nodes` change only through
    these methods.
    """

    __slots__ = ("nodes", "edges", "conclusions", "surface", "_sig")

    def __init__(self, nodes=(), edges=(), conclusions=()):
        self.nodes: dict[int, Node] = {n.nid: n for n in nodes}
        self.edges: dict[int, Formula] = dict(edges)
        self.conclusions: list[int] = list(conclusions)
        self.surface = SurfaceIndex(self.nodes.values())
        self._sig: Signature | None = None

    def add_node(self, kind, concl_types, prem=(), label=None, contents=()) -> Node:
        """Create a node with fresh conclusion edges of the given types."""
        concl = []
        for t in concl_types:
            eid = fresh_id()
            self.edges[eid] = t
            concl.append(eid)
        node = Node(fresh_id(), kind, concl, list(prem), label, list(contents))
        self.surface.add(node)
        self.nodes[node.nid] = node
        return node

    def replace_edge_ref(self, old: int, new: int) -> None:
        """Point the references to edge `old`, whose concluder the rule has
        removed, at edge `new`, dropping `old`.  Only the other endpoint of
        `old` changes: its consumer or, if it has none, the level's
        conclusions."""
        ix = self.surface
        _require(old not in ix.concluder, f"edge {old} is still concluded")
        dst = ix.consumer.pop(old, None)
        if dst is None:
            self.conclusions[self.conclusions.index(old)] = new
        else:
            _require(new not in ix.consumer, f"edge {new} would be consumed twice")
            prem = self.nodes[dst].prem
            prem[prem.index(old)] = new
            ix.consumer[new] = dst
        ix.touch(new)
        del self.edges[old]

    def remove_node(self, nid: int) -> None:
        self.surface.remove(self.nodes.pop(nid))

    def remove_door(self, box: Node, eid: int) -> None:
        """Drop auxiliary conclusion `eid` of `box`, whose consumer is gone.
        The box's closedness and ports change, so the cuts on its other
        conclusions are reclassified."""
        box.concl.remove(eid)
        del self.edges[eid]
        del self.surface.concluder[eid]
        for e in box.concl:
            self.surface.touch(e)

    def copy_in(self, nodes, edges: dict[int, Formula], conclusions) -> list[int]:
        """Copy `nodes`, whose edges and their formulas `edges` lists, into
        this level under fresh ids, sharing their box contents, and return
        the new ids of `conclusions`.  Ids are drawn in `edges` order, then
        one per node."""
        emap = {e: fresh_id() for e in edges}
        for e, t in edges.items():
            self.edges[emap[e]] = t
        for n in nodes:
            node = Node(fresh_id(), n.kind, [emap[e] for e in n.concl], [emap[e] for e in n.prem],
                        n.label, list(n.contents))
            self.surface.add(node)
            self.nodes[node.nid] = node
        return [emap[e] for e in conclusions]

    def renamed(self) -> "Net":
        """A copy of this level with fresh node and edge identifiers.  It
        shares the box contents, so it costs the size of this level only."""
        clone = Net()
        clone.conclusions = clone.copy_in(self.nodes.values(), self.edges, self.conclusions)
        return clone

    def own_contents(self, box: Node) -> list["Net"]:
        """Give `box`, a node of this level, private `renamed` copies of its
        contents and return them, for the calling rule to change."""
        box.contents = [c.renamed() for c in box.contents]
        return box.contents

    def __deepcopy__(self, memo):
        clone = Net.__new__(Net)
        clone.nodes = {
            nid: Node(nid, n.kind, list(n.concl), list(n.prem), n.label, list(n.contents))
            for nid, n in self.nodes.items()
        }
        clone.edges = dict(self.edges)
        clone.conclusions = list(self.conclusions)
        clone.surface = self.surface.copy()
        clone._sig = None
        return clone

    # -- traversal and canonical signature ---------------------------------

    def levels(self) -> Iterator[tuple[tuple[tuple[int, int], ...], "Net"]]:
        """Yield `(path, level)` for this net and every box content below
        it, depth first in node order, each level before its contents.  A
        path lists the `(box node id, content index)` pairs from this net
        down, so a content that sits in two boxes is yielded once under
        each.  The walk keeps an explicit stack, so nesting depth is not
        bounded by Python's recursion limit."""
        stack = [((), self)]
        while stack:
            path, level = stack.pop()
            yield path, level
            inner = [(path + ((nid, ci),), c) for nid, n in level.nodes.items() if n.contents
                     for ci, c in enumerate(n.contents)]
            stack.extend(reversed(inner))

    def traversal(self) -> tuple[dict[int, int], dict[int, int]]:
        """Deterministic numbering of this level's nodes and edges.

        Starts from the conclusion edges in interface order and walks the
        undirected graph, visiting each node's conclusion edges before its
        premises.  Returns (edge numbering, node numbering), each in
        numbering order; raises `InvalidNetError` unless everything at
        this level was reached.  Reads the edges' endpoints from the
        surface index.
        """
        concluder, consumer = self.surface.concluder, self.surface.consumer
        edge_no: dict[int, int] = {}
        node_no: dict[int, int] = {}
        queue: deque[int] = deque(self.conclusions)
        while queue:
            eid = queue.popleft()
            if eid in edge_no:
                continue
            edge_no[eid] = len(edge_no)
            for nid in (concluder.get(eid), consumer.get(eid)):
                if nid is None or nid in node_no:
                    continue
                node_no[nid] = len(node_no)
                node = self.nodes[nid]
                queue.extend(node.concl)
                queue.extend(node.prem)
        _require(len(node_no) == len(self.nodes), "net has nodes unreachable from its conclusions")
        _require(len(edge_no) == len(self.edges), "net has edges unreachable from its conclusions")
        return edge_no, node_no

    def signature(self):
        """Canonical nested-tuple form; equal for isomorphic nets.  Box
        contents appear as their `content_signature`."""
        return self.numbered_signature(*self.traversal())

    def numbered_signature(self, edge_no: dict[int, int], node_no: dict[int, int]):
        """`signature`, given this level's `traversal` numbering."""
        nodes = self.nodes
        rows = []
        for nid in node_no:
            n = nodes[nid]
            rows.append((
                n.kind,
                n.label,
                tuple([edge_no[e] for e in n.concl]),
                tuple([edge_no[e] for e in n.prem]),
                tuple([c.content_signature() for c in n.contents]) if n.contents else (),
            ))
        types = tuple([self.edges[e] for e in edge_no])
        return (tuple(rows), types, tuple([edge_no[e] for e in self.conclusions]))

    def content_signature(self) -> Signature:
        """This level's signature as a box content, computed on first use
        and kept, since a content never changes.  Unsigned contents below
        it are signed first, bottom-up with an explicit stack, so nesting
        depth is not bounded by Python's recursion limit."""
        stack, opened = [self], set()
        while stack:
            net = stack[-1]
            if net._sig is not None:
                stack.pop()
            elif id(net) in opened:  # back on top: everything below is signed
                stack.pop()
                net._sig = Signature(net.signature())
            else:
                opened.add(id(net))
                stack.extend(c for n in net.nodes.values() for c in n.contents if c._sig is None)
        return self._sig

    # -- debug dump --------------------------------------------------------

    def dump(self, indent: str = "") -> str:
        edge_no, node_no = {}, {}
        try:
            edge_no, node_no = self.traversal()
        except InvalidNetError:
            edge_no = {e: i for i, e in enumerate(self.edges)}
            node_no = {n: i for i, n in enumerate(self.nodes)}
        lines = []
        lines.append(indent + "conclusions: " + ", ".join(
            f"e{edge_no[e]}:{self.edges[e]}" for e in self.conclusions))
        for n in sorted(self.nodes.values(), key=lambda n: node_no[n.nid]):
            label = f" [{n.label.name}/{n.label.arity}]" if n.label else ""
            lines.append(
                indent
                + f"n{node_no[n.nid]} {n.kind}{label}"
                + " concl(" + ", ".join(f"e{edge_no[e]}:{self.edges[e]}" for e in n.concl) + ")"
                + (" prem(" + ", ".join(f"e{edge_no[e]}" for e in n.prem) + ")" if n.prem else "")
            )
            tags = ("left", "right") if n.kind == "botbox" else ("content",)
            for tag, c in zip(tags, n.contents):
                lines.append(indent + f"  {tag}:")
                lines.append(c.dump(indent + "    "))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Well-formedness


class InvalidNetError(Exception):
    """A net breaks a structural or typing invariant."""


def _require(ok, message: str) -> None:
    if not ok:
        raise InvalidNetError(message)


def validate(net: Net) -> None:
    """Check the structural and typing invariants of every level, in
    `Net.levels` order, and raise `InvalidNetError` naming the first
    broken one."""
    for _, level in net.levels():
        _validate_level(level)


def _validate_level(net: Net) -> None:
    """Check one level, its boxes' interfaces included, against a fresh
    `SurfaceIndex` of what its nodes say, not against the index the level
    keeps."""
    ix = SurfaceIndex(net.nodes.values())
    concluded, consumed = ix.concluder, ix.consumer
    conclusions = set(net.conclusions)
    for eid in net.edges:
        if eid not in concluded:
            raise InvalidNetError(f"edge {eid} is conclusion of no node")
        if eid in consumed and eid in conclusions:
            raise InvalidNetError(f"net conclusion {eid} has a consumer")
        if eid not in consumed and eid not in conclusions:
            raise InvalidNetError(f"dangling edge {eid} not listed as conclusion")
    for n in net.nodes.values():
        t = [net.edges[e] for e in n.concl]
        p = [net.edges[e] for e in n.prem]
        if n.kind == "ax":
            _require(len(t) == 2 and not p and t[0] == neg(t[1]), "bad ax")
        elif n.kind == "cut":
            _require(not t and len(p) == 2 and p[0] == neg(p[1]), "bad cut")
        elif n.kind == "tensor":
            _require(len(t) == 1 and len(p) == 2 and t[0] == tensor(p[0], p[1]), "bad tensor")
        elif n.kind == "par":
            _require(len(t) == 1 and len(p) == 2 and t[0] == par(p[0], p[1]), "bad par")
        elif n.kind == "one":
            _require(t == [ONE] and not p, "bad one")
        elif n.kind == "bot":
            _require(t == [BOT] and not p, "bad bot")
        elif n.kind == "der":
            _require(len(t) == 1 and len(p) == 1 and t[0] == quest(p[0]), "bad dereliction")
        elif n.kind == "weak":
            _require(len(t) == 1 and not p and t[0].kind == "quest", "bad weakening")
        elif n.kind == "contr":
            _require(
                len(p) == 2 and t == [p[0]] and p[0] == p[1] and t[0].kind == "quest",
                "bad contraction",
            )
        elif n.kind == "sync":
            _require(n.label is not None and len(t) == len(p) and t == p, "bad sync interface")
            _require(all(is_positive(x) for x in p), "sync premises must be positive")
            _require(sum(count_units(x) for x in p) == n.label.arity, "sync label arity mismatch")
        elif n.kind == "bangbox":
            (content,) = n.contents
            ct = [content.edges[e] for e in content.conclusions]
            _require(t and t[0] == bang(ct[0]), "bad exponential box principal")
            _require(t[1:] == ct[1:] and all(x.kind == "quest" for x in t[1:]),
                     "bad box auxiliaries")
        elif n.kind == "ybox":
            (content,) = n.contents
            ct = [content.edges[e] for e in content.conclusions]
            _require(len(ct) >= 2 and t and t[0] == bang(ct[0]), "bad fixpoint box principal")
            _require(ct[1] == quest(neg(ct[0])), "bad fixpoint recursion port")
            _require(t[1:] == ct[2:] and all(x.kind == "quest" for x in t[1:]),
                     "bad box auxiliaries")
        elif n.kind == "botbox":
            left, right = n.contents
            _require(t and t[0] == BOT and len(t) >= 2, "choice box needs a residual interface")
            for c in (left, right):
                ct = [c.edges[e] for e in c.conclusions]
                _require(ct == t, "choice box contents must mirror the box interface")
                root = SurfaceIndex(c.nodes.values()).concluder.get(c.conclusions[0])
                _require(root is not None and c.nodes[root].kind == "bot",
                         "choice box content must be rooted by bot")
        else:
            raise InvalidNetError(f"unknown node kind {n.kind}")


def count_units(a: Formula) -> int:
    if a.kind == "one":
        return 1
    if a.kind == "tensor":
        return count_units(a.sub[0]) + count_units(a.sub[1])
    return 0


# ---------------------------------------------------------------------------
# Correctness (switching acyclicity)

def check_correct(net: Net) -> str | None:
    """Return None if no switching of any level is cyclic, else a description.

    A switching keeps exactly one premise of every par/contraction node and
    exactly one conclusion of every sync node with more than one; the
    remaining undirected graph of the level must be acyclic.  Each level is
    decided exactly by `cyclic_switching_block`, boxes opaque at their own
    level, in `Net.levels` order.  The description of a cyclic level inside
    boxes starts with one `inside box N: ` per box of its path.
    """
    for path, level in net.levels():
        block = cyclic_switching_block(level)
        if block:
            prefix = "".join(f"inside box {nid}: " for nid, _ in path)
            return f"{prefix}cyclic switching path at depth 0 among nodes {sorted(block)}"
    return None


def cyclic_switching_block(net: Net) -> frozenset[int]:
    """The nodes of a block of this level that holds a cyclic switching, or an
    empty set if no switching of this level is cyclic.

    The level is an undirected multigraph: its vertices are the level's
    nodes and its edges the net edges with a concluder and a consumer here
    (boxes are opaque vertices).  Each par/contraction node has a switch
    group made of its premises, and each sync node with more than one
    conclusion a group made of its conclusions.  A switching keeps one edge
    of every group, so some switching is cyclic exactly when some simple
    cycle never uses two edges of one group at that group's node: a
    compatible cycle.  A self-loop is one: some switching keeps it.

    Compatible cycles are found by block peeling.  A simple cycle lies in
    one biconnected block.  In a block, a node whose block edges all lie in
    its own group is on no compatible cycle of that block, so it is deleted
    and what is left is split into blocks again.  A block with a cycle and
    no such node holds a compatible cycle, by Yeo, "A note on alternating
    cycles in edge-coloured graphs" (JCTB 1997): an edge-coloured graph
    without a properly coloured cycle has a vertex z such that each
    component of the graph minus z is joined to z by edges of one colour.
    Subdividing every edge turns the switch groups into colour classes and
    compatible cycles into properly coloured ones; in a biconnected block
    with a cycle, z can only be a node all of whose block edges share one
    class, which is a group as the block has minimum degree two.  Each
    round deletes at least one node, so the decision takes polynomial time.
    The nodes returned are those of a block with no node to delete.
    """
    ix = SurfaceIndex(net.nodes.values())  # what the nodes say
    group: dict[int, frozenset[int]] = {}  # switched node -> its switch group
    for n in net.nodes.values():
        if n.kind in ("par", "contr"):
            group[n.nid] = frozenset(n.prem)
        elif n.kind == "sync" and len(n.concl) > 1:
            group[n.nid] = frozenset(n.concl)

    ends: dict[int, tuple[int, int]] = {}  # graph edge -> its two nodes
    for eid, u in ix.concluder.items():
        v = ix.consumer.get(eid)
        if v is None:
            continue
        if u == v:
            return frozenset((u,))  # a switching that keeps this loop is cyclic
        ends[eid] = (u, v)

    work = [list(ends)]
    while work:
        for block in _blocks(work.pop(), ends):
            if len(block) < 2:
                continue  # a bridge is on no cycle
            at: dict[int, list[int]] = {}  # node -> its block edges
            for e in block:
                for x in ends[e]:
                    at.setdefault(x, []).append(e)
            peel = {x for x, es in at.items() if x in group and group[x].issuperset(es)}
            if not peel:
                return frozenset(at)
            work.append([e for e in block if ends[e][0] not in peel and ends[e][1] not in peel])
    return frozenset()


def _blocks(edges: list[int], ends: dict[int, tuple[int, int]]) -> list[list[int]]:
    """The biconnected blocks of the multigraph made of `edges`, as edge lists.

    Iterative Tarjan: depth-first search with an edge stack.  The search
    leaves a node by the id of the edge it came in on, not by its parent
    node, so parallel edges close cycles."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for e in edges:
        u, v = ends[e]
        adj.setdefault(u, []).append((e, v))
        adj.setdefault(v, []).append((e, u))
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    blocks: list[list[int]] = []
    for root in adj:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        stack = [(root, None, iter(adj[root]))]  # (node, edge it came in on, rest of its edges)
        estack: list[int] = []
        while stack:
            v, via, rest = stack[-1]
            for e, w in rest:
                if e == via:
                    continue
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    estack.append(e)
                    stack.append((w, e, iter(adj[w])))
                    break
                if disc[w] < disc[v]:  # a back edge to an ancestor
                    estack.append(e)
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:  # u separates v's subtree: one block
                        block = []
                        while True:
                            e = estack.pop()
                            block.append(e)
                            if e == via:
                                break
                        blocks.append(block)
    return blocks


# ---------------------------------------------------------------------------
# Redexes


@dataclass(frozen=True)
class NetRedex:
    kind: str  # ax | tensor_par | d_box | w_box | c_box | y_unfold | absorb | test | sync
    nodes: tuple[int, ...]  # participating node ids (cut first where applicable)

    def sort_key(self):
        return (self.kind, self.nodes)


def _box_is_closed(n: Node) -> bool:
    return len(n.concl) == 1


def refreshed_surface(net: Net) -> SurfaceIndex:
    """The surface index of `net` with every cached redex up to date, and a
    `ready` entry for each non-`test` one.  Only the cut and sync nodes
    that the rules since the last call marked dirty are classified again."""
    ix = net.surface
    nodes, concluder, redex, ready = net.nodes, ix.concluder, ix.redex, ix.ready
    for nid in ix.dirty:
        r = redex[nid] = _classify(nodes, concluder, nodes[nid])
        if r is not None and r.kind != "test":
            heappush(ready, (r.kind, r.nodes))
    ix.dirty.clear()
    return ix


def find_redexes(net: Net) -> list[NetRedex]:
    """The surface redexes of `net`, in `NetRedex.sort_key` order."""
    redexes = refreshed_surface(net).redex.values()
    return sorted((r for r in redexes if r is not None), key=NetRedex.sort_key)


def _classify(nodes: dict[int, Node], concluder: dict[int, int], n: Node) -> NetRedex | None:
    """The redex of cut or sync node `n`, if it is one."""
    if n.kind == "sync":
        if all(nodes[concluder[e]].kind == "one" for e in n.prem):
            return NetRedex("sync", (n.nid,))
        return None
    e1, e2 = n.prem
    a, b = nodes[concluder[e1]], nodes[concluder[e2]]
    if a is b and a.kind == "ax":
        return None  # degenerate ax-loop: incorrect net, not a redex
    return _classify_cut(n, e1, a, e2, b) or _classify_cut(n, e2, b, e1, a)


def _classify_cut(cut: Node, ea: int, a: Node, eb: int, b: Node) -> NetRedex | None:
    """Classify with `a` as the active (positive/principal) side."""
    if a.kind == "ax":
        return NetRedex("ax", (cut.nid, a.nid))
    if a.kind == "tensor" and b.kind == "par":
        return NetRedex("tensor_par", (cut.nid, a.nid, b.nid))
    if a.kind in ("bangbox", "ybox") and a.concl[0] == ea and _box_is_closed(a):
        if b.kind == "der":
            kind = "d_box" if a.kind == "bangbox" else "y_unfold"
            return NetRedex(kind, (cut.nid, a.nid, b.nid))
        if b.kind == "weak":
            return NetRedex("w_box", (cut.nid, a.nid, b.nid))
        if b.kind == "contr":
            return NetRedex("c_box", (cut.nid, a.nid, b.nid))
        if b.kind in BOX_KINDS and eb in b.concl[1:]:
            return NetRedex("absorb", (cut.nid, a.nid, b.nid))
    if a.kind == "botbox" and a.concl[0] == ea and b.kind == "one":
        return NetRedex("test", (cut.nid, a.nid, b.nid))
    return None


# ---------------------------------------------------------------------------
# Reduction


def reduce(net: Net, redex: NetRedex) -> Net:
    """Apply a deterministic rule to `net` in place and return it.

    The rule touches only the redex and the nodes around it, so a caller
    that must keep the old net copies it first."""
    if redex.kind == "test":
        raise ValueError("test reduction branches: use reduce_test")
    _RULES[redex.kind](net, *redex.nodes)
    return net


def reduce_test(net: Net, redex: NetRedex, side: int) -> Net:
    """Fire the choice-box cut in place, as `reduce` fires the other
    rules, keeping content `side` (0 for the false branch, 1 for the true
    one)."""
    if redex.kind != "test":
        raise ValueError(f"{redex.kind} reduction is deterministic: use reduce")
    box, _ = _remove_cut(net, *redex.nodes, "one")
    content = box.contents[side]
    concl = net.copy_in(content.nodes.values(), content.edges, content.conclusions)
    # The copy of the content's bot root goes with its conclusion edge, and
    # each other conclusion takes over the consumers of the box's door.
    net.remove_node(net.surface.concluder[concl[0]])
    del net.edges[concl[0]]
    for outer, inner in zip(box.concl[1:], concl[1:]):
        net.replace_edge_ref(outer, inner)
    return net


def _cut_sides(net: Net, cut: Node, want_nid: int) -> tuple[int, int]:
    """(edge on node want_nid's side, the other cut premise)."""
    e1, e2 = cut.prem
    concl = net.nodes[want_nid].concl
    if e1 in concl:
        return e1, e2
    _require(e2 in concl, "cut is not against the redex node")
    return e2, e1


def _remove_cut(net: Net, cut_id: int, box_id: int, other_id: int, other: str
                ) -> tuple[Node, Node]:
    """The prologue of the box rules: remove the cut between box `box_id`
    and node `other_id`, both nodes and the two cut edges, and return the
    box and the other node.  `other` names that node in the error raised
    when the cut is not against its conclusion."""
    cut, box, node = net.nodes[cut_id], net.nodes[box_id], net.nodes[other_id]
    e_box, e_other = _cut_sides(net, cut, box_id)
    _require(node.concl[0] == e_other, f"cut is not against the {other}")
    net.remove_node(cut_id)
    net.remove_node(box_id)
    net.remove_node(other_id)
    net.edges.pop(e_box)
    net.edges.pop(e_other)
    return box, node


def _reduce_ax(net: Net, cut_id: int, ax_id: int) -> None:
    cut, ax = net.nodes[cut_id], net.nodes[ax_id]
    e_ax, e_other = _cut_sides(net, cut, ax_id)
    e_o = ax.concl[0] if ax.concl[1] == e_ax else ax.concl[1]
    net.remove_node(cut_id)
    net.remove_node(ax_id)
    net.edges.pop(e_ax)
    net.replace_edge_ref(e_o, e_other)


def _reduce_tensor_par(net: Net, cut_id: int, t_id: int, p_id: int) -> None:
    t, p = net.nodes[t_id], net.nodes[p_id]
    a1, a2 = t.prem
    b1, b2 = p.prem
    for e in net.nodes[cut_id].prem:
        net.edges.pop(e)
    net.remove_node(cut_id)
    net.remove_node(t_id)
    net.remove_node(p_id)
    net.add_node("cut", [], [a1, b1])
    net.add_node("cut", [], [a2, b2])


def _open_box(net: Net, box: Node, der: Node) -> list[int]:
    """Copy the content of `box`, removed by `_remove_cut`, into the level
    and cut its principal conclusion against the premise of the
    dereliction `der`.  Returns the new ids of the content's conclusions."""
    content = box.contents[0]
    concl = net.copy_in(content.nodes.values(), content.edges, content.conclusions)
    net.add_node("cut", [], [concl[0], der.prem[0]])
    return concl


def _reduce_d_box(net: Net, cut_id: int, box_id: int, der_id: int) -> None:
    _open_box(net, *_remove_cut(net, cut_id, box_id, der_id, "dereliction"))


def _reduce_y_unfold(net: Net, cut_id: int, box_id: int, der_id: int) -> None:
    # A fresh copy of the fixpoint box, sharing its content, is cut against
    # the recursion port of the unfolded content.
    (e_box,) = net.nodes[box_id].concl
    edges = {e_box: net.edges[e_box]}
    box, der = _remove_cut(net, cut_id, box_id, der_id, "dereliction")
    (clone,) = net.copy_in([box], edges, [e_box])
    rec_port = _open_box(net, box, der)[1]
    net.add_node("cut", [], [clone, rec_port])


def _reduce_w_box(net: Net, cut_id: int, box_id: int, weak_id: int) -> None:
    _remove_cut(net, cut_id, box_id, weak_id, "weakening")


def _reduce_c_box(net: Net, cut_id: int, box_id: int, contr_id: int) -> None:
    (e_box,) = net.nodes[box_id].concl
    edges = {e_box: net.edges[e_box]}
    box, contr = _remove_cut(net, cut_id, box_id, contr_id, "contraction")
    for q in contr.prem:
        # O(1): the copies share the box's content.
        (clone,) = net.copy_in([box], edges, [e_box])
        net.add_node("cut", [], [clone, q])


def _reduce_absorb(net: Net, cut_id: int, box_id: int, target_id: int) -> None:
    """Move a closed box through an auxiliary door into the target box."""
    cut, box, target = net.nodes[cut_id], net.nodes[box_id], net.nodes[target_id]
    e_box, e_aux = _cut_sides(net, cut, box_id)
    aux_port = target.concl.index(e_aux)
    _require(aux_port >= 1, "absorbing box is cut against a principal door")
    edges = {e_box: net.edges[e_box]}
    net.remove_node(cut_id)
    net.remove_node(box_id)
    net.edges.pop(e_box)
    net.remove_door(target, e_aux)
    # The target's contents may be shared with other copies of it: the
    # rule changes private copies.
    contents = net.own_contents(target)
    if target.kind == "botbox":
        ports = [aux_port] * 2
    else:
        # Exponential content conclusions are [principal, aux...]; fixpoint
        # ones are [principal, recursion port, aux...].
        ports = [aux_port + (1 if target.kind == "ybox" else 0)]
    for content, port in zip(contents, ports):
        caux = content.conclusions[port]
        holder = content.surface.concluder[caux]
        if content.nodes[holder].kind == "weak":
            # A closed box against a bare weakening erases; copying it in
            # would leave a floating component, so erase it right away.
            content.remove_node(holder)
            content.edges.pop(caux)
            content.conclusions.remove(caux)
            continue
        (clone,) = content.copy_in([box], edges, [e_box])
        content.add_node("cut", [], [clone, caux])
        content.conclusions.remove(caux)


def _reduce_sync(net: Net, sync_id: int) -> None:
    sync = net.nodes[sync_id]
    prems, concls = list(sync.prem), list(sync.concl)
    net.remove_node(sync_id)
    for p, c in zip(prems, concls):
        net.replace_edge_ref(c, p)


_RULES = {
    "ax": _reduce_ax,
    "tensor_par": _reduce_tensor_par,
    "d_box": _reduce_d_box,
    "w_box": _reduce_w_box,
    "c_box": _reduce_c_box,
    "y_unfold": _reduce_y_unfold,
    "absorb": _reduce_absorb,
    "sync": _reduce_sync,
}
