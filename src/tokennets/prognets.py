"""Program nets: a net plus an address map on its inputs plus a memory.

The inputs of a net are its surface one-node conclusions together with any
bot-typed net conclusions; `ind` maps a subset of them injectively to memory
addresses (a one node with an address is *active*).  Reduction extends the
net rules with three memory-coupled families: Link activates a one node at a
fresh address, Update fires a sync node and applies its labeled operation to
the premises' addresses, and Test fires a choice-box cut by testing the
guarding one node's address, routing false to the left content and true to
the right.  Together these form a probabilistic rewrite system whose
elements compare equal up to graph isomorphism and address permutation.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .memory import canonical_addresses, fresh
from .nets import (InvalidNetError, Net, NetRedex, find_redexes, reduce, reduce_test,
                   refreshed_surface)


@dataclass(frozen=True)
class PnRedex:
    kind: str  # link | net
    node: int | None = None
    net_redex: NetRedex | None = None


class ProgramNet:
    """Triple of net, address map, and memory.  Only the closure that owns
    one (see `own`) changes it, and only until it exposes it.

    `unlinked` is a heap of node ids that holds every top-level `one` node
    without an address, and may hold linked ones too.  It belongs to the
    program net, not to the `Net`, because one `Net` may sit under several
    address maps.  The constructor builds it from the level's nodes, and
    `rewrite` adds the `one` nodes each rule copies in, read from the
    level's `added_ones`."""

    __slots__ = ("net", "ind", "memory", "unlinked", "_key", "_hash")

    def __init__(self, net: Net, ind: dict[int, int], memory):
        self.net = net
        self.ind = dict(ind)
        self.memory = memory
        if len(set(self.ind.values())) != len(self.ind):
            raise ValueError(f"address map not injective: {self.ind}")
        self.unlinked = [nid for nid, n in net.nodes.items()
                         if n.kind == "one" and n.concl[0] not in self.ind]
        heapify(self.unlinked)
        net.surface.added_ones.clear()  # the heap holds them all
        self._key = None
        self._hash = None

    def canonical_key(self):
        """(net signature, address map, renamed memory).  Inputs are
        numbered by the top level's traversal, and addresses canonically
        with the inputs' addresses first, in that order."""
        if self._key is None:
            edge_no, node_no = self.net.traversal()
            order = sorted(self.ind, key=edge_no.__getitem__)
            sigma = canonical_addresses([self.ind[e] for e in order], self.memory)
            ind_c = tuple((edge_no[e], sigma[self.ind[e]]) for e in order)
            self._key = (self.net.numbered_signature(edge_no, node_no), ind_c,
                         self.memory.rename(sigma))
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, ProgramNet) and self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.canonical_key())
        return self._hash

    def __repr__(self) -> str:
        return f"ProgramNet(nodes={len(self.net.nodes)}, ind={self.ind}, memory={self.memory!r})"


def enumerate_redexes(pn: ProgramNet) -> list[PnRedex]:
    """The choices of `pn`: its test redexes in `find_redexes` order, each
    once its one node is linked."""
    nodes, ind = pn.net.nodes, pn.ind
    return [PnRedex("net", net_redex=r) for r in find_redexes(pn.net)
            if r.kind == "test" and nodes[r.nodes[2]].concl[0] in ind]


def next_det(pn: ProgramNet) -> PnRedex | None:
    """The first deterministic redex of `pn`: the least link (by node id),
    else the least net redex other than a test.  Each is the first valid
    entry of a heap, `pn.unlinked` and the level's `ready`, and a stale
    entry at the top is dropped for good.  With every top-level one node
    linked, every sync redex is ready."""
    unlinked, nodes, ind = pn.unlinked, pn.net.nodes, pn.ind
    while unlinked:
        if nodes[unlinked[0]].concl[0] not in ind:
            return PnRedex("link", node=unlinked[0])
        heappop(unlinked)
    ix = refreshed_surface(pn.net)
    ready, redex = ix.ready, ix.redex
    while ready:
        kind, ids = ready[0]
        r = redex.get(ids[0])
        if r is not None and r.nodes == ids and r.kind == kind:
            return PnRedex("net", net_redex=r)
        heappop(ready)
    return None


def own(pn: ProgramNet) -> ProgramNet:
    """An equal program net with a private copy of the net and of the
    address map, which `rewrite` may then change in place."""
    return ProgramNet(copy.deepcopy(pn.net), pn.ind, pn.memory)


def rewrite(pn: ProgramNet, r: PnRedex) -> ProgramNet:
    """Fire a deterministic redex, changing `pn` (its net, address map,
    memory and `unlinked`) in place, and return it: `pn` must be private
    to the caller (see `own`)."""
    if r.kind == "link":
        pn.ind[pn.net.nodes[r.node].concl[0]] = fresh(pn.memory, set(pn.ind.values()))
        return pn
    nr = r.net_redex
    if nr.kind == "sync":
        sync = pn.net.nodes[nr.nodes[0]]
        pn.memory = pn.memory.update(tuple(pn.ind[e] for e in sync.prem), sync.label)
    reduce(pn.net, nr)
    added = pn.net.surface.added_ones
    for nid in added:
        heappush(pn.unlinked, nid)
    added.clear()
    # A sync keeps its premises; no other rule may consume an input.
    if not pn.ind.keys() <= pn.net.edges.keys():
        raise InvalidNetError(f"{nr.kind} step consumed an input")
    return pn


def step(pn: ProgramNet, r: PnRedex) -> list[tuple[ProgramNet, float]]:
    """Fire a test redex: the reducts with their probabilities.  `pn` is
    left unchanged, and each reduct has a net of its own.  Any other redex
    raises `ValueError`: `rewrite` fires it."""
    nr = r.net_redex
    if nr is None or nr.kind != "test":
        raise ValueError(f"{nr.kind if nr else r.kind} redex does not branch: use rewrite")
    one_edge = pn.net.nodes[nr.nodes[2]].concl[0]
    i = pn.ind[one_edge]
    out = []
    for (outcome, m2), p in pn.memory.test(i):
        branch = reduce_test(copy.deepcopy(pn.net), nr, 1 if outcome else 0)
        ind2 = {e: a for e, a in pn.ind.items() if e in branch.edges}
        out.append((ProgramNet(branch, ind2, m2), p))
    return out


class PnSystem:
    """Program nets as a probabilistic rewrite system."""

    def enumerate_redexes(self, pn: ProgramNet) -> list[PnRedex]:
        return enumerate_redexes(pn)

    def next_det(self, pn: ProgramNet) -> PnRedex | None:
        return next_det(pn)

    def apply(self, pn: ProgramNet, r: PnRedex) -> list[tuple[ProgramNet, float]]:
        return step(pn, r)

    def own(self, pn: ProgramNet) -> ProgramNet:
        return own(pn)

    def step_det(self, pn: ProgramNet, r: PnRedex) -> ProgramNet:
        return rewrite(pn, r)
