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

from .memory import canonical_addresses, fresh
from .nets import (InvalidNetError, Net, NetRedex, find_redexes, reduce, reduce_test,
                   refreshed_surface)


@dataclass(frozen=True)
class PnRedex:
    kind: str  # link | net
    node: int | None = None
    net_redex: NetRedex | None = None

    def sort_key(self):
        if self.kind == "link":
            return (0, "link", (self.node,))
        return (1,) + self.net_redex.sort_key()


class ProgramNet:
    """Triple of net, address map, and memory.  Only the closure that owns
    one (see `own`) changes it, and only until it exposes it."""

    __slots__ = ("net", "ind", "memory", "_key", "_hash")

    def __init__(self, net: Net, ind: dict[int, int], memory):
        self.net = net
        self.ind = dict(ind)
        self.memory = memory
        if len(set(self.ind.values())) != len(self.ind):
            raise ValueError(f"address map not injective: {self.ind}")
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


def _unlinked(pn: ProgramNet):
    """The ids of the top-level one nodes without an address."""
    nodes = pn.net.nodes
    return (nid for nid in pn.net.surface.ones if nodes[nid].concl[0] not in pn.ind)


def enumerate_redexes(pn: ProgramNet) -> list[PnRedex]:
    """Links of the top-level one nodes without an address, and the net
    redexes; a test or sync redex waits until its one nodes are linked.
    Links by node id, then net redexes in `find_redexes` order: the
    `PnRedex.sort_key` order."""
    net = pn.net
    out = [PnRedex("link", node=nid) for nid in sorted(_unlinked(pn))]
    for r in find_redexes(net):
        if r.kind == "test":
            ready = net.nodes[r.nodes[2]].concl[0] in pn.ind
        elif r.kind == "sync":
            ready = all(e in pn.ind for e in net.nodes[r.nodes[0]].prem)
        else:
            ready = True
        if ready:
            out.append(PnRedex("net", net_redex=r))
    return out


def next_det(pn: ProgramNet) -> PnRedex | None:
    """The first non-test redex of `enumerate_redexes(pn)`, without the
    list: the least link, else the least net redex other than a test.  With
    every top-level one node linked, every sync redex is ready."""
    link = min(_unlinked(pn), default=None)
    if link is not None:
        return PnRedex("link", node=link)
    redexes = refreshed_surface(pn.net).redex.values()
    r = min((r for r in redexes if r is not None and r.kind != "test"),
            key=NetRedex.sort_key, default=None)
    return None if r is None else PnRedex("net", net_redex=r)


def own(pn: ProgramNet) -> ProgramNet:
    """An equal program net with a private copy of the net and of the
    address map, which `rewrite` may then change in place."""
    return ProgramNet(copy.deepcopy(pn.net), pn.ind, pn.memory)


def rewrite(pn: ProgramNet, r: PnRedex) -> ProgramNet:
    """Fire a non-branching redex, changing `pn` (its net, address map and
    memory) in place, and return it: `pn` must be private to the caller
    (see `own`)."""
    if r.kind == "link":
        pn.ind[pn.net.nodes[r.node].concl[0]] = fresh(pn.memory, set(pn.ind.values()))
        return pn
    nr = r.net_redex
    if nr.kind == "sync":
        sync = pn.net.nodes[nr.nodes[0]]
        pn.memory = pn.memory.update(tuple(pn.ind[e] for e in sync.prem), sync.label)
    reduce(pn.net, nr)
    # A sync keeps its premises; no other rule may consume an input.
    if not pn.ind.keys() <= pn.net.edges.keys():
        raise InvalidNetError(f"{nr.kind} step consumed an input")
    return pn


def step(pn: ProgramNet, r: PnRedex) -> list[tuple[ProgramNet, float]]:
    """Fire a redex: the reducts with their probabilities.  `pn` is left
    unchanged, and each reduct has a net of its own."""
    if r.kind == "net" and r.net_redex.kind == "test":
        nr = r.net_redex
        one_edge = pn.net.nodes[nr.nodes[2]].concl[0]
        i = pn.ind[one_edge]
        out = []
        for (outcome, m2), p in pn.memory.test(i):
            branch = reduce_test(copy.deepcopy(pn.net), nr, 1 if outcome else 0)
            ind2 = {e: a for e, a in pn.ind.items() if e in branch.edges}
            out.append((ProgramNet(branch, ind2, m2), p))
        return out
    return [(rewrite(own(pn), r), 1.0)]


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

    def is_branching(self, pn: ProgramNet, r: PnRedex) -> bool:
        return r.kind == "net" and r.net_redex.kind == "test"
