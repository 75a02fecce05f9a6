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

from . import nets
from .memory import canonical_addresses, fresh
from .pars import Distribution
from .nets import InvalidNetError, Net, NetRedex, find_redexes, reduce, reduce_test


@dataclass(frozen=True)
class PnRedex:
    kind: str  # link | net
    node: int | None = None
    net_redex: NetRedex | None = None

    def sort_key(self):
        if self.kind == "link":
            return (0, "link", (self.node,))
        return (1,) + self.net_redex.sort_key()


def inputs(net: Net) -> list[int]:
    """Surface one-node conclusions plus bot-typed net conclusions."""
    edge_no, _ = net.traversal()
    ones = {n.concl[0] for n in net.nodes.values() if n.kind == "one"}
    bots = {e for e in net.conclusions if net.typ(e) == nets.BOT}
    return sorted(ones | bots, key=lambda e: edge_no[e])


class ProgramNet:
    """Immutable-by-convention triple of net, address map, and memory."""

    __slots__ = ("net", "ind", "memory", "_key", "_hash")

    def __init__(self, net: Net, ind: dict[int, int], memory):
        self.net = net
        self.ind = dict(ind)
        self.memory = memory
        if len(set(self.ind.values())) != len(self.ind):
            raise ValueError(f"address map not injective: {self.ind}")
        self._key = None
        self._hash = None

    def _sigma(self) -> dict[int, int]:
        """Canonical address permutation: inputs in traversal order first."""
        edge_no, _ = self.net.traversal()
        order = sorted(self.ind, key=edge_no.__getitem__)
        return canonical_addresses([self.ind[e] for e in order], self.memory)

    def canonical_key(self):
        if self._key is None:
            sigma = self._sigma()
            edge_no, _ = self.net.traversal()
            ind_c = tuple(
                sorted((edge_no[e], sigma[a]) for e, a in self.ind.items())
            )
            self._key = (self.net.signature(), ind_c, self.memory.rename(sigma))
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, ProgramNet) and self.canonical_key() == other.canonical_key()

    def approx_eq(self, other, tol: float = 1e-9) -> bool:
        if not isinstance(other, ProgramNet):
            return False
        k1, k2 = self.canonical_key(), other.canonical_key()
        return k1[0] == k2[0] and k1[1] == k2[1] and k1[2].approx_eq(k2[2], tol)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.canonical_key())
        return self._hash

    def __repr__(self) -> str:
        return f"ProgramNet(nodes={len(self.net.nodes)}, ind={self.ind}, memory={self.memory!r})"


def enumerate_redexes(pn: ProgramNet) -> list[PnRedex]:
    out: list[PnRedex] = []
    linked: set[int] = set()

    def link_for(one_edge: int, concl_of) -> None:
        nid = concl_of[one_edge][0]
        if nid not in linked:
            linked.add(nid)
            out.append(PnRedex("link", node=nid))

    concl_of = pn.net.concl_of()
    for r in find_redexes(pn.net):
        if r.kind == "test":
            one_edge = pn.net.nodes[r.nodes[2]].concl[0]
            if one_edge in pn.ind:
                out.append(PnRedex("net", net_redex=r))
            else:
                link_for(one_edge, concl_of)
        elif r.kind == "sync":
            sync = pn.net.nodes[r.nodes[0]]
            missing = [e for e in sync.prem if e not in pn.ind]
            if missing:
                for e in missing:
                    link_for(e, concl_of)
            else:
                out.append(PnRedex("net", net_redex=r))
        else:
            out.append(PnRedex("net", net_redex=r))
    for n in pn.net.nodes.values():
        if n.kind == "one" and n.concl[0] not in pn.ind and n.nid not in linked:
            linked.add(n.nid)
            out.append(PnRedex("link", node=n.nid))
    return sorted(out, key=PnRedex.sort_key)


def own(pn: ProgramNet) -> ProgramNet:
    """An equal program net with a private copy of the net, which `rewrite`
    may then change in place."""
    return ProgramNet(copy.deepcopy(pn.net), pn.ind, pn.memory)


def rewrite(pn: ProgramNet, r: PnRedex) -> ProgramNet:
    """Fire a non-branching redex, rewriting `pn.net` in place.

    The reduct shares the rewritten net, so `pn` must be private to the
    caller (see `own`) and is not to be used afterwards."""
    if r.kind == "link":
        one_edge = pn.net.nodes[r.node].concl[0]
        i = fresh(pn.memory, set(pn.ind.values()))
        ind2 = dict(pn.ind)
        ind2[one_edge] = i
        return ProgramNet(pn.net, ind2, pn.memory)
    nr = r.net_redex
    if nr.kind == "sync":
        sync = pn.net.nodes[nr.nodes[0]]
        addrs = tuple(pn.ind[e] for e in sync.prem)
        m2 = pn.memory.update(addrs, sync.label)
        return ProgramNet(reduce(pn.net, nr), pn.ind, m2)
    net2 = reduce(pn.net, nr)
    ind2 = {e: a for e, a in pn.ind.items() if e in net2.edges}
    if len(ind2) != len(pn.ind):
        raise InvalidNetError(f"pure {nr.kind} step consumed an input")
    return ProgramNet(net2, ind2, pn.memory)


def step(pn: ProgramNet, r: PnRedex) -> Distribution:
    """Fire a redex, leaving `pn` unchanged."""
    if r.kind == "net" and r.net_redex.kind == "test":
        nr = r.net_redex
        one_edge = pn.net.nodes[nr.nodes[2]].concl[0]
        i = pn.ind[one_edge]
        left, right = reduce_test(pn.net, nr)
        out = []
        for (outcome, m2), p in pn.memory.test(i):
            branch = right if outcome else left
            ind2 = {e: a for e, a in pn.ind.items() if e in branch.edges}
            out.append((ProgramNet(branch, ind2, m2), p))
        return Distribution(out)
    # A link leaves the net as it is; only net rules need the private copy.
    return Distribution.dirac(rewrite(pn if r.kind == "link" else own(pn), r))


class PnSystem:
    """Program nets as a probabilistic rewrite system."""

    def enumerate_redexes(self, pn: ProgramNet) -> list[PnRedex]:
        return enumerate_redexes(pn)

    def apply(self, pn: ProgramNet, r: PnRedex) -> Distribution:
        return step(pn, r)

    def own(self, pn: ProgramNet) -> ProgramNet:
        return own(pn)

    def step_det(self, pn: ProgramNet, r: PnRedex) -> ProgramNet:
        return rewrite(pn, r)

    def is_terminal(self, pn: ProgramNet) -> bool:
        return not enumerate_redexes(pn)

    def is_branching(self, pn: ProgramNet, r: PnRedex) -> bool:
        return r.kind == "net" and r.net_redex.kind == "test"
