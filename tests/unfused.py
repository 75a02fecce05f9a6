"""The engines unfused: every redex of an element, in the engine's order,
and a rewrite system that fires them one at a time.

An engine lists only its choices, its test redexes, and `FusedSystem`
reaches the others through `next_det`.  `full_redexes` is the oracle for
both: an engine's `enumerate_redexes` is its list filtered to tests, in
the same order, and `next_det` names its first other redex.  `Unfused`
offers the whole list to the policy, so a test may fire any redex."""

from tokennets.msiam import DELTA, STAR, MsSystem, Transition
from tokennets.nets import find_redexes
from tokennets.prognets import PnRedex, PnSystem


def rule(r) -> str:
    """The rule of a redex of any engine; a memory test's is "test"."""
    return r.net_redex.kind if isinstance(r, PnRedex) and r.net_redex else r.kind


def full_redexes(sys, a) -> list:
    """Every redex of element `a` of engine `sys`, in the engine's order."""
    if isinstance(sys, MsSystem):
        return ScanSystem.enumerate_redexes(sys, a)
    if isinstance(sys, PnSystem):
        return pn_redexes(a)
    return [] if a.redex is None else [a.redex]


class Unfused:
    """Engine `sys` as a rewrite system that offers every redex: a test
    fires through the engine's `apply`, any other redex through `step_det`
    on a copy from `own`.  Every other attribute is the engine's."""

    def __init__(self, sys):
        self.sys = sys

    def __getattr__(self, name):
        return getattr(self.sys, name)

    def enumerate_redexes(self, a) -> list:
        return full_redexes(self.sys, a)

    def apply(self, a, r) -> list:
        if rule(r) == "test":
            return self.sys.apply(a, r)
        return [(self.sys.step_det(self.sys.own(a), r), 1.0)]


# -- the net engine -----------------------------------------------------------


def pn_redex_key(r):
    """Links by node id, then net redexes in `NetRedex.sort_key` order."""
    if r.kind == "link":
        return (0, "link", (r.node,))
    return (1,) + r.net_redex.sort_key()


def pn_redexes(pn) -> list:
    """A link for each top-level one node without an address, and each net
    redex, a test or sync waiting until its one nodes are linked; in
    `pn_redex_key` order."""
    nodes, ind = pn.net.nodes, pn.ind
    out = [PnRedex("link", node=nid) for nid, n in nodes.items()
           if n.kind == "one" and n.concl[0] not in ind]
    for r in find_redexes(pn.net):
        if r.kind == "test":
            ready = nodes[r.nodes[2]].concl[0] in ind
        elif r.kind == "sync":
            ready = all(e in ind for e in nodes[r.nodes[0]].prem)
        else:
            ready = True
        if ready:
            out.append(PnRedex("net", net_redex=r))
    return sorted(out, key=pn_redex_key)


# -- the multi-token machine --------------------------------------------------

KIND_ORDER = ("link", "spawn", "move", "update", "test")


def _gate(level):
    return (None, 0) if not level else ((level[:-1], level[-1][0]), level[-1][1])


def scan_copies(sys, st, box_nkey, ci=0):
    """Open copies of a box side, read from the markers in `open_copies`;
    the whole net is the one copy of the root gate."""
    if box_nkey is None:
        return {()}
    return set(st.open_copies.get((box_nkey, ci), ()))


class ScanSystem(MsSystem):
    """The machine without indexes: every enumeration rescans every token
    and every link/spawn site of every open copy.  A site has fired when
    its origin is a token's or a parked marker's.  A test or a sync waits
    while its token's origin has no address."""

    def enumerate_redexes(self, st):
        out = []
        sync_tokens = {}
        for orig, pos in st.tokens.items():
            act = self.token_step(st, pos)
            if act is None:
                continue
            if act[0] == "move" or (act[0] == "test" and orig in st.ind):
                out.append(Transition(act[0], (orig,)))
            elif act[0] == "sync" and orig in st.ind:
                sync_tokens.setdefault((act[1], act[2]), set()).add(pos[0])
        for (sync_nkey, t), prem_edges in sync_tokens.items():
            level = sync_nkey[0]
            if all((level, e) in prem_edges for e in self.index.node(sync_nkey).prem):
                out.append(Transition("update", (sync_nkey, t)))
        fired = st.tokens.keys() | {orig for copies in st.open_copies.values()
                                    for orig in copies.values()}
        for level, net in self.index.level_net.items():
            for nid, node in net.nodes.items():
                if node.kind not in ("one", "der"):
                    continue
                kind, fstack = ("link", ()) if node.kind == "one" else ("spawn", (STAR, DELTA))
                for t in scan_copies(self, st, *_gate(level)):
                    if ((level, node.concl[0]), fstack, t) not in fired:
                        out.append(Transition(kind, ((level, nid), t)))
        return sorted(out, key=lambda tr: (KIND_ORDER.index(tr.kind), tr.data))
