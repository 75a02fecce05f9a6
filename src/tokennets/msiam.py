"""A multi-token interaction machine over a fixed program net.

Instead of rewriting the net, finitely many tokens walk its edges.  A token
is a position (edge, formula stack, box stack): the formula stack points at
an occurrence of a unit or modality in the edge's type and fixes the travel
direction (up toward the indicated !/bot, down toward the indicated ?/1);
the box stack names the copy of each enclosing exponential box.  Tokens
spawn at one and ?d nodes of opened box copies, cross multiplicative nodes
by pushing/popping l/r, cross contractions by wrapping their head signature,
and open a box copy by parking a stable marker at its principal door.
Recursive boxes re-enter themselves through the recursion port using y(.,.)
signatures.  Memory coupling: spawning at a one node links an address,
crossing a sync node (all premise tokens of one copy at once) applies the
labeled update to the linked addresses, and hitting a choice box's principal
door tests the address and parks the token on the chosen side, opening it.
A state is final when every token is stable or has exited at a net
conclusion; the whole machine is a probabilistic rewrite system whose
terminal distribution matches net reduction.

A micro-step moves one token, so a state carries indexes that let
enumeration and application do work in proportion to the moving tokens
rather than to all tokens: the live tokens (neither stable nor exited at
a net conclusion) by origin; the open copies, the box stacks of the stable
markers parked at each principal door (or choice box side); and the
pending link/spawn sites, one per one/?d node of each open copy that has
not yet fired.  These rest on one invariant: a stable token never moves
again (nor does an exited one).  So a token leaves the live index for good
when it becomes stable or exits, the open copies only grow, a site becomes
pending exactly when its gate's copy opens and stops being pending when it
fires, and a state is final exactly when no token is live.

Only the token that moved can have a new action, so each live token's
action (`MsSystem.token_step`) is computed once, when the token arrives,
and kept by origin.  A token whose way on depends on a copy that is not
open yet (at a box's principal or auxiliary door, a choice box's
auxiliary door, or a fixpoint box's recursion port) gets a wait marker
that names the gate(s) it needs, and is filed under them; when a copy
opens at a gate, only the tokens waiting on that gate are classified
again.  Every other action stays as it is: the open copies only grow, so
a move stays a move, and no other action reads them.  `next_det` then
picks the least pending site, else the least moving token, else the least
ready update, without classifying any token.

A fused closure owns the state it steps, as the net engine's closure owns
its program net: `MsSystem.own` copies the token set, the address map
and the indexes into mutable containers once per closure, and
`step_det` then updates them in place, in time proportional to the
tokens that move.  `apply` does the same on a fresh copy for each
outcome, so its argument is left unchanged.  A state is never changed
once exposed, so its hash, taken from the token set on first use, is
cached, as is its canonical key.

A position is a nested tuple of ints: stack tags are negative ints and
exponential signatures are ids interned per machine, so positions, and the
transitions and canonical keys made of them, are put in order by Python's
native tuple order.  That order depends only on the program: node ids keep
their relative order in whatever range a process hands them out, and the
signature ids of a machine are numbered in the order its run meets them.
"""

from __future__ import annotations

from typing import NamedTuple

from .memory import canonical_addresses, fresh
from .nets import Formula, Net
from .prognets import ProgramNet

# Stack tags are negative ints, below every signature id; `STAR` is the
# signature every machine interns first (see `MsSystem.sig`).
L, R, DELTA = -1, -2, -3
STAR = 0


def indicator(s: tuple, a: Formula) -> str | None:
    """Kind of the unit/modality occurrence the stack points at, or None."""
    last = len(s) - 1
    for i, h in enumerate(s):
        if h == DELTA:
            return None
        if h == L or h == R:
            if a.kind not in ("tensor", "par"):
                return None
            a = a.sub[0 if h == L else 1]
            continue
        # h is an interned signature id
        if a.kind not in ("bang", "quest"):
            return None
        if i + 1 == last and s[last] == DELTA:
            return a.kind
        a = a.sub[0]
    return a.kind if a.kind in ("one", "bot") else None


# A position is (edge_key, fstack, bstack); a token is (position, origin).
# Edge keys are (level, eid) where a level is a tuple of (box node id,
# content index) pairs from the root down.  Stacks hold tags and signature
# ids, so every part of a position is an int or a tuple of them.


class MachineInvariantError(RuntimeError):
    """A transition would break the machine's structural invariants: a
    second token with an existing origin, an address bound twice, or a
    token moved, tested or routed where its position does not allow."""


class NetIndex:
    """Static index of a net: every edge at every box level, with its type,
    producing node, consuming node, and door wiring.

    `doors` maps the content-side edge of each principal door (of each
    choice box side) to (box nkey, content index, stack a parked marker
    has there); `gate_sites` maps each gate, (box nkey, content index) or
    (None, 0) for the whole net, to the link/spawn sites directly inside
    it as (link or spawn, one/?d nkey)."""

    def __init__(self, net: Net):
        self.edge_type: dict = {}
        self.edge_concl: dict = {}  # ekey -> (nkey, index)
        self.edge_prem: dict = {}  # ekey -> (nkey, index); absent = interface edge
        self.node: dict = {}  # nkey -> Node
        self.level_net: dict = {}  # level -> Net
        self.doors: dict = {}  # door ekey -> (box nkey, ci, marker fstack)
        self.gate_sites: dict = {}  # gate -> [(kind, nkey)]
        self.root_conclusions = [((), e) for e in net.conclusions]
        # One level at a time from an explicit stack: nesting depth is
        # not bounded by the recursion limit.
        todo = [(net, (), (None, 0))]
        while todo:
            net, level, gate = todo.pop()
            self.level_net[level] = net
            for eid, edge in net.edges.items():
                self.edge_type[(level, eid)] = edge.typ
            for nid, node in net.nodes.items():
                nkey = (level, nid)
                self.node[nkey] = node
                for i, e in enumerate(node.concl):
                    self.edge_concl[(level, e)] = (nkey, i)
                for i, e in enumerate(node.prem):
                    self.edge_prem[(level, e)] = (nkey, i)
                if node.kind in ("one", "der"):
                    kind = "link" if node.kind == "one" else "spawn"
                    self.gate_sites.setdefault(gate, []).append((kind, nkey))
                marker = (DELTA,) if node.kind in ("bangbox", "ybox") else ()
                for ci, content in enumerate(node.contents):
                    inner = level + ((nid, ci),)
                    self.doors[(inner, content.conclusions[0])] = (nkey, ci, marker)
                    todo.append((content, inner, (nkey, ci)))

    def typ(self, ekey) -> Formula:
        return self.edge_type[ekey]

    def is_root_conclusion(self, ekey) -> bool:
        return ekey[0] == () and ekey[1] in self.level_net[()].conclusions

    def content_role(self, ekey):
        """For a content-conclusion edge, return (box nkey, content index,
        conclusion position); None for other edges."""
        level, eid = ekey
        if not level or ekey in self.edge_prem:
            return None
        net = self.level_net[level]
        if eid not in net.conclusions:
            return None
        bnid, ci = level[-1]
        return ((level[:-1], bnid), ci, net.conclusions.index(eid))

    def inner_edge(self, box_nkey, ci: int, pos: int):
        level, bnid = box_nkey
        box = self.node[box_nkey]
        content = box.contents[ci]
        return (level + ((bnid, ci),), content.conclusions[pos])

    def principal_premise(self, box_nkey, ci: int = 0):
        """The content-side edge of a box's principal door (or a choice
        box side's bot root)."""
        return self.inner_edge(box_nkey, ci, 0)


class MachineState:
    """Multi-token state: the set of tokens with their origins, the address
    map on origins, and a memory.  Compared up to address permutation.

    It also carries the indexes `MsSystem` keeps (see the module docstring):
    `live` (origin -> position of each token neither stable nor exited),
    `acts` (origin -> `MsSystem.token_step` of each live token, taken when
    it arrived), `waiting` (gate -> set of origins whose action is a wait
    marker naming that gate), `open_copies` (gate, that is (box nkey,
    content index), -> set of opened box stacks) and `pending` (set of
    (kind, nkey, box stack) link/spawn sites).  Only the closure that owns
    a state (see `MsSystem.own`) changes these containers, and only until
    it exposes the state; from then on nothing changes them, which is what
    makes the cached hash and key safe.

    Positions are int tuples (see the module docstring), so the canonical
    key sorts `tokens` and `ind` in native tuple order."""

    __slots__ = ("tokens", "ind", "memory", "live", "acts", "waiting", "open_copies",
                 "pending", "_key", "_hash")

    def __init__(self, tokens: set, ind: dict, memory, live: dict, acts: dict,
                 waiting: dict, open_copies: dict, pending: set):
        self.tokens = tokens
        self.ind = ind
        self.memory = memory
        self.live = live
        self.acts = acts
        self.waiting = waiting
        self.open_copies = open_copies
        self.pending = pending
        self._key = None
        self._hash = None

    def canonical_key(self):
        if self._key is None:
            sigma = canonical_addresses([self.ind[o] for o in sorted(self.ind)], self.memory)
            toks = tuple(sorted(self.tokens))
            ind_c = tuple(sorted((o, sigma[a]) for o, a in self.ind.items()))
            self._key = (toks, ind_c, self.memory.rename(sigma))
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, MachineState) and self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        # Positions carry no addresses, so the raw token set is already
        # canonical; address-sensitive parts are left to __eq__.
        if self._hash is None:
            self._hash = hash(frozenset(self.tokens))
        return self._hash

    def __repr__(self) -> str:
        return (
            f"MachineState({len(self.tokens)} tokens, "
            f"{len(self.ind)} addresses, memory={self.memory!r})"
        )


_KIND_ORDER = {"link": 0, "spawn": 1, "move": 2, "update": 3, "test": 4}


class Transition(NamedTuple):
    kind: str  # move | update | test | link | spawn
    data: tuple

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.data)


class MsSystem:
    """The machine for one program net, as a probabilistic rewrite system."""

    def __init__(self, pn: ProgramNet):
        if pn.ind:
            raise ValueError("the machine starts from a program net without addresses")
        self.index = NetIndex(pn.net)
        self.initial_memory = pn.memory
        # Exponential signatures are hash-consed: each distinct signature
        # gets a small-int id, its index in `sig_struct`, and a compound
        # signature refers to the ids of its parts.  Stacks therefore stay
        # flat however deep recursion nests, which keeps comparing and
        # hashing tokens cheap and recursion-safe.
        self.sig_struct: list[tuple] = [("*",)]
        self._sig_ids: dict[tuple, int] = {("*",): STAR}

    def sig(self, *struct) -> int:
        """The id of the signature `struct`: ("*",), (L, s) or (R, s) for a
        contraction side, ("p", box copy, inner) at an auxiliary door, or
        ("y", copy, s) for a recursive copy."""
        i = self._sig_ids.get(struct)
        if i is None:
            i = self._sig_ids[struct] = len(self.sig_struct)
            self.sig_struct.append(struct)
        return i

    # -- token kinematics --------------------------------------------------

    def direction(self, pos) -> str:
        ekey, fstack, _ = pos
        if fstack == (DELTA,):
            return "stable"
        holder = self.index.edge_concl.get(ekey)
        if holder is not None and self.index.node[holder[0]].kind == "bot":
            return "stable"
        kind = indicator(fstack, self.index.typ(ekey))
        if kind in ("bot", "bang"):
            return "up"
        if kind in ("one", "quest"):
            return "down"
        raise MachineInvariantError(f"invalid stack {fstack} on {self.index.typ(ekey)}")

    def copies(self, st: MachineState, box_nkey, ci: int = 0) -> set:
        """Box stacks of the copies opened for a box (per side for choice
        boxes)."""
        return st.open_copies.get((box_nkey, ci), frozenset())

    def token_step(self, st: MachineState, pos, d: str | None = None):
        """Classify the unique pending action of a non-stable token:
        ("move", newpos) | ("sync", sync nkey, t) | ("test",) | ("wait",
        gates) | None.  A wait marker names the gates of the copies that
        could let the token on; None means it never moves again.  `d` is
        the token's `direction`, when the caller has it already."""
        ekey, fstack, bstack = pos
        d = d or self.direction(pos)
        if d == "stable":
            return None
        idx = self.index
        if d == "down":
            prem = idx.edge_prem.get(ekey)
            if prem is None:
                role = idx.content_role(ekey)
                if role is None:
                    return None  # exited at a net conclusion
                return self._exit_door(st, pos, role)
            nkey, i = prem
            node = idx.node[nkey]
            level = ekey[0]
            if node.kind == "cut":
                other = node.prem[1 - i]
                return ("move", ((level, other), fstack, bstack))
            tag = L if i == 0 else R
            if node.kind in ("tensor", "par"):
                return ("move", ((level, node.concl[0]), (tag,) + fstack, bstack))
            if node.kind == "contr":
                wrapped = self.sig(tag, fstack[0])
                return ("move", ((level, node.concl[0]), (wrapped,) + fstack[1:], bstack))
            if node.kind == "der":
                return ("move", ((level, node.concl[0]), (STAR,) + fstack, bstack))
            if node.kind == "sync":
                return ("sync", nkey, bstack)
            return None
        # upward
        concl = idx.edge_concl.get(ekey)
        if concl is None:
            return None  # upward at an interface edge with no producer
        nkey, j = concl
        node = idx.node[nkey]
        level = ekey[0]
        if node.kind == "ax":
            other = node.concl[1 - j]
            return ("move", ((level, other), fstack, bstack))
        if node.kind in ("tensor", "par"):
            tag, rest = fstack[0], fstack[1:]
            if tag != L and tag != R:
                raise MachineInvariantError(f"invalid stack {fstack} at {node.kind} {nkey}")
            target = node.prem[0 if tag == L else 1]
            return ("move", ((level, target), rest, bstack))
        if node.kind == "contr":
            sig, rest = fstack[0], fstack[1:]
            struct = self.sig_struct[sig]
            if struct[0] == L:
                return ("move", ((level, node.prem[0]), (struct[1],) + rest, bstack))
            if struct[0] == R:
                return ("move", ((level, node.prem[1]), (struct[1],) + rest, bstack))
            return None
        if node.kind == "der":
            sig, rest = fstack[0], fstack[1:]
            if sig == STAR:
                return ("move", ((level, node.prem[0]), rest, bstack))
            return None
        if node.kind in ("bangbox", "ybox"):
            return self._enter_exp_box(st, pos, nkey, j, node.kind)
        if node.kind == "botbox":
            if j == 0:
                return ("test",)
            return self._enter_bot_aux(st, pos, nkey, j)
        return None

    def _enter_exp_box(self, st, pos, box_nkey, j, kind):
        ekey, fstack, bstack = pos
        sig, rest = fstack[0], fstack[1:]
        port = j if j == 0 else (j + 1 if kind == "ybox" else j)
        if j == 0:
            inner = self.index.inner_edge(box_nkey, 0, 0)
            if rest == (DELTA,):
                # The token found its box: it parks as the stable marker
                # that opens copy `sig`.
                return ("move", (inner, (DELTA,), bstack + (sig,)))
            if bstack + (sig,) in self.copies(st, box_nkey):
                return ("move", (inner, rest, bstack + (sig,)))
            return ("wait", ((box_nkey, 0),))
        # auxiliary door: the signature pairs the box copy with the inner one
        struct = self.sig_struct[sig]
        if struct[0] != "p":
            return None
        box_copy, inner_sig = struct[1], struct[2]
        if bstack + (box_copy,) not in self.copies(st, box_nkey):
            return ("wait", ((box_nkey, 0),))
        inner = self.index.inner_edge(box_nkey, 0, port)
        return ("move", (inner, (inner_sig,) + rest, bstack + (box_copy,)))

    def _enter_bot_aux(self, st, pos, box_nkey, j):
        ekey, fstack, bstack = pos
        for ci in (0, 1):
            if bstack in self.copies(st, box_nkey, ci):
                inner = self.index.inner_edge(box_nkey, ci, j)
                return ("move", (inner, fstack, bstack))
        return ("wait", ((box_nkey, 0), (box_nkey, 1)))

    def _exit_door(self, st, pos, role):
        ekey, fstack, bstack = pos
        box_nkey, ci, cpos = role
        kind = self.index.node[box_nkey].kind
        level, bnid = box_nkey
        node = self.index.node[box_nkey]
        if kind == "botbox":
            if cpos < 1:
                raise MachineInvariantError(f"token leaves {box_nkey} by its principal door")
            return ("move", ((level, node.concl[cpos]), fstack, bstack))
        if cpos == 0:
            copy = bstack[-1]
            struct = self.sig_struct[copy]
            if struct[0] == "y":
                # Retrace into the copy that requested this one, at the
                # recursion port.
                c0, sig = struct[1], struct[2]
                port = self.index.inner_edge(box_nkey, 0, 1)
                return ("move", (port, (sig,) + fstack, bstack[:-1] + (c0,)))
            return ("move", ((level, node.concl[0]), (copy,) + fstack, bstack[:-1]))
        if kind == "ybox" and cpos == 1:
            # Downward at the recursion port: request a new copy of the box.
            sig, rest = fstack[0], fstack[1:]
            c0 = bstack[-1]
            new_copy = self.sig("y", c0, sig)
            inner = self.index.inner_edge(box_nkey, 0, 0)
            if rest == (DELTA,):
                return ("move", (inner, (DELTA,), bstack[:-1] + (new_copy,)))
            if bstack[:-1] + (new_copy,) in self.copies(st, box_nkey):
                return ("move", (inner, rest, bstack[:-1] + (new_copy,)))
            return ("wait", ((box_nkey, 0),))
        # exponential auxiliary door: wrap the inner signature with the copy
        out_pos = cpos - (1 if kind == "ybox" else 0)
        sig, rest = fstack[0], fstack[1:]
        copy = bstack[-1]
        return (
            "move",
            ((level, node.concl[out_pos]), (self.sig("p", copy, sig),) + rest, bstack[:-1]),
        )

    # -- transition enumeration -------------------------------------------

    def enumerate_redexes(self, st: MachineState) -> list[Transition]:
        out = [Transition(kind, (nkey, t)) for kind, nkey, t in st.pending]
        out += [Transition(act[0], (orig,)) for orig, act in st.acts.items()
                if act is not None and act[0] in ("move", "test")]
        out += [Transition("update", u) for u in self._ready_updates(st)]
        out.sort(key=Transition.sort_key)
        return out

    def next_det(self, st: MachineState) -> Transition | None:
        """The first non-test transition of `enumerate_redexes(st)`: the
        least pending site (links before spawns), else the least moving
        token, else the least ready update."""
        if st.pending:
            kind, nkey, t = min(st.pending)
            return Transition(kind, (nkey, t))
        mover = min((orig for orig, act in st.acts.items()
                     if act is not None and act[0] == "move"), default=None)
        if mover is not None:
            return Transition("move", (mover,))
        update = min(self._ready_updates(st), default=None)
        return None if update is None else Transition("update", update)

    def _ready_updates(self, st: MachineState) -> list[tuple]:
        """(sync nkey, box stack) of each sync node copy that has a token
        with an address on every premise."""
        at: dict = {}
        for orig, act in st.acts.items():
            if act is not None and act[0] == "sync" and orig in st.ind:
                at.setdefault(act[1:], set()).add(st.live[orig][0])
        return [(nkey, t) for (nkey, t), edges in at.items()
                if all((nkey[0], e) in edges for e in self.index.node[nkey].prem)]

    # -- transition application -------------------------------------------

    def _successor(self, st: MachineState, moves) -> MachineState:
        """Move each (origin, old position or None, new position) of
        `moves` in `st`, in place, and bring the indexes up to date: a token
        that stays live gets its action, one that turns stable or exits
        leaves the live index, and one parked at a door opens its copy,
        which makes the sites under that gate pending and classifies the
        tokens waiting on the gate again."""
        tokens, live, acts, waiting, open_copies, pending = (
            st.tokens, st.live, st.acts, st.waiting, st.open_copies, st.pending)
        for orig, old, new in moves:
            if old is not None:
                try:
                    tokens.remove((old, orig))
                except KeyError:
                    raise MachineInvariantError(f"token {orig} is not at {old}") from None
            tokens.add((new, orig))
            d = self.direction(new)
            exited = d == "down" and self.index.is_root_conclusion(new[0]) and not new[2]
            if d != "stable" and not exited:
                # A token that moves has no wait marker to withdraw.
                live[orig] = new
                self._file(st, orig, self.token_step(st, new, d))
                continue
            live.pop(orig, None)
            acts.pop(orig, None)
            door = self.index.doors.get(new[0])
            if door is None or new[1] != door[2]:
                continue
            gate, t = door[:2], new[2]
            have = open_copies.setdefault(gate, set())
            if t not in have:
                have.add(t)
                sites = self.index.gate_sites.get(gate, ())
                pending.update((kind, nkey, t) for kind, nkey in sites)
                for waiter in waiting.pop(gate, ()):
                    for other in acts[waiter][1]:
                        if other != gate:
                            waiting[other].discard(waiter)
                            if not waiting[other]:
                                del waiting[other]
                    self._file(st, waiter, self.token_step(st, live[waiter]))
        return st

    def _file(self, st: MachineState, orig, act) -> None:
        """Record `act` as the action of live token `orig`, under each gate
        it waits on if it is a wait marker."""
        st.acts[orig] = act
        if act is not None and act[0] == "wait":
            for gate in act[1]:
                st.waiting.setdefault(gate, set()).add(orig)

    def apply(self, st: MachineState, tr: Transition) -> list[tuple[MachineState, float]]:
        """Fire a transition: the successor states with their
        probabilities.  `st` is left unchanged, and each successor is a
        copy of its own."""
        if tr.kind != "test":
            return [(self.step_det(self.own(st), tr), 1.0)]
        (orig,) = tr.data
        pos = st.live[orig]
        ekey, fstack, bstack = pos
        box_nkey, j = self.index.edge_concl[ekey]
        if j != 0 or self.index.node[box_nkey].kind != "botbox":
            raise MachineInvariantError(f"test by a token not at a choice box: {pos}")
        i = st.ind[orig]
        out = []
        for (outcome, m2), p in st.memory.test(i):
            side = 1 if outcome else 0
            root = self.index.principal_premise(box_nkey, side)
            nxt = self.own(st)
            nxt.memory = m2
            self._successor(nxt, [(orig, pos, (root, fstack, bstack))])
            out.append((nxt, p))
        return out

    def own(self, st: MachineState) -> MachineState:
        """An equal state with private token, address, live, action,
        waiting, open-copy and pending containers, which `step_det` may
        then change in place."""
        return MachineState(
            set(st.tokens),
            dict(st.ind),
            st.memory,
            dict(st.live),
            dict(st.acts),
            {gate: set(waiters) for gate, waiters in st.waiting.items()},
            {gate: set(copies) for gate, copies in st.open_copies.items()},
            set(st.pending),
        )

    def step_det(self, st: MachineState, tr: Transition) -> MachineState:
        """The state after a non-branching transition, made by changing
        `st` in place: `st` must come from `own` (or an earlier `step_det`)
        and is not to be used afterwards."""
        if tr.kind == "move":
            (orig,) = tr.data
            act = st.acts.get(orig)
            if act is None or act[0] != "move":
                raise MachineInvariantError(f"token {orig} cannot move: {act}")
            return self._successor(st, [(orig, st.live[orig], act[1])])
        if tr.kind in ("link", "spawn"):
            nkey, t = tr.data
            site = (tr.kind, nkey, t)
            if site not in st.pending:
                raise MachineInvariantError(
                    f"{tr.kind} at {nkey} in copy {t} is not pending: "
                    "its copy is not open or its origin already exists"
                )
            ekey = (nkey[0], self.index.node[nkey].concl[0])
            p = (ekey, () if tr.kind == "link" else (STAR, DELTA), t)
            if tr.kind == "link":
                taken = set(st.ind.values())
                i = fresh(st.memory, taken)
                if i in taken:
                    raise MachineInvariantError(f"link at {nkey}: address {i} is already bound")
                st.ind[p] = i
            st.pending.remove(site)
            return self._successor(st, [(p, None, p)])
        if tr.kind == "update":
            sync_nkey, t = tr.data
            node = self.index.node[sync_nkey]
            level = sync_nkey[0]
            at = {pos: orig for orig, pos in st.live.items()}
            addrs, moves = [], []
            for i, e in enumerate(node.prem):
                pos = ((level, e), (), t)
                orig = at[pos]
                addrs.append(st.ind[orig])
                moves.append((orig, pos, ((level, node.concl[i]), (), t)))
            st.memory = st.memory.update(tuple(addrs), node.label)
            return self._successor(st, moves)
        raise ValueError(f"{tr.kind} transition branches: use apply")

    # -- classification ----------------------------------------------------

    def is_branching(self, st: MachineState, tr: Transition) -> bool:
        return tr.kind == "test"

    # -- initial state ------------------------------------------------------

    def initial_state(self) -> MachineState:
        moves = []
        for ekey in self.index.root_conclusions:
            for s in _up_stacks(self.index.typ(ekey)):
                p = (ekey, s, ())
                moves.append((p, None, p))
        # The whole net is one open copy, with the empty box stack.
        root_sites = self.index.gate_sites.get((None, 0), ())
        pending = {(kind, nkey, ()) for kind, nkey in root_sites}
        empty = MachineState(set(), {}, self.initial_memory, {}, {}, {}, {}, pending)
        return self._successor(empty, moves)


def _up_stacks(a: Formula, prefix: tuple = ()):
    """All stacks indicating a bot occurrence in a modality-free formula."""
    if a.kind == "bot":
        yield prefix
    elif a.kind in ("tensor", "par"):
        yield from _up_stacks(a.sub[0], prefix + (L,))
        yield from _up_stacks(a.sub[1], prefix + (R,))
    elif a.kind in ("bang", "quest"):
        raise NotImplementedError("initial tokens under modalities")
