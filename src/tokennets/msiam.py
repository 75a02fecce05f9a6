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
A marker is kept only in `MachineState.open_copies`, not in the token map
of live and exited tokens; a state's printed token count, its `len`,
counts both.  A state is final when no token is live; the whole machine is
a probabilistic rewrite system whose terminal distribution matches net
reduction.  Every terminal state of the (ground-typed) corpus is final.
A function's is not: in a closed run nothing gives its argument an
address, so the token that comes in from the argument waits for ever at
the sync or test it reaches, and is the only live token.

A micro-step moves one token, so a state carries indexes (see
`MachineState`) that let enumeration and application do work in
proportion to the moving tokens rather than to all tokens.  These rest on
one invariant: a stable token never moves again (nor does an exited
one).  So a token leaves the action index for good when it parks or
exits, the open copies only grow, a site becomes pending exactly when its
gate's copy opens and stops being pending when it fires, and a state is
final exactly when no token is live.

Only the token that moved can have a new action, so each live token's
action (`MsSystem.token_step`) is computed once, when the token arrives,
and kept by origin.  A token whose way on depends on a copy that is not
open yet (at a box's principal or auxiliary door, a choice box's
auxiliary door, or a fixpoint box's recursion port) gets a wait marker
that names the gate(s) it needs; when a copy opens at a gate, the live
tokens whose action in `acts` is a wait marker naming that gate are
classified again, and no other.  Every other action stays as it is: the
open copies only grow, so a move stays a move, and no other action reads
them.  `next_det` then
picks the least pending site, else the least moving token, else the least
ready update, without classifying any token.

A token mostly moves many times in a row, so a state keeps its lead: the
move `next_det` found for it, by the least moving token when no site was
pending.  If the token still moves after that move, no other action
changed and no copy opened (a copy opens only when a token parks, and a
parked token is stable), so it is still the least mover and nothing is
pending: `step_det` keeps the same `Transition` as the lead of the
successor, and the next `next_det` returns it without a scan.  Any other
transition clears the lead: a link, spawn, update or test, or the move
of another token, may make a site pending or give a lesser origin a
move.  A token's `direction` depends only on its edge and formula stack,
so each machine memoizes it.

The machine reads the program net as it is and copies none of it (see
`NetIndex`).

A fused closure owns the state it steps, as the net engine's closure owns
its program net: `MsSystem.own` copies the token map, the address map,
the open copies and the indexes into mutable containers once per
closure, and `step_det` then updates them in place, in time proportional
to the tokens that move (and, when a copy opens, to the live tokens).
`apply` does the same on a fresh copy for each outcome, so its argument
is left unchanged.  A state is never changed once exposed, so its hash,
taken from the token map on first use, is cached, as is its canonical
key.

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
from .nets import Formula, Net, Node
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


# A position is (edge_key, fstack, bstack).  Edge keys are (level, eid)
# where a level is a `Net.levels` path, the (box node id, content index)
# pairs from the root down; node keys are (level, nid).  Stacks hold tags
# and signature ids, so every part of a position is an int or a tuple of
# them.  A state's token map sends each token's origin, the position where
# it was created, to its position.


class MachineInvariantError(RuntimeError):
    """A transition would break the machine's structural invariants: a
    second token with an existing origin, an address bound twice, or a
    token moved, tested or routed where its position does not allow."""


class NetIndex:
    """What the machine reads of a net beyond one level, built from
    `Net.levels`.

    `level_net` maps each box level, a `Net.levels` path, to its `Net`:
    the machine reads an edge's formula from that level's `edges`, its
    concluding and consuming node ids from its `surface`, and the nodes
    from its `nodes`.  `doors` maps the content-side edge of each
    principal door (of each choice box side) to (box nkey, content index,
    stack a parked marker has there); `gate_sites` maps each gate, (box
    nkey, content index) or (None, 0) for the whole net, to the link/spawn
    sites directly inside it as (link or spawn, one/?d nkey), in node
    order."""

    def __init__(self, net: Net):
        self.level_net: dict = {}  # level -> Net
        self.doors: dict = {}  # door ekey -> (box nkey, ci, marker fstack)
        self.gate_sites: dict = {}  # gate -> [(kind, nkey)]
        for level, content in net.levels():
            self.level_net[level] = content
            gate = (None, 0)
            if level:
                nid, ci = level[-1]
                box = (level[:-1], nid)
                gate = (box, ci)
                marker = (DELTA,) if self.node(box).kind in ("bangbox", "ybox") else ()
                self.doors[(level, content.conclusions[0])] = (box, ci, marker)
            for nid, node in content.nodes.items():
                if node.kind in ("one", "der"):
                    kind = "link" if node.kind == "one" else "spawn"
                    self.gate_sites.setdefault(gate, []).append((kind, (level, nid)))

    def node(self, nkey) -> Node:
        level, nid = nkey
        return self.level_net[level].nodes[nid]

    def is_root_conclusion(self, ekey) -> bool:
        return ekey[0] == () and ekey[1] in self.level_net[()].conclusions


def inner_edge(level: tuple, box: Node, ci: int, port: int) -> tuple:
    """The edge key of conclusion `port` of content `ci` of `box`, a node
    at `level`; port 0 is the content side of the principal door (or of a
    choice box side's bot root)."""
    return (level + ((box.nid, ci),), box.contents[ci].conclusions[port])


class MachineState:
    """Multi-token state: the token map (origin -> position) of the live
    and exited tokens, the open copies, the address map on origins, and a
    memory.  Compared up to address permutation.

    `open_copies` maps a gate, that is (box nkey, content index), to
    {box stack: origin}, one entry per stable marker parked at its
    principal door (or choice box side), each the record of one open copy.
    A marker's position follows from its gate and box stack, so the
    canonical key reads the markers as (gate, box stack, origin) triples.

    It also carries the indexes `MsSystem` keeps (see the module docstring):
    `acts` (origin -> `MsSystem.token_step` of each live token, one that has
    neither parked nor exited at a net conclusion, taken when it arrived;
    its keys are the live origins; a copy open finds the tokens waiting
    for it here, by their wait markers) and `pending` (set of (kind, nkey,
    box stack) link/spawn sites, one per one/?d node of each open copy
    that has not yet fired).  Only the closure that owns a state (see
    `MsSystem.own`) changes these containers, and only until it exposes
    the state; from then on nothing changes them, which is what makes the
    cached hash and key safe.

    `lead` is the move `MsSystem.next_det` returns for the state, cached
    there, or None (see the module docstring).  Like the hash and the key
    it is a cache: equality, hashing and the canonical key ignore it."""

    __slots__ = ("tokens", "ind", "memory", "acts", "open_copies", "pending", "lead",
                 "_key", "_hash")

    def __init__(self, tokens: dict, ind: dict, memory, acts: dict, open_copies: dict,
                 pending: set, lead: Transition | None = None):
        self.tokens = tokens
        self.ind = ind
        self.memory = memory
        self.acts = acts
        self.open_copies = open_copies
        self.pending = pending
        self.lead = lead
        self._key = None
        self._hash = None

    def canonical_key(self):
        if self._key is None:
            sigma = canonical_addresses([self.ind[o] for o in sorted(self.ind)], self.memory)
            toks = tuple(sorted(self.tokens.items()))
            marks = tuple(sorted((gate, t, orig) for gate, copies in self.open_copies.items()
                                 for t, orig in copies.items()))
            ind_c = tuple(sorted((o, sigma[a]) for o, a in self.ind.items()))
            self._key = (toks, marks, ind_c, self.memory.rename(sigma))
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, MachineState) and self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        # Positions carry no addresses, so the raw token map is already
        # canonical; the markers and the address-sensitive parts are left
        # to __eq__.
        if self._hash is None:
            self._hash = hash(frozenset(self.tokens.items()))
        return self._hash

    def __len__(self) -> int:
        """The token count: live and exited tokens, and the parked markers."""
        return len(self.tokens) + sum(map(len, self.open_copies.values()))

    def __repr__(self) -> str:
        return (
            f"MachineState({len(self)} tokens, "
            f"{len(self.ind)} addresses, memory={self.memory!r})"
        )


class Transition(NamedTuple):
    kind: str  # move | update | test | link | spawn
    data: tuple


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
        self._directions: dict[tuple, str] = {}  # (edge key, fstack) -> direction

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
        """Where the token at `pos` travels: up, down or nowhere (stable).
        That depends only on the fixed net, the edge and the formula stack,
        so it is memoized by (edge key, formula stack); an invalid stack
        raises each time and is never cached."""
        key = (pos[0], pos[1])
        d = self._directions.get(key)
        if d is None:
            d = self._directions[key] = self._direction(*key)
        return d

    def _direction(self, ekey, fstack) -> str:
        level, eid = ekey
        if fstack == (DELTA,):
            return "stable"
        net = self.index.level_net[level]
        holder = net.surface.concluder.get(eid)
        if holder is not None and net.nodes[holder].kind == "bot":
            return "stable"
        kind = indicator(fstack, net.edges[eid])
        if kind in ("bot", "bang"):
            return "up"
        if kind in ("one", "quest"):
            return "down"
        raise MachineInvariantError(f"invalid stack {fstack} on {net.edges[eid]}")

    def copies(self, st: MachineState, box_nkey, ci: int = 0):
        """Box stacks of the copies opened for a box (per side for choice
        boxes)."""
        return st.open_copies.get((box_nkey, ci), {}).keys()

    def token_step(self, st: MachineState, pos, d: str | None = None):
        """Classify the unique pending action of a non-stable token:
        ("move", newpos) | ("sync", sync nkey, t) | ("test",) | ("wait",
        gates) | None.  A wait marker names the gates of the copies that
        could let the token on; None means it never moves again.  `d` is
        the token's `direction`, when the caller has it already."""
        (level, eid), fstack, bstack = pos
        d = d or self.direction(pos)
        if d == "stable":
            return None
        net = self.index.level_net[level]
        if d == "down":
            nid = net.surface.consumer.get(eid)
            if nid is None:
                if not level:
                    return None  # exited at a net conclusion
                return self._exit_door(st, pos, net)
            node = net.nodes[nid]
            first = node.prem[0] == eid
            if node.kind == "cut":
                other = node.prem[1] if first else node.prem[0]
                return ("move", ((level, other), fstack, bstack))
            tag = L if first else R
            if node.kind in ("tensor", "par"):
                return ("move", ((level, node.concl[0]), (tag,) + fstack, bstack))
            if node.kind == "contr":
                wrapped = self.sig(tag, fstack[0])
                return ("move", ((level, node.concl[0]), (wrapped,) + fstack[1:], bstack))
            if node.kind == "der":
                return ("move", ((level, node.concl[0]), (STAR,) + fstack, bstack))
            if node.kind == "sync":
                return ("sync", (level, nid), bstack)
            return None
        # upward
        nid = net.surface.concluder.get(eid)
        if nid is None:
            return None  # upward at an interface edge with no producer
        node = net.nodes[nid]
        if node.kind == "ax":
            other = node.concl[1] if node.concl[0] == eid else node.concl[0]
            return ("move", ((level, other), fstack, bstack))
        if node.kind in ("tensor", "par"):
            tag, rest = fstack[0], fstack[1:]
            if tag != L and tag != R:
                raise MachineInvariantError(
                    f"invalid stack {fstack} at {node.kind} {(level, nid)}")
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
            return self._enter_exp_box(st, pos, node, node.concl.index(eid))
        if node.kind == "botbox":
            j = node.concl.index(eid)
            if j == 0:
                return ("test",)
            return self._enter_bot_aux(st, pos, node, j)
        return None

    def _principal_door(self, st, level, box, rest, t):
        """The action of a token at the principal door of exponential box
        `box` (from outside, or at its recursion port) that names the copy
        with box stack `t`, `rest` being its formula stack below the copy's
        signature: park as the marker that opens `t`, enter `t` if it is
        open, or wait on the box's gate."""
        box_nkey = (level, box.nid)
        if rest == (DELTA,) or t in self.copies(st, box_nkey):
            return ("move", (inner_edge(level, box, 0, 0), rest, t))
        return ("wait", ((box_nkey, 0),))

    def _enter_exp_box(self, st, pos, box, j):
        (level, _), fstack, bstack = pos
        box_nkey = (level, box.nid)
        sig, rest = fstack[0], fstack[1:]
        if j == 0:
            return self._principal_door(st, level, box, rest, bstack + (sig,))
        # auxiliary door: the signature pairs the box copy with the inner one
        struct = self.sig_struct[sig]
        if struct[0] != "p":
            return None
        box_copy, inner_sig = struct[1], struct[2]
        if bstack + (box_copy,) not in self.copies(st, box_nkey):
            return ("wait", ((box_nkey, 0),))
        inner = inner_edge(level, box, 0, j + 1 if box.kind == "ybox" else j)
        return ("move", (inner, (inner_sig,) + rest, bstack + (box_copy,)))

    def _enter_bot_aux(self, st, pos, box, j):
        (level, _), fstack, bstack = pos
        box_nkey = (level, box.nid)
        for ci in (0, 1):
            if bstack in self.copies(st, box_nkey, ci):
                return ("move", (inner_edge(level, box, ci, j), fstack, bstack))
        return ("wait", ((box_nkey, 0), (box_nkey, 1)))

    def _exit_door(self, st, pos, net):
        """The action of a token going down a conclusion of `net`, the
        content at the token's level, out of its box."""
        (level, eid), fstack, bstack = pos
        outer, (bnid, _) = level[:-1], level[-1]
        box = self.index.level_net[outer].nodes[bnid]
        box_nkey = (outer, bnid)
        cpos = net.conclusions.index(eid)
        if box.kind == "botbox":
            if cpos < 1:
                raise MachineInvariantError(f"token leaves {box_nkey} by its principal door")
            return ("move", ((outer, box.concl[cpos]), fstack, bstack))
        if cpos == 0:
            copy = bstack[-1]
            struct = self.sig_struct[copy]
            if struct[0] == "y":
                # Retrace into the copy that requested this one, at the
                # recursion port.
                c0, sig = struct[1], struct[2]
                port = (level, net.conclusions[1])
                return ("move", (port, (sig,) + fstack, bstack[:-1] + (c0,)))
            return ("move", ((outer, box.concl[0]), (copy,) + fstack, bstack[:-1]))
        if box.kind == "ybox" and cpos == 1:
            # Downward at the recursion port: request a new copy of the box.
            t = bstack[:-1] + (self.sig("y", bstack[-1], fstack[0]),)
            return self._principal_door(st, outer, box, fstack[1:], t)
        # exponential auxiliary door: wrap the inner signature with the copy
        out_pos = cpos - (1 if box.kind == "ybox" else 0)
        sig, rest = fstack[0], fstack[1:]
        copy = bstack[-1]
        return (
            "move",
            ((outer, box.concl[out_pos]), (self.sig("p", copy, sig),) + rest, bstack[:-1]),
        )

    # -- transition enumeration -------------------------------------------

    def enumerate_redexes(self, st: MachineState) -> list[Transition]:
        """The choices of `st`, by origin: a test for each live token at a
        choice box whose origin has an address."""
        return sorted(Transition("test", (orig,)) for orig, act in st.acts.items()
                      if act is not None and act[0] == "test" and orig in st.ind)

    def next_det(self, st: MachineState) -> Transition | None:
        """The first deterministic transition of `st`: the least pending
        site (links before spawns), else the least moving token, else the
        least ready update.  That is `st.lead` when it is set; a move found
        by the scan becomes `st.lead`."""
        if st.lead is not None:
            return st.lead
        if st.pending:
            kind, nkey, t = min(st.pending)
            return Transition(kind, (nkey, t))
        mover = min((orig for orig, act in st.acts.items()
                     if act is not None and act[0] == "move"), default=None)
        if mover is not None:
            st.lead = Transition("move", (mover,))
            return st.lead
        update = min(self._ready_updates(st), default=None)
        return None if update is None else Transition("update", update)

    def _ready_updates(self, st: MachineState) -> list[tuple]:
        """(sync nkey, box stack) of each sync node copy that has a token
        with an address on every premise."""
        at: dict = {}
        for orig, act in st.acts.items():
            if act is not None and act[0] == "sync" and orig in st.ind:
                at.setdefault(act[1:], set()).add(st.tokens[orig][0][1])
        return [(nkey, t) for (nkey, t), eids in at.items()
                if eids.issuperset(self.index.node(nkey).prem)]

    # -- transition application -------------------------------------------

    def _successor(self, st: MachineState, moves) -> MachineState:
        """Move each (origin, old position or None, new position) of
        `moves` in `st`, in place, and bring the indexes up to date: a token
        that stays live gets its action, one that exits leaves the action
        index, and one parked at a door leaves the token map too and opens
        its copy, which makes the sites under that gate pending and
        classifies again the live tokens whose wait marker in `acts` names
        the gate.  A new token (old position None) whose origin is in the
        token map, and a marker for a copy that is open already, are
        refused."""
        tokens, acts, open_copies, pending = st.tokens, st.acts, st.open_copies, st.pending
        for orig, old, new in moves:
            if tokens.get(orig) != old:
                raise MachineInvariantError(f"token {orig} is at {tokens.get(orig)}, not {old}")
            tokens[orig] = new
            d = self.direction(new)
            exited = d == "down" and self.index.is_root_conclusion(new[0]) and not new[2]
            if d != "stable" and not exited:
                acts[orig] = self.token_step(st, new, d)
                continue
            acts.pop(orig, None)
            door = self.index.doors.get(new[0])
            if door is None or new[1] != door[2]:
                continue
            del tokens[orig]
            gate, t = door[:2], new[2]
            have = open_copies.setdefault(gate, {})
            if t in have:
                raise MachineInvariantError(f"copy {t} of {gate} opens twice")
            have[t] = orig
            sites = self.index.gate_sites.get(gate, ())
            pending.update((kind, nkey, t) for kind, nkey in sites)
            waiters = [w for w, act in acts.items()
                       if act is not None and act[0] == "wait" and gate in act[1]]
            for waiter in waiters:
                acts[waiter] = self.token_step(st, tokens[waiter])
        return st

    def apply(self, st: MachineState, tr: Transition) -> list[tuple[MachineState, float]]:
        """Fire a test: the successor states with their probabilities.
        `st` is left unchanged, and each successor is a copy of its own.
        Any other transition raises `ValueError`: `step_det` fires it."""
        if tr.kind != "test":
            raise ValueError(f"{tr.kind} transition does not branch: use step_det")
        (orig,) = tr.data
        pos = st.tokens[orig]
        (level, eid), fstack, bstack = pos
        net = self.index.level_net[level]
        box = net.nodes[net.surface.concluder[eid]]
        if box.kind != "botbox" or box.concl[0] != eid:
            raise MachineInvariantError(f"test by a token not at a choice box: {pos}")
        i = st.ind[orig]
        out = []
        for (outcome, m2), p in st.memory.test(i):
            root = inner_edge(level, box, 1 if outcome else 0, 0)
            nxt = self.own(st)
            nxt.memory, nxt.lead = m2, None
            self._successor(nxt, [(orig, pos, (root, fstack, bstack))])
            out.append((nxt, p))
        return out

    def own(self, st: MachineState) -> MachineState:
        """An equal state, with the same lead, and private token, address,
        action, open-copy and pending containers, which `step_det` may then
        change in place.  The waiting tokens have no container of their
        own: a copy open finds them in the action map."""
        return MachineState(
            dict(st.tokens),
            dict(st.ind),
            st.memory,
            dict(st.acts),
            {gate: dict(copies) for gate, copies in st.open_copies.items()},
            set(st.pending),
            st.lead,
        )

    def step_det(self, st: MachineState, tr: Transition) -> MachineState:
        """The state after a deterministic transition, made by changing
        `st` in place: `st` must come from `own` (or an earlier `step_det`)
        and is not to be used afterwards.  The lead survives only the move
        that is `st.lead` itself, and only if the token still moves."""
        if tr is not st.lead:
            st.lead = None
        if tr.kind == "move":
            (orig,) = tr.data
            act, pos = st.acts.get(orig), st.tokens.get(orig)
            if act is None or act[0] != "move" or pos is None:
                raise MachineInvariantError(f"token {orig} cannot move: {act}")
            self._successor(st, [(orig, pos, act[1])])
            if st.lead is not None:
                act = st.acts.get(orig)
                if act is None or act[0] != "move":
                    st.lead = None
            return st
        if tr.kind in ("link", "spawn"):
            nkey, t = tr.data
            site = (tr.kind, nkey, t)
            if site not in st.pending:
                raise MachineInvariantError(
                    f"{tr.kind} at {nkey} in copy {t} is not pending: "
                    "its copy is not open or its origin already exists"
                )
            ekey = (nkey[0], self.index.node(nkey).concl[0])
            p = (ekey, () if tr.kind == "link" else (STAR, DELTA), t)
            st.pending.remove(site)
            self._successor(st, [(p, None, p)])
            if tr.kind == "link":
                taken = set(st.ind.values())
                i = fresh(st.memory, taken)
                if i in taken:
                    raise MachineInvariantError(f"link at {nkey}: address {i} is already bound")
                st.ind[p] = i
            return st
        if tr.kind == "update":
            sync_nkey, t = tr.data
            node = self.index.node(sync_nkey)
            level = sync_nkey[0]
            at = {st.tokens[orig]: orig for orig in st.acts}
            addrs, moves = [], []
            for i, e in enumerate(node.prem):
                pos = ((level, e), (), t)
                orig = at.get(pos)
                if orig not in st.ind:
                    raise MachineInvariantError(
                        f"update at {sync_nkey} in copy {t}: no token with an address on {e}")
                addrs.append(st.ind[orig])
                moves.append((orig, pos, ((level, node.concl[i]), (), t)))
            st.memory = st.memory.update(tuple(addrs), node.label)
            return self._successor(st, moves)
        raise ValueError(f"{tr.kind} transition branches: use apply")

    # -- initial state ------------------------------------------------------

    def initial_state(self) -> MachineState:
        root = self.index.level_net[()]
        moves = []
        for e in root.conclusions:
            for s in _up_stacks(root.edges[e]):
                p = (((), e), s, ())
                moves.append((p, None, p))
        # The whole net is one open copy, with the empty box stack.
        root_sites = self.index.gate_sites.get((None, 0), ())
        pending = {(kind, nkey, ()) for kind, nkey in root_sites}
        empty = MachineState({}, {}, self.initial_memory, {}, {}, pending)
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
