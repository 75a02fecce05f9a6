import itertools
import os
import random

import pytest

from convergence import converge
import tokennets.msiam
from tokennets import nets
from tokennets.memory import int_backend, prob_backend, quantum_backend
from tokennets.msiam import (
    DELTA,
    L,
    MachineInvariantError,
    MsSystem,
    NetIndex,
    R,
    STAR,
    Transition,
    indicator,
)
from tokennets.nets import BOT, ONE, bang, par, quest, tensor
from tokennets.pars import (
    Distribution,
    FusedSystem,
    leftmost_policy,
    TOL,
    lift_step,
    lifted_steps,
    seeded_policy,
)
from tokennets.pcfll import Closure, PcfSystem, parse, typecheck
from tokennets.translate import translate

from test_nets import nest_in_boxes, single_one_net
from unfused import ScanSystem, Unfused, full_redexes, scan_copies

BACKENDS = {
    "int": int_backend,
    "prob": prob_backend,
    "quantum": quantum_backend,
}


def make(src, bk):
    backend = BACKENDS[bk]()
    term = parse(src, backend.labels)
    tp = typecheck(term)
    return translate(tp, backend), backend


def run(pn, horizon, policy=leftmost_policy, budget=500):
    """(convergence probability, horizon hit) of the fused machine for `pn`."""
    fused = FusedSystem(MsSystem(pn), budget)
    start = fused.prepare(fused.sys.initial_state())
    return converge(Distribution.dirac(start), fused, policy, horizon=horizon)


def pcf_converge(src, backend, horizon=300):
    term = parse(src, backend.labels)
    typecheck(term)
    cl = Closure(term, {}, backend.initial())
    return converge(Distribution.dirac(cl), Unfused(PcfSystem()), leftmost_policy,
                    horizon=horizon)


# -- stack indicator [TRIVIAL-style oracles: computed by hand] -------------


def test_indicator_units():
    assert indicator((), ONE) == "one"
    assert indicator((), BOT) == "bot"
    assert indicator((L,), tensor(BOT, ONE)) == "bot"
    assert indicator((R,), tensor(BOT, ONE)) == "one"


def test_indicator_modalities():
    a = bang(tensor(BOT, bang(ONE)))
    assert indicator((STAR, DELTA), a) == "bang"
    assert indicator((STAR, R, STAR, DELTA), a) == "bang"
    assert indicator((STAR, L), a) == "bot"
    assert indicator((STAR, R, STAR), a) == "one"


# -- simple runs -----------------------------------------------------------


def test_single_allocation_runs_to_final():
    pn, _ = make("new", "int")
    sys = MsSystem(pn)
    st = sys.initial_state()
    assert not st.tokens  # a 1-conclusion has no initial tokens
    final = FusedSystem(sys).prepare(st)
    assert not full_redexes(sys, final)
    assert not final.acts
    ((orig, pos),) = final.tokens.items()
    assert sys.index.is_root_conclusion(pos[0])
    assert final.ind[orig] == 0  # the allocation got the first address


def test_identity_application():
    pn, _ = make(r"(\x. x) new", "int")
    p, hit = run(pn, horizon=50)
    assert not hit and p == pytest.approx(1.0, abs=1e-9)


def test_sync_updates_memory():
    pn, _ = make("S (S new)", "int")
    sys = MsSystem(pn)
    fused = FusedSystem(sys)
    st = fused.prepare(sys.initial_state())
    assert not st.acts
    # one register, incremented twice
    (a,) = st.memory.support()
    assert st.memory.get(a) == 2


def test_probabilistic_choice_splits_mass():
    pn, _ = make("if c new then new else new", "prob")
    sys = MsSystem(pn)
    fused = FusedSystem(sys)
    mu = Distribution.dirac(fused.prepare(sys.initial_state()))
    for _ in range(6):
        mu = lift_step(mu, fused, leftmost_policy)
    finals = list(mu)
    assert len(finals) == 2
    assert all(p == pytest.approx(0.5) for _, p in finals)
    assert all(not a.acts for a, _ in finals)


def test_terminal_states_are_final():
    pn, _ = make("if c new then (if c new then new else new) else new", "prob")
    sys = MsSystem(pn)
    fused = FusedSystem(sys)
    mu = Distribution.dirac(fused.prepare(sys.initial_state()))
    for _ in range(10):
        mu = lift_step(mu, fused, leftmost_policy)
    for a, _ in mu:
        if not fused.enumerate_redexes(a):
            assert not a.acts
    assert mu.mass() == pytest.approx(1.0)


def test_recursive_coin_converges_geometrically():
    src = "letrec f x = if x then new else f (c new) in f (c new)"
    pn, _ = make(src, "prob")
    p, hit = run(pn, horizon=40)
    assert not hit
    assert p >= 1 - 1e-9


def test_divergent_recursion_never_converges():
    pn, _ = make("letrec f x = f x in f new", "int")
    p, hit = run(pn, horizon=10, budget=60)
    assert hit and p == 0.0


# -- agreement with the term machine [DERIVED oracles] ---------------------

PROGRAMS = [
    ("new", "int"),
    (r"(\x. x) new", "int"),
    ("S (S new)", "int"),
    ("let <a, b> = <S new, new> in <b, a>", "int"),
    (r"(\f. <f new, f new>) (\x. x)", "int"),
    ("letrec f x = if x then new else f new in f (S new)", "int"),
    ("if c new then new else new", "prob"),
    ("if c new then (if c new then new else new) else new", "prob"),
    ("let <p, q> = CNOT <new, H new> in <p, q>", "quantum"),
]


@pytest.mark.parametrize("src,bk", PROGRAMS)
def test_machine_agrees_with_term_reduction(src, bk):
    pn, backend = make(src, bk)
    p_ms, hit = run(pn, horizon=120)
    p_pcf, hit2 = pcf_converge(src, backend)
    assert not hit and not hit2
    assert p_ms == pytest.approx(p_pcf, abs=1e-9)


def test_policy_independence():
    src = "letrec f x = if x then new else f (c new) in f (c new)"
    pn, _ = make(src, "prob")
    p1, _ = run(pn, horizon=30, policy=leftmost_policy)
    p2, _ = run(pn, horizon=30, policy=seeded_policy(7))
    assert p1 == pytest.approx(p2, abs=1e-12)


# -- incremental indexes against a full token scan [DERIVED oracles] -------

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


def corpus_programs():
    out = []
    for name in sorted(os.listdir(CORPUS_DIR)):
        if name.endswith(".pcf"):
            with open(os.path.join(CORPUS_DIR, name)) as fh:
                src = fh.read()
            out.append((name, src.splitlines()[0].split(":")[1].strip(), src))
    return out


CORPUS = corpus_programs()


def rebuilt_indexes(sys, st, initial):
    """(live origins, actions, waiting, pending sites) computed from the
    token map and the open copies.  The token map holds live and exited
    tokens only: no token in it is stable.  No token is ever destroyed:
    the origins of the token map and of the parked markers are, each once,
    the `initial` origins and those of the sites that fired, which are the
    link/spawn sites of the whole net and of each open copy that are not
    pending."""
    markers = [orig for copies in st.open_copies.values() for orig in copies.values()]
    assert len(set(markers)) == len(markers) and not st.tokens.keys() & set(markers)
    fired = {
        ((nkey[0], sys.index.node(nkey).concl[0]), () if kind == "link" else (STAR, DELTA), t)
        for gate, sites in sys.index.gate_sites.items()
        for t in scan_copies(sys, st, *gate)
        for kind, nkey in sites
        if (kind, nkey, t) not in st.pending
    }
    assert st.tokens.keys() | set(markers) == initial | fired
    assert len(st) == len(initial) + len(fired)
    live = set()
    for orig, pos in st.tokens.items():
        d = sys.direction(pos)
        assert d != "stable", (orig, pos)
        exited = d == "down" and sys.index.is_root_conclusion(pos[0]) and not pos[2]
        if not exited:
            live.add(orig)
    acts = {orig: sys.token_step(st, st.tokens[orig]) for orig in live}
    waiting = {}
    for orig, act in acts.items():
        if act is not None and act[0] == "wait":
            for gate in act[1]:
                waiting.setdefault(gate, set()).add(orig)
    pending = {
        (tr.kind, *tr.data)
        for tr in ScanSystem.enumerate_redexes(sys, st)
        if tr.kind in ("link", "spawn")
    }
    return live, acts, waiting, pending


def exposed_states(src, bk, horizon, policy=leftmost_policy):
    """(machine, every state a fused run of `src` exposes in its first
    `horizon` steps, the terminal states of its last step)."""
    pn, _ = make(src, bk)
    sys = MsSystem(pn)
    fused = FusedSystem(sys)
    exposed, terminal = [], []
    mu = Distribution.dirac(fused.prepare(sys.initial_state()))
    for mu, term, _ in lifted_steps(mu, fused, policy, horizon, 0.0):
        exposed.extend(mu.support())
        terminal = list(term.support())
    return sys, exposed, terminal


def markers(st) -> int:
    return sum(map(len, st.open_copies.values()))


@pytest.mark.parametrize("horizon", [64, 256])
def test_token_map_holds_no_marker_on_omega(horizon):
    # Omega opens about 56 copies per step, and each parked marker's one
    # record is in `open_copies`: the token map holds the live and exited
    # tokens only.  With the markers in it too, it held 3,613 entries at
    # horizon 64 and 14,279 at 256.
    (src,) = [src for name, _, src in CORPUS if name == "omega.pcf"]
    _, exposed, _ = exposed_states(src, "int", horizon)
    assert max(len(st.tokens) for st in exposed) <= 2
    counts = [markers(st) for st in exposed]
    assert counts == sorted(counts) and counts[-1] >= 50 * horizon


@pytest.mark.parametrize("src", ["S", r"\x. S x", r"\x. if x then new else new"])
def test_a_function_ends_with_its_argument_waiting_for_an_address(src):
    # A closed run gives a function's argument no address, so the token
    # that comes in from it waits for ever at the sync or test it reaches:
    # the terminal state is not final, and no other token is live.
    _, _, terminal = exposed_states(src, "int", 20)
    assert terminal
    for st in terminal:
        unaddressed = {orig for orig, act in st.acts.items()
                       if act is not None and act[0] in ("sync", "test") and orig not in st.ind}
        assert len(unaddressed) == 1 and st.acts.keys() == unaddressed


class CheckedSystem(MsSystem):
    """The indexed machine, checked against the full scan on every state
    whose transitions are enumerated and on every closure step."""

    def __init__(self, pn):
        super().__init__(pn)
        self.reference = ScanSystem(pn)
        # One signature table, so that both machines read the same ids.
        self.reference.sig_struct, self.reference._sig_ids = self.sig_struct, self._sig_ids
        start = self.reference.initial_state()
        self.initial = start.tokens.keys() | {
            orig for copies in start.open_copies.values() for orig in copies.values()}
        self.checked = 0
        self.closure_steps = 0

    def check_indexes(self, st):
        live, acts, waiting, pending = rebuilt_indexes(self.reference, st, self.initial)
        assert st.acts.keys() == live
        assert st.acts == acts
        assert st.waiting == waiting
        assert st.pending == pending

    def enumerate_redexes(self, st):
        out = super().enumerate_redexes(st)
        assert out == [tr for tr in self.reference.enumerate_redexes(st) if tr.kind == "test"]
        self.check_indexes(st)
        self.checked += 1
        return out

    def next_det(self, st):
        out = super().next_det(st)
        scan = self.reference.enumerate_redexes(st)
        assert out == next((tr for tr in scan if tr.kind != "test"), None)
        self.check_indexes(st)
        self.closure_steps += 1
        return out


@pytest.mark.parametrize("policy", ["leftmost", "seeded"])
@pytest.mark.parametrize("name,bk,src", CORPUS, ids=[c[0] for c in CORPUS])
def test_indexed_enumeration_matches_full_scan(name, bk, src, policy):
    pn, _ = make(src, bk)
    sys = CheckedSystem(pn)
    fused = FusedSystem(sys)
    start = fused.prepare(sys.initial_state())
    pick = leftmost_policy if policy == "leftmost" else seeded_policy(0)
    horizon = 3 if name == "omega.pcf" else 40
    for _, term, _ in lifted_steps(Distribution.dirac(start), fused, pick, horizon, TOL):
        pass
    assert sys.checked > 0 and sys.closure_steps > 0
    # Every terminal state is final: no token is live.  Omega has none.
    assert all(not st.acts for st in term.support())
    assert term.support() or name == "omega.pcf"


@pytest.mark.parametrize("horizon", [3, 12, 64])
def test_token_steps_per_micro_step_do_not_grow(horizon, monkeypatch):
    # A micro-step is a step_det call inside a closure or an apply call at a
    # branch point (the fused run applies only branching transitions).  A
    # token's action is taken once, when it arrives, so the machine calls
    # `token_step` at most once per micro-step.
    calls = {"token_step": 0, "micro": 0}
    token_step, apply, step_det = MsSystem.token_step, MsSystem.apply, MsSystem.step_det

    def counted_token_step(self, st, pos, *direction):
        calls["token_step"] += 1
        return token_step(self, st, pos, *direction)

    def counted_apply(self, st, tr):
        calls["micro"] += 1
        return apply(self, st, tr)

    def counted_step_det(self, st, tr):
        calls["micro"] += 1
        return step_det(self, st, tr)

    monkeypatch.setattr(MsSystem, "token_step", counted_token_step)
    monkeypatch.setattr(MsSystem, "apply", counted_apply)
    monkeypatch.setattr(MsSystem, "step_det", counted_step_det)
    (src,) = [src for name, _, src in CORPUS if name == "omega.pcf"]
    pn, _ = make(src, "int")
    p, hit = run(pn, horizon=horizon)
    assert hit and p == 0.0
    assert calls["micro"] > 0
    assert calls["token_step"] <= calls["micro"]


class LeadChecked(Unfused):
    """The unfused machine, checking every successor of every transition
    it applies: `next_det`, which reads the successor's lead when it has
    one, names the first deterministic redex of its enumeration.  Before
    each transition it asks `next_det` for the state's lead, and it fires
    a transition equal to that lead as the lead itself, so that `step_det`
    may keep it.  `others` collects the kinds of the transitions it fires
    that are not `next_det`'s."""

    def __init__(self, pn):
        super().__init__(MsSystem(pn))
        self.others = set()
        self.kept = 0

    def apply(self, st, tr):
        first = self.next_det(st)
        if tr == first:
            tr = first
        else:
            self.others.add(tr.kind)
        out = super().apply(st, tr)
        for nxt, _ in out:
            self.kept += nxt.lead is not None
            det = [r for r in self.enumerate_redexes(nxt) if r.kind != "test"]
            assert self.next_det(nxt) == (det[0] if det else None), (tr, nxt.lead)
        return out


def test_lead_is_never_stale():
    # The seeded policy also fires tests, updates and moves other than the
    # least, each of which must clear the lead.
    others, kept = set(), 0
    for _, bk, src in CORPUS:
        pn, _ = make(src, bk)
        sys = LeadChecked(pn)
        converge(Distribution.dirac(sys.initial_state()), sys, seeded_policy(3), horizon=300)
        others |= sys.others
        kept += sys.kept
    assert kept > 0
    assert others == {"link", "spawn", "move", "update", "test"}, others


# Measured shares: 0.22 on omega at every horizon, 0.044 on coin_prob.pcf.
# Without the lead, every micro-step with no pending site scans (0.89 on
# omega).
@pytest.mark.parametrize("name,horizon,share", [
    ("omega.pcf", 12, 0.3), ("omega.pcf", 64, 0.3), ("coin_prob.pcf", 200, 0.1)])
def test_next_det_seldom_scans_the_action_map(name, horizon, share, monkeypatch):
    # `next_det` scans the action map only on a state with no lead and no
    # pending site; the lead token moves again on most micro-steps.
    calls = {"scan": 0, "micro": 0}
    next_det, apply, step_det = MsSystem.next_det, MsSystem.apply, MsSystem.step_det

    def counted_next_det(self, st):
        calls["scan"] += st.lead is None and not st.pending
        return next_det(self, st)

    def counted_apply(self, st, tr):
        calls["micro"] += 1
        return apply(self, st, tr)

    def counted_step_det(self, st, tr):
        calls["micro"] += 1
        return step_det(self, st, tr)

    monkeypatch.setattr(MsSystem, "next_det", counted_next_det)
    monkeypatch.setattr(MsSystem, "apply", counted_apply)
    monkeypatch.setattr(MsSystem, "step_det", counted_step_det)
    ((bk, src),) = [(bk, src) for n, bk, src in CORPUS if n == name]
    pn, _ = make(src, bk)
    run(pn, horizon=horizon)
    assert calls["micro"] > 1000
    assert calls["scan"] <= share * calls["micro"], calls


def test_directions_are_computed_once_per_edge_and_stack(monkeypatch):
    # `direction` reads only the fixed net, the edge and the formula stack,
    # so a longer omega run meets no (edge, stack) pair it has not met.
    misses = [0]
    uncached = MsSystem._direction

    def counted(self, ekey, fstack):
        misses[0] += 1
        return uncached(self, ekey, fstack)

    monkeypatch.setattr(MsSystem, "_direction", counted)
    (src,) = [src for name, _, src in CORPUS if name == "omega.pcf"]
    pn, _ = make(src, "int")
    counts = []
    for horizon in (12, 64):
        misses[0] = 0
        run(pn, horizon=horizon)
        counts.append(misses[0])
    assert counts[0] > 0 and counts[0] == counts[1]


def test_work_does_not_depend_on_process_history(monkeypatch):
    # Transitions are ordered by the node ids in their positions, which come
    # from a process-wide counter; the order, and so the micro-steps the
    # leftmost policy takes, must not change with where the counter stands:
    # at 0, as in a fresh process, or at 10**6 after another msiam run.
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    from programs import wide_quantum_source

    wide = wide_quantum_source(8, random.Random(1))
    (coin,) = [(src, bk) for name, bk, src in CORPUS if name == "coin.pcf"]
    calls = [0]
    apply, step_det = MsSystem.apply, MsSystem.step_det

    def counted_apply(self, st, tr):
        calls[0] += 1
        return apply(self, st, tr)

    def counted_step_det(self, st, tr):
        calls[0] += 1
        return step_det(self, st, tr)

    def micro_steps(src, bk):
        calls[0] = 0
        pn, _ = make(src, bk)
        p, hit = run(pn, horizon=200)
        assert not hit and p == pytest.approx(1.0)
        return calls[0]

    monkeypatch.setattr(MsSystem, "apply", counted_apply)
    monkeypatch.setattr(MsSystem, "step_det", counted_step_det)
    monkeypatch.setattr(nets, "_ids", itertools.count())
    fresh = micro_steps(wide, "quantum")
    micro_steps(*coin)
    monkeypatch.setattr(nets, "_ids", itertools.count(10**6))
    assert micro_steps(wide, "quantum") == fresh


def reference_index(net):
    """(level_net, doors, gate_sites) of `NetIndex`, built by a walk of
    its own: an explicit stack of (level net, path, gate), each content's
    door and gate taken where its box is met."""
    level_net, doors, gate_sites = {}, {}, {}
    todo = [(net, (), (None, 0))]
    while todo:
        net, level, gate = todo.pop()
        level_net[level] = net
        for nid, node in net.nodes.items():
            nkey = (level, nid)
            if node.kind in ("one", "der"):
                kind = "link" if node.kind == "one" else "spawn"
                gate_sites.setdefault(gate, []).append((kind, nkey))
            marker = (DELTA,) if node.kind in ("bangbox", "ybox") else ()
            for ci, content in enumerate(node.contents):
                inner = level + ((nid, ci),)
                doors[(inner, content.conclusions[0])] = (nkey, ci, marker)
                todo.append((content, inner, (nkey, ci)))
    return level_net, doors, gate_sites


def test_index_matches_a_walk_of_its_own():
    nested = 0
    for _, bk, src in CORPUS:
        pn, _ = make(src, bk)
        index = NetIndex(pn.net)
        level_net, doors, gate_sites = reference_index(pn.net)
        assert index.level_net.keys() == level_net.keys()
        assert all(index.level_net[level] is net for level, net in level_net.items())
        assert index.doors == doors
        assert index.gate_sites == gate_sites  # each gate's sites in the same order
        nested += any(len(level) > 1 for level in level_net)
    assert nested


def test_index_of_boxes_nested_1500_deep(default_recursion_limit):
    inner = single_one_net()
    (one,) = inner.nodes
    net, boxes = nest_in_boxes(inner, 1500)
    index = NetIndex(net)
    level = tuple((nid, 0) for nid in boxes)
    gate = ((level[:-1], boxes[-1]), 0)
    assert ("link", (level, one)) in index.gate_sites[gate]


# -- invariant checks ------------------------------------------------------


@pytest.mark.parametrize("kind", ["link", "spawn"])
def test_firing_a_site_twice_is_rejected(kind):
    pn, _ = make(r"(\f. <f new, f new>) (\x. x)", "int")
    sys = Unfused(MsSystem(pn))
    st = sys.initial_state()
    while True:
        redexes = sys.enumerate_redexes(st)
        sites = [tr for tr in redexes if tr.kind == kind]
        if sites:
            break
        ((st, _),) = sys.apply(st, redexes[0])
    ((fired, _),) = sys.apply(st, sites[0])
    assert sites[0] not in sys.enumerate_redexes(fired)
    with pytest.raises(MachineInvariantError):
        sys.apply(fired, sites[0])


def test_link_to_a_bound_address_is_rejected(monkeypatch):
    pn, _ = make("<new, new>", "int")
    sys = Unfused(MsSystem(pn))
    st = sys.initial_state()
    first, second = sys.enumerate_redexes(st)
    ((st, _),) = sys.apply(st, first)
    (bound,) = st.ind.values()
    monkeypatch.setattr(tokennets.msiam, "fresh", lambda memory, used: bound)
    with pytest.raises(MachineInvariantError):
        sys.apply(st, second)


def test_a_second_marker_for_an_open_copy_is_rejected():
    # An opened copy has one record, its marker; a token that parks at the
    # door of a copy that is open already is refused, not dropped.
    pn, _ = make(r"(\f. <f new, f new>) (\x. x)", "int")
    sys = MsSystem(pn)
    st = FusedSystem(sys).prepare(sys.initial_state())
    ((gate, copies),) = st.open_copies.items()
    ((door, marker),) = [(ekey, d[2]) for ekey, d in sys.index.doors.items() if d[:2] == gate]
    owned = sys.own(st)
    orig = min(owned.tokens)
    owned.acts[orig] = ("move", (door, marker, min(copies)))
    with pytest.raises(MachineInvariantError, match="opens twice"):
        sys.step_det(owned, Transition("move", (orig,)))
    assert len(st) == 4 and markers(st) == 2  # `st` is not the owned copy


def test_test_transition_off_a_choice_box_is_rejected():
    pn, _ = make(r"(\x. x) new", "int")
    sys = Unfused(MsSystem(pn))
    st = sys.initial_state()
    (link,) = sys.enumerate_redexes(st)
    ((st, _),) = sys.apply(st, link)
    (move,) = sys.enumerate_redexes(st)
    assert move.kind == "move"
    with pytest.raises(MachineInvariantError):
        sys.apply(st, Transition("test", move.data))
