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
    lift_step,
    seeded_policy,
)
from tokennets.pcfll import Closure, PcfSystem, parse, typecheck
from tokennets.translate import translate

from test_nets import nest_in_boxes, single_one_net

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
    return converge(Distribution.dirac(cl), PcfSystem(), leftmost_policy, horizon=horizon)


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
    assert not sys.enumerate_redexes(final)
    assert not final.live
    ((pos, orig),) = final.tokens
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
    assert not st.live
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
    assert all(not a.live for a, _ in finals)


def test_terminal_states_are_final():
    pn, _ = make("if c new then (if c new then new else new) else new", "prob")
    sys = MsSystem(pn)
    fused = FusedSystem(sys)
    mu = Distribution.dirac(fused.prepare(sys.initial_state()))
    for _ in range(10):
        mu = lift_step(mu, fused, leftmost_policy)
    for a, _ in mu:
        if not fused.enumerate_redexes(a):
            assert not a.live
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


def _gate(level):
    return (None, 0) if not level else ((level[:-1], level[-1][0]), level[-1][1])


def scan_copies(sys, st, box_nkey, ci=0):
    """Open copies of a box side, by scanning every token for a marker."""
    if box_nkey is None:
        return {()}
    door = sys.index.principal_premise(box_nkey, ci)
    want = (DELTA,) if sys.index.node[box_nkey].kind in ("bangbox", "ybox") else ()
    return {pos[2] for pos, _ in st.tokens if pos[0] == door and pos[1] == want}


class ScanSystem(MsSystem):
    """The machine without indexes: every enumeration rescans every token
    and every link/spawn site of every open copy."""

    def copies(self, st, box_nkey, ci=0):
        return scan_copies(self, st, box_nkey, ci)

    def enumerate_redexes(self, st):
        out = []
        sync_tokens = {}
        for pos, orig in st.tokens:
            act = self.token_step(st, pos)
            if act is None:
                continue
            if act[0] in ("move", "test"):
                out.append(Transition(act[0], (orig,)))
            elif act[0] == "sync":
                sync_tokens.setdefault((act[1], act[2]), set()).add(pos[0])
        for (sync_nkey, t), prem_edges in sync_tokens.items():
            level = sync_nkey[0]
            if all((level, e) in prem_edges for e in self.index.node[sync_nkey].prem):
                out.append(Transition("update", (sync_nkey, t)))
        used = {orig for _, orig in st.tokens}
        for nkey, node in self.index.node.items():
            if node.kind not in ("one", "der"):
                continue
            kind, fstack = ("link", ()) if node.kind == "one" else ("spawn", (STAR, DELTA))
            for t in self.copies(st, *_gate(nkey[0])):
                if ((nkey[0], node.concl[0]), fstack, t) not in used:
                    out.append(Transition(kind, (nkey, t)))
        return sorted(out, key=Transition.sort_key)


def rebuilt_indexes(sys, st):
    """(live, actions, waiting, open copies, pending sites) computed from
    the token set."""
    live = {}
    for pos, orig in st.tokens:
        d = sys.direction(pos)
        exited = d == "down" and sys.index.is_root_conclusion(pos[0]) and not pos[2]
        if d != "stable" and not exited:
            live[orig] = pos
    acts = {orig: sys.token_step(st, pos) for orig, pos in live.items()}
    waiting = {}
    for orig, act in acts.items():
        if act is not None and act[0] == "wait":
            for gate in act[1]:
                waiting.setdefault(gate, set()).add(orig)
    open_copies = {}
    for nkey, node in sys.index.node.items():
        for ci in range(len(node.contents)):
            found = scan_copies(sys, st, nkey, ci)
            if found:
                open_copies[(nkey, ci)] = found
    pending = {
        (tr.kind, *tr.data)
        for tr in ScanSystem.enumerate_redexes(sys, st)
        if tr.kind in ("link", "spawn")
    }
    return live, acts, waiting, open_copies, pending


class CheckedSystem(MsSystem):
    """The indexed machine, checked against the full scan on every state
    whose transitions are enumerated and on every closure step."""

    def __init__(self, pn):
        super().__init__(pn)
        self.reference = ScanSystem(pn)
        # One signature table, so that both machines read the same ids.
        self.reference.sig_struct, self.reference._sig_ids = self.sig_struct, self._sig_ids
        self.checked = 0
        self.closure_steps = 0

    def check_indexes(self, st):
        live, acts, waiting, open_copies, pending = rebuilt_indexes(self.reference, st)
        assert st.live == live
        assert st.acts == acts
        assert st.waiting == waiting
        assert st.open_copies == open_copies
        assert st.pending == pending

    def enumerate_redexes(self, st):
        out = super().enumerate_redexes(st)
        assert out == self.reference.enumerate_redexes(st)
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
    converge(Distribution.dirac(start), fused, pick, horizon=horizon)
    assert sys.checked > 0 and sys.closure_steps > 0


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
    sys = MsSystem(pn)
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
    sys = MsSystem(pn)
    st = sys.initial_state()
    first, second = sys.enumerate_redexes(st)
    ((st, _),) = sys.apply(st, first)
    (bound,) = st.ind.values()
    monkeypatch.setattr(tokennets.msiam, "fresh", lambda memory, used: bound)
    with pytest.raises(MachineInvariantError):
        sys.apply(st, second)


def test_test_transition_off_a_choice_box_is_rejected():
    pn, _ = make(r"(\x. x) new", "int")
    sys = MsSystem(pn)
    st = sys.initial_state()
    (link,) = sys.enumerate_redexes(st)
    ((st, _),) = sys.apply(st, link)
    (move,) = sys.enumerate_redexes(st)
    assert move.kind == "move"
    with pytest.raises(MachineInvariantError):
        sys.apply(st, Transition("test", move.data))
