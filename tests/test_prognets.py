import copy
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from convergence import converge
from test_pcfll import register_tree, s_chain
from tokennets.memory import (
    COIN,
    IntRegisterMemory,
    ProbRegisterMemory,
    S,
    int_backend,
    prob_backend,
    quantum_backend,
)
from tokennets.msiam import MachineState, MsSystem
from tokennets.nets import BOT, Net, ONE, SurfaceIndex, find_redexes, validate
from tokennets.pars import (
    TOL,
    Distribution,
    FusedSystem,
    check_diamond,
    leftmost_policy,
    lift_step,
    lifted_steps,
    seeded_policy,
)
from tokennets.pcfll import Closure, PcfSystem, parse, typecheck
from tokennets.prognets import PnSystem, ProgramNet, enumerate_redexes, next_det, own, rewrite
from tokennets.translate import translate
from unfused import Unfused, full_redexes, pn_redexes, rule


def single_one_net():
    net = Net()
    one = net.add_node("one", [ONE])
    net.conclusions = [one.concl[0]]
    return net


def test_inputs_and_link():
    net = single_one_net()
    pn = ProgramNet(net, {}, IntRegisterMemory())
    (r,) = pn_redexes(pn)
    assert r.kind == "link"
    ((pn2, p),) = Unfused(PnSystem()).apply(pn, r)
    assert p == 1.0
    assert pn2.ind == {net.conclusions[0]: 0}
    assert pn_redexes(pn2) == []


def test_link_avoids_memory_support_and_ind():
    net = Net()
    one1 = net.add_node("one", [ONE])
    one2 = net.add_node("one", [ONE])
    net.conclusions = [one1.concl[0], one2.concl[0]]
    pn = ProgramNet(net, {one1.concl[0]: 0}, IntRegisterMemory({2: 7}))
    r = next(x for x in pn_redexes(pn) if x.kind == "link")
    ((pn2, _),) = Unfused(PnSystem()).apply(pn, r)
    assert pn2.ind[one2.concl[0]] == 1  # skips 0 (ind) but also 2 (memory)


def test_canonical_equality_across_addresses_and_isomorphism():
    net = single_one_net()
    e = net.conclusions[0]
    pn_a = ProgramNet(net, {e: 5}, IntRegisterMemory({5: 3}))
    net2 = net.renamed()
    pn_b = ProgramNet(net2, {net2.conclusions[0]: 0}, IntRegisterMemory({0: 3}))
    assert pn_a == pn_b
    assert hash(pn_a) == hash(pn_b)
    pn_c = ProgramNet(net, {e: 5}, IntRegisterMemory({5: 4}))
    assert pn_a != pn_c


def test_orphan_addresses_compare_by_value():
    net = single_one_net()
    e = net.conclusions[0]
    # Same live register, orphan register with equal value at different addresses.
    pn_a = ProgramNet(net, {e: 0}, IntRegisterMemory({3: 9}))
    pn_b = ProgramNet(net, {e: 1}, IntRegisterMemory({7: 9}))
    assert pn_a == pn_b


def counter_net():
    """one --> sync(S): a single register incremented once."""
    net = Net()
    one = net.add_node("one", [ONE])
    sync = net.add_node("sync", [ONE], [one.concl[0]], label=S)
    net.conclusions = [sync.concl[0]]
    validate(net)
    return net


def test_sync_update():
    pn = ProgramNet(counter_net(), {}, IntRegisterMemory())
    sys = Unfused(PnSystem())
    *_, (dist, _, _) = lifted_steps(Distribution.dirac(pn), sys, leftmost_policy, 2, 0.0)
    ((final, p),) = list(dist)
    assert p == 1.0
    assert not sys.enumerate_redexes(final)
    (addr,) = final.ind.values()
    assert final.memory.get(addr) == 1


def test_sync_requires_all_premises_linked():
    net = counter_net()
    pn = ProgramNet(net, {}, IntRegisterMemory())
    kinds = [r.kind for r in pn_redexes(pn)]
    assert kinds == ["link"]  # sync gated until its premise is active


def test_program_nets_sharing_a_net_keep_their_own_unlinked_nodes():
    # One net under two address maps: the one node is linked in `pn_b` and
    # not in `pn_a`, so `pn_a` must link it and `pn_b` fire the sync.  Ask
    # in either order, and again after each is stepped from its own copy,
    # which leaves the shared net alone.
    def kind(r):
        return None if r is None else r.kind if r.kind == "link" else r.net_redex.kind

    for a_first in (True, False):
        net = counter_net()
        (one,) = [nid for nid, n in net.nodes.items() if n.kind == "one"]
        pn_a = ProgramNet(net, {}, IntRegisterMemory())
        pn_b = ProgramNet(net, {net.nodes[one].concl[0]: 0}, IntRegisterMemory({0: 0}))
        expected = [(pn_a, "link"), (pn_b, "sync")]
        order = expected if a_first else expected[::-1]
        for pn, want in order:
            assert kind(next_det(pn)) == want
        for pn, _ in reversed(order):
            stepped = rewrite(own(pn), next_det(pn))
            assert kind(next_det(stepped)) == ("sync" if pn is pn_a else None)
            for other, want in order:
                assert kind(next_det(other)) == want
            assert stepped.net is not net and len(net.nodes) == 2


def coin_choice_net():
    """A choice box guarded by a coin: one --> sync(c) --> cut with bot-box."""

    def content_side():
        c = Net()
        root = c.add_node("bot", [BOT])
        cone = c.add_node("one", [ONE])
        c.conclusions = [root.concl[0], cone.concl[0]]
        return c

    net = Net()
    box = net.add_node("botbox", [BOT, ONE], contents=[content_side(), content_side()])
    one = net.add_node("one", [ONE])
    sync = net.add_node("sync", [ONE], [one.concl[0]], label=COIN)
    net.add_node("cut", [], [box.concl[0], sync.concl[0]])
    net.conclusions = [box.concl[1]]
    validate(net)
    return net


def test_coin_choice_probabilities():
    pn = ProgramNet(coin_choice_net(), {}, ProbRegisterMemory())
    sys = Unfused(PnSystem())
    p, hit = converge(Distribution.dirac(pn), sys, leftmost_policy, horizon=10)
    assert p == pytest.approx(1.0, abs=1e-12)
    assert not hit
    *_, (dist, _, _) = lifted_steps(Distribution.dirac(pn), sys, leftmost_policy, 10, 0.0)
    probs = sorted(p for _, p in dist)
    assert probs == [pytest.approx(0.5), pytest.approx(0.5)]
    for final, _ in dist:
        assert not sys.enumerate_redexes(final)
        assert [n.kind for n in final.net.nodes.values()] == ["one"]


def test_test_redex_gated_until_guard_linked():
    pn = ProgramNet(coin_choice_net(), {}, ProbRegisterMemory())
    kinds = [r.kind for r in pn_redexes(pn)]
    assert kinds == ["link"]
    # A guard cut straight against the choice box: the test is there, and
    # the engine offers it only once the guard is linked.
    backend = int_backend()
    pn = translate(typecheck(parse("if new then new else new", backend.labels)), backend)
    assert [r.kind for r in find_redexes(pn.net)] == ["test"]
    assert enumerate_redexes(pn) == []
    closed = FusedSystem(PnSystem()).prepare(pn)
    assert [rule(r) for r in enumerate_redexes(closed)] == ["test"]


def test_diamond_and_fusion():
    sys = Unfused(PnSystem())
    seeds = [
        ProgramNet(coin_choice_net(), {}, ProbRegisterMemory()),
        ProgramNet(counter_net(), {}, IntRegisterMemory()),
    ]
    report = check_diamond(sys, seeds, depth=8, policies=(leftmost_policy, seeded_policy(7)))
    assert report.passed, report.failures
    fused = FusedSystem(PnSystem())
    mu = Distribution.dirac(fused.prepare(seeds[0]))
    p, hit = converge(mu, fused, leftmost_policy, horizon=5)
    assert p == pytest.approx(1.0, abs=1e-12)


# -- the closure's ownership rule ---------------------------------------------

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.pcf"))
BACKENDS = {"int": int_backend, "prob": prob_backend, "quantum": quantum_backend}


def translated(path):
    src = path.read_text()
    backend = BACKENDS[re.search(r"^-- backend: *(\w+)", src, re.M).group(1)]()
    return translate(typecheck(parse(src, backend.labels)), backend)


def net_snapshot(pn):
    return ProgramNet(copy.deepcopy(pn.net), pn.ind, pn.memory)


def reference_closure(fused, a):
    """The closure before the Dirac fast path: fire the first deterministic
    redex of the full enumeration through the unfused, persistent `apply`,
    and unwrap its single reduct, until none is left."""
    for _ in range(fused.budget):
        det = [r for r in full_redexes(fused.sys, a) if rule(r) != "test"]
        if not det:
            return a
        ((a, p),) = fused.unfused.apply(a, det[0])
        assert p == 1.0
    return a


class OracleFused(FusedSystem):
    """Checks every closure against `reference_closure`, which fires
    through `unfused` (by default `Unfused(sys)`).  An element the
    closure does not own is checked afterwards, which also shows that the
    closure left it as it was; a branch reduct, which the closure rewrites
    in place, is checked on a deep copy (`snapshot`) taken before."""

    def __init__(self, sys, snapshot, unfused=None):
        super().__init__(sys)
        self.snapshot = snapshot
        self.unfused = Unfused(sys) if unfused is None else unfused
        self.closures = 0

    def _closure(self, a, owned=False):
        before = self.snapshot(a) if owned else a
        out = super()._closure(a, owned)
        assert out.canonical_key() == reference_closure(self, before).canonical_key()
        self.closures += 1
        return out


@pytest.mark.parametrize("policy", ["leftmost", "seeded"])
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_net_closure_owns_its_copy(path, policy):
    pn = translated(path)
    signature, ind = pn.net.signature(), dict(pn.ind)
    fused = OracleFused(PnSystem(), net_snapshot)
    pick = leftmost_policy if policy == "leftmost" else seeded_policy(0)
    horizon = 3 if path.name == "omega.pcf" else 40
    mu = Distribution.dirac(fused.prepare(pn))
    exposed = list(mu.support())
    for _ in range(horizon):
        mu = lift_step(mu, fused, pick)
        exposed.extend(mu.support())
    assert fused.closures > 0
    # The translated net is what the msiam engine walks afterwards.
    assert pn.net.signature() == signature and pn.ind == ind
    for el in exposed:
        assert el.canonical_key() == net_snapshot(el).canonical_key()


def ms_snapshot(st):
    """A machine state equal to `st` that shares no container with it."""
    return MachineState(dict(st.tokens), dict(st.ind), copy.deepcopy(st.memory), dict(st.acts),
                        {gate: set(w) for gate, w in st.waiting.items()},
                        {gate: dict(c) for gate, c in st.open_copies.items()}, set(st.pending))


def ms_parts(st):
    return (st.tokens, st.ind, st.memory, st.acts, st.waiting, st.open_copies, st.pending)


class UnchangedApply(MsSystem):
    """The machine, checking that firing a transition leaves its state as it
    was.  Its `apply` fires any transition, as `Unfused.apply` does: a test
    through the machine's `apply`, any other through `own` and `step_det`."""

    def __init__(self, pn):
        super().__init__(pn)
        self.applied = {"test": 0, "other": 0}

    def apply(self, st, tr):
        before = ms_snapshot(st)
        if tr.kind == "test":
            out = super().apply(st, tr)
        else:
            out = [(self.step_det(self.own(st), tr), 1.0)]
        assert ms_parts(st) == ms_parts(before), tr
        self.applied["test" if tr.kind == "test" else "other"] += 1
        return out


@pytest.mark.parametrize("policy", ["leftmost", "seeded"])
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_machine_closure_owns_its_copy(path, policy):
    sys = UnchangedApply(translated(path))
    fused = OracleFused(sys, ms_snapshot, unfused=sys)
    pick = leftmost_policy if policy == "leftmost" else seeded_policy(0)
    horizon = 3 if path.name == "omega.pcf" else 40
    mu = Distribution.dirac(fused.prepare(sys.initial_state()))
    exposed = [(el, ms_snapshot(el)) for el in mu.support()]
    for _ in range(horizon):
        mu = lift_step(mu, fused, pick)
        exposed.extend((el, ms_snapshot(el)) for el in mu.support())
    assert fused.closures > 0
    # The reference closures apply every deterministic kind of transition.
    assert sys.applied["other"] > 0
    assert sys.applied["test"] > 0 or "if " not in path.read_text()
    for el, snap in exposed:
        assert ms_parts(el) == ms_parts(snap)
        assert el._hash == hash(frozenset(el.tokens.items()))


def count_whole_net_copies(monkeypatch, counts):
    """Count in `counts["copy"]` each whole-net copy: each
    `Net.__deepcopy__`, which copies the top level and shares the box
    contents.  The nodes a rule copies go through `Net.copy_in` and the
    private contents it makes through `Net.renamed` instead, so they are
    not counted."""
    deepcopy = Net.__deepcopy__

    def counted(self, memo):
        counts["copy"] += 1
        return deepcopy(self, memo)

    monkeypatch.setattr(Net, "__deepcopy__", counted)


def count_level_builds(monkeypatch, counts):
    """Count in `counts["net"]` and `counts["index"]` each `Net` and each
    `SurfaceIndex` built."""
    for cls, name in ((Net, "net"), (SurfaceIndex, "index")):
        def counted(self, *args, _init=cls.__init__, _name=name, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)


def test_rules_build_a_level_only_for_private_contents(monkeypatch):
    # A rule that opens or copies a box copies its nodes straight into the
    # level: only `absorb` builds levels, one private copy per content of
    # its target.
    import tokennets.prognets as prognets

    counts = Counter()
    fired = Counter()
    bad = []

    def checked(rule):
        def run(net, redex, *side):
            before = counts.copy()
            target = net.nodes[redex.nodes[2]] if redex.kind == "absorb" else None
            out = rule(net, redex, *side)
            fired[redex.kind] += 1
            want = len(target.contents) if target is not None else 0
            built = (counts["net"] - before["net"], counts["index"] - before["index"])
            if built != (want, want):
                bad.append((redex.kind, built, want))
            return out
        return run

    count_level_builds(monkeypatch, counts)
    monkeypatch.setattr(prognets, "reduce", checked(prognets.reduce))
    monkeypatch.setattr(prognets, "reduce_test", checked(prognets.reduce_test))
    for path in CORPUS:
        horizon = 3 if path.name == "omega.pcf" else 200
        fused = FusedSystem(PnSystem())
        converge(Distribution.dirac(fused.prepare(translated(path))), fused, leftmost_policy,
                 horizon)
    assert not bad, bad[:5]
    assert {"d_box", "y_unfold", "c_box", "test", "absorb"} <= set(fired), fired


def test_omega_builds_no_level_after_translation(monkeypatch):
    counts = Counter()
    fired = Counter()
    count_level_builds(monkeypatch, counts)
    count_whole_net_copies(monkeypatch, counts)
    pn = translated(CORPUS_DIR / "omega.pcf")
    assert counts["net"] > 0  # translation builds the top level and a content
    counts.clear()
    step_det = PnSystem.step_det

    def counted_step_det(self, pn, r):
        fired[r.net_redex.kind if r.net_redex else r.kind] += 1
        return step_det(self, pn, r)

    monkeypatch.setattr(PnSystem, "step_det", counted_step_det)
    fused = FusedSystem(PnSystem())
    p, truncated = converge(Distribution.dirac(fused.prepare(pn)), fused, leftmost_policy,
                            horizon=3)
    assert p == 0.0 and truncated
    assert fired["y_unfold"] >= 400 and fired["ax"] >= 1000, fired
    # Only whole-net copies, one per closure, build an index: no `Net`.
    assert counts["net"] == 0 and counts["index"] == counts["copy"] <= 4, counts


def test_one_closure_copies_once_and_hashes_nothing(monkeypatch):
    path = CORPUS_DIR / "omega.pcf"
    pn = translated(path)
    term = parse(path.read_text(), int_backend().labels)
    starts = [
        (PnSystem(), pn),
        (PcfSystem(), Closure(term, {}, int_backend().initial())),
        (MsSystem(pn), MsSystem(pn).initial_state()),
    ]
    counts = {"copy": 0, "own": 0, "distribution": 0, "key": 0}

    def counting(name, f):
        def call(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return call

    count_whole_net_copies(monkeypatch, counts)
    monkeypatch.setattr(MsSystem, "own", counting("own", MsSystem.own))
    monkeypatch.setattr(Distribution, "__init__", counting("distribution", Distribution.__init__))
    for cls in (ProgramNet, Closure, MachineState):
        monkeypatch.setattr(cls, "canonical_key", counting("key", cls.canonical_key))
        monkeypatch.setattr(cls, "__hash__", counting("key", cls.__hash__))
    for sys, start in starts:
        fused = FusedSystem(sys)
        a = fused.prepare(start)
        assert fused.enumerate_redexes(a)  # omega: the budget ends the closure
    # One whole-net copy for the net engine's closure, one machine-state
    # copy for msiam's, and no key or hash for any engine.
    assert counts == {"copy": 1, "own": 1, "distribution": 0, "key": 0}


def test_net_closure_rewrites_its_program_net_in_place(monkeypatch):
    # A closure copies its program net once, through `own`, and each
    # branch reduct is built once; no micro-step builds another.
    counts = {"init": 0, "own": 0, "reducts": 0, "micro": 0}
    init, own, apply, step_det = (ProgramNet.__init__, PnSystem.own, PnSystem.apply,
                                  PnSystem.step_det)

    def counted_init(self, *args):
        counts["init"] += 1
        init(self, *args)

    def counted_own(self, pn):
        counts["own"] += 1
        return own(self, pn)

    def counted_apply(self, pn, r):
        out = apply(self, pn, r)
        counts["reducts"] += len(out)
        return out

    def counted_step_det(self, pn, r):
        counts["micro"] += 1
        return step_det(self, pn, r)

    pn = translated(CORPUS_DIR / "omega.pcf")
    monkeypatch.setattr(ProgramNet, "__init__", counted_init)
    monkeypatch.setattr(PnSystem, "own", counted_own)
    monkeypatch.setattr(PnSystem, "apply", counted_apply)
    monkeypatch.setattr(PnSystem, "step_det", counted_step_det)
    fused = FusedSystem(PnSystem())
    p, truncated = converge(Distribution.dirac(fused.prepare(pn)), fused, leftmost_policy,
                            horizon=6)
    assert p == 0.0 and truncated
    assert counts["micro"] > 1000
    assert counts["init"] <= counts["own"] + counts["reducts"]


@pytest.mark.parametrize("shape, sizes", [(s_chain, (64, 256)), (register_tree, (128, 512))])
def test_next_det_work_per_micro_step_does_not_grow(shape, sizes, monkeypatch):
    # The work is the Python lines that `next_det` runs, with what it
    # calls: a few per call, per heap entry it inspects and per cut or sync
    # node it classifies.  A micro-step is a `rewrite` call (these shapes
    # never branch).  Deeper chains still overflow the front end's stack.
    import tokennets.prognets as prognets

    calls = Counter()
    next_det_, rewrite_ = prognets.next_det, prognets.rewrite

    def line(frame, event, arg):
        calls["work"] += event == "line"
        return line

    def traced_next_det(pn):
        outer = sys.gettrace()
        sys.settrace(line)
        try:
            return next_det_(pn)
        finally:
            sys.settrace(outer)

    def counted_rewrite(pn, r):
        calls["micro"] += 1
        return rewrite_(pn, r)

    monkeypatch.setattr(prognets, "next_det", traced_next_det)
    monkeypatch.setattr(prognets, "rewrite", counted_rewrite)
    per_step = {}
    for n in sizes:
        pn = translate(typecheck(shape(n)), int_backend())
        calls.clear()
        fused = FusedSystem(PnSystem())
        start = fused.prepare(pn)
        *_, (_, term, _) = lifted_steps(Distribution.dirac(start), fused, leftmost_policy, 50, TOL)
        ((final, p),) = list(term)
        assert p == 1.0 and sorted(final.memory.values.values()) == (
            [n] if shape is s_chain else [1] * n)
        assert calls["micro"] > n
        per_step[n] = calls["work"] / calls["micro"]
    assert per_step[sizes[1]] <= 1.25 * per_step[sizes[0]], per_step


def test_machine_link_keeps_the_owned_address_map(monkeypatch):
    # A closure owns its state's address map, so a link adds to it.
    links = []
    step_det = MsSystem.step_det

    def checked_step_det(self, st, tr):
        ind, bound = st.ind, len(st.ind)
        out = step_det(self, st, tr)
        if tr.kind == "link":
            links.append(out.ind is ind and len(ind) == bound + 1)
        return out

    monkeypatch.setattr(MsSystem, "step_det", checked_step_det)
    sys = MsSystem(translated(CORPUS_DIR / "dup.pcf"))
    FusedSystem(sys).prepare(sys.initial_state())
    assert links and all(links)


@pytest.mark.parametrize("name", ["letrec_count.pcf", "bell.pcf"])
def test_a_test_copies_the_net_once_per_outcome(name, monkeypatch):
    fused = FusedSystem(PnSystem())
    start = fused.prepare(translated(CORPUS_DIR / name))
    counts = {"copy": 0, "reducts": 0, "single": 0}
    apply = PnSystem.apply

    def counted_apply(self, pn, r):
        out = apply(self, pn, r)
        counts["reducts"] += len(out)
        counts["single"] += len(out) == 1
        return out

    count_whole_net_copies(monkeypatch, counts)
    # The fused system applies the underlying system only at test redexes,
    # and closes each branch reduct without copying it again.
    monkeypatch.setattr(PnSystem, "apply", counted_apply)
    p, truncated = converge(Distribution.dirac(start), fused, leftmost_policy, horizon=200)
    assert p == pytest.approx(1.0) and not truncated
    assert counts["single"] > 0
    assert counts["copy"] == counts["reducts"]


ENTANGLED_IFS = """
let <c1, q1> = CNOT <H new, H new> in
let <c2, q2> = CNOT <c1, H new> in
<(if c2 then X new else new), <(if q1 then X new else new), (if q2 then X new else new)>>
"""


def test_branch_reducts_are_hashed_once_and_never_copied_again(monkeypatch):
    backend = quantum_backend()
    pn = translate(typecheck(parse(ENTANGLED_IFS, backend.labels)), backend)
    fused = FusedSystem(PnSystem())
    start = fused.prepare(pn)
    counts = {"signature": 0, "test": 0, "own": 0}
    depth = [0]
    signature, apply, own = Net.numbered_signature, PnSystem.apply, PnSystem.own

    def top_signature(self, edge_no, node_no):
        # Box contents are signed inside their box's signature: not counted.
        counts["signature"] += depth[0] == 0
        depth[0] += 1
        try:
            return signature(self, edge_no, node_no)
        finally:
            depth[0] -= 1

    def counted(name, f):
        def call(*args):
            counts[name] += 1
            return f(*args)
        return call

    monkeypatch.setattr(Net, "numbered_signature", top_signature)
    # The fused system applies the underlying system only at test redexes.
    monkeypatch.setattr(PnSystem, "apply", counted("test", apply))
    monkeypatch.setattr(PnSystem, "own", counted("own", own))
    p, truncated = converge(Distribution.dirac(start), fused, leftmost_policy, horizon=20)
    assert p == pytest.approx(1.0) and not truncated
    assert counts["test"] >= 3
    # Each branch reduct is hashed once, by the driver's merge, and the
    # first support is hashed once.
    assert counts["signature"] <= 2 * counts["test"] + 1
    assert counts["own"] == 0


OPTIMIZED_CHECKS = """
import sys
from tokennets.memory import IntRegisterMemory, ProbRegisterMemory, int_backend
from tokennets.msiam import MachineInvariantError, MsSystem, Transition
from tokennets.nets import (
    BOT, ONE, InvalidNetError, Net, NetRedex, Node, bang, fresh_id, quest, reduce, validate)
from tokennets.pcfll import (
    BASE, App, Closure, New, PcfRedex, TypedProgram, Var, closure_step, closure_step_det,
    parse, typecheck)
from tokennets.prognets import PnRedex, ProgramNet, own, rewrite, step
from tokennets.translate import translate

assert sys.flags.optimize
net = Net()
one = net.add_node("one", [ONE])
ax = net.add_node("ax", [BOT, ONE])
cut = net.add_node("cut", [], [one.concl[0], ax.concl[0]])
net.conclusions = [ax.concl[1]]
validate(net)

def rejects(error, f, *args):
    try:
        f(*args)
    except error:
        return
    raise SystemExit(f"{f.__name__} accepted {args}")

rejects(ValueError, ProgramNet, net, {one.concl[0]: 0, ax.concl[1]: 0}, IntRegisterMemory())
pure = PnRedex("net", net_redex=NetRedex("ax", (cut.nid, ax.nid)))
consumed = ProgramNet(net, {ax.concl[1]: 0}, IntRegisterMemory({0: 0}))
rejects(InvalidNetError, rewrite, own(consumed), pure)
rejects(ValueError, step, consumed, pure)  # a redex that does not branch
rejects(ValueError, MsSystem, ProgramNet(net, {ax.concl[1]: 0}, IntRegisterMemory()))
rejects(ValueError, ProbRegisterMemory, {0: 1.5})
rejects(ValueError, reduce, net, NetRedex("test", (cut.nid, ax.nid, one.nid)))
twin = Node(fresh_id(), "one", [one.concl[0]])
net.nodes[twin.nid] = twin
rejects(InvalidNetError, validate, net)  # an edge concluded twice
rejects(InvalidNetError, net.add_node, "cut", [], [one.concl[0], ax.concl[1]])  # consumed twice
del net.nodes[twin.nid]
net.conclusions = []
rejects(InvalidNetError, validate, net)  # a dangling conclusion
floating = Net()
kept = floating.add_node("one", [ONE])
floating.add_node("one", [ONE])
floating.conclusions = [kept.concl[0]]
rejects(InvalidNetError, floating.signature)  # a node no conclusion reaches
rejects(InvalidNetError, Net().copy_in, [one, twin], {one.concl[0]: ONE}, [])  # concluded twice
boxed = Net()
box = boxed.add_node("bangbox", [bang(ONE)], contents=[floating])
weak, stray = boxed.add_node("weak", [quest(BOT)]), boxed.add_node("weak", [quest(BOT)])
box_cut = boxed.add_node("cut", [], [box.concl[0], weak.concl[0]])
wrong = NetRedex("w_box", (box_cut.nid, box.nid, stray.nid))
rejects(InvalidNetError, reduce, boxed, wrong)  # a weakening the box is not cut against
rejects(ValueError, Closure, New(), {"x": 0, "y": 0}, IntRegisterMemory())
rejects(ValueError, Closure(Var("x"), {}, IntRegisterMemory()).canonical_key)
stuck = Closure(Var("x"), {"x": 0}, IntRegisterMemory({0: 0}))
rejects(ValueError, closure_step, stuck, PcfRedex("beta", New(), None))  # does not branch
rejects(ValueError, closure_step, stuck, PcfRedex("test", New(), None))
rejects(ValueError, closure_step_det, stuck, PcfRedex("beta", New(), None))
applied_new = TypedProgram(App(New(), New()), BASE, {}, {}, set())
rejects(InvalidNetError, translate, applied_new, int_backend())  # `new` is not a function
identity = typecheck(parse(r"(\\x. x) new", int_backend().labels))
machine = MsSystem(translate(identity, int_backend()))
st = machine.own(machine.initial_state())
link = machine.next_det(st)
rejects(ValueError, machine.apply, st, link)  # a transition that does not branch
st = machine.step_det(st, link)
again = machine.own(st)
again.pending.add((link.kind, *link.data))
rejects(MachineInvariantError, machine.step_det, again, link)  # a second token at an origin
move = machine.next_det(st)
(orig,) = move.data
del st.tokens[orig]
rejects(MachineInvariantError, machine.step_det, st, move)  # a token missing from the token map
twice = MsSystem(translate(typecheck(parse(r"(\\f. <f new, f new>) (\\x. x)",
                                           int_backend().labels)), int_backend()))
st = twice.own(twice.initial_state())
while (tr := twice.next_det(st)) is not None:
    st = twice.step_det(st, tr)
((gate, copies),) = st.open_copies.items()
((door, (_, _, marker)),) = [(e, d) for e, d in twice.index.doors.items() if d[:2] == gate]
orig = min(st.tokens)
st.acts[orig] = ("move", (door, marker, min(copies)))
rejects(MachineInvariantError, twice.step_det, st, Transition("move", (orig,)))  # opened twice
chain = MsSystem(translate(typecheck(parse("S (S new)", int_backend().labels)), int_backend()))
sync = min(nid for nid, node in chain.index.level_net[()].nodes.items() if node.kind == "sync")
unready = Transition("update", (((), sync), ()))
# No token on a premise.
rejects(MachineInvariantError, chain.step_det, chain.own(chain.initial_state()), unready)
print("ok")
"""


def test_rewrite_checks_survive_optimized_python():
    env = {**os.environ, "PYTHONPATH": str(CORPUS_DIR.parent / "src")}
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stdout + proc.stderr
