import copy
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from convergence import converge
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
from tokennets.nets import BOT, Net, ONE, validate
from tokennets.pars import (
    Distribution,
    FusedSystem,
    check_diamond,
    leftmost_policy,
    lift_step,
    lifted_steps,
    seeded_policy,
)
from tokennets.pcfll import Closure, PcfSystem, parse, typecheck
from tokennets.prognets import PnSystem, ProgramNet, enumerate_redexes, step
from tokennets.translate import translate


def single_one_net():
    net = Net()
    one = net.add_node("one", [ONE])
    net.conclusions = [one.concl[0]]
    return net


def test_inputs_and_link():
    net = single_one_net()
    pn = ProgramNet(net, {}, IntRegisterMemory())
    (r,) = enumerate_redexes(pn)
    assert r.kind == "link"
    ((pn2, p),) = step(pn, r)
    assert p == 1.0
    assert pn2.ind == {net.conclusions[0]: 0}
    assert enumerate_redexes(pn2) == []


def test_link_avoids_memory_support_and_ind():
    net = Net()
    one1 = net.add_node("one", [ONE])
    one2 = net.add_node("one", [ONE])
    net.conclusions = [one1.concl[0], one2.concl[0]]
    pn = ProgramNet(net, {one1.concl[0]: 0}, IntRegisterMemory({2: 7}))
    r = next(x for x in enumerate_redexes(pn) if x.kind == "link")
    ((pn2, _),) = step(pn, r)
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
    sys = PnSystem()
    *_, (dist, _, _) = lifted_steps(Distribution.dirac(pn), sys, leftmost_policy, 2, 0.0)
    ((final, p),) = list(dist)
    assert p == 1.0
    assert not sys.enumerate_redexes(final)
    (addr,) = final.ind.values()
    assert final.memory.get(addr) == 1


def test_sync_requires_all_premises_linked():
    net = counter_net()
    pn = ProgramNet(net, {}, IntRegisterMemory())
    kinds = [r.kind for r in enumerate_redexes(pn)]
    assert kinds == ["link"]  # sync gated until its premise is active


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
    sys = PnSystem()
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
    kinds = [r.kind for r in enumerate_redexes(pn)]
    assert kinds == ["link"]


def test_diamond_and_fusion():
    sys = PnSystem()
    seeds = [
        ProgramNet(coin_choice_net(), {}, ProbRegisterMemory()),
        ProgramNet(counter_net(), {}, IntRegisterMemory()),
    ]
    report = check_diamond(sys, seeds, depth=8, policies=(leftmost_policy, seeded_policy(7)))
    assert report.passed, report.failures
    fused = FusedSystem(sys)
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
    """The closure before the Dirac fast path: fire each non-branching redex
    through the persistent `apply` and unwrap its single reduct."""
    sys = fused.sys
    for _ in range(fused.budget):
        det = [r for r in sys.enumerate_redexes(a) if not sys.is_branching(a, r)]
        if not det:
            return a
        ((a, p),) = sys.apply(a, det[0])
        assert p == 1.0
    return a


class OracleFused(FusedSystem):
    """Checks every closure against `reference_closure`.  An element the
    closure does not own is checked afterwards, which also shows that the
    closure left it as it was; a branch reduct, which the closure rewrites
    in place, is checked on a deep copy (`snapshot`) taken before."""

    def __init__(self, sys, snapshot):
        super().__init__(sys)
        self.snapshot = snapshot
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
    return MachineState(set(st.tokens), dict(st.ind), copy.deepcopy(st.memory), dict(st.live),
                        dict(st.acts), {gate: set(w) for gate, w in st.waiting.items()},
                        {gate: set(c) for gate, c in st.open_copies.items()}, set(st.pending))


def ms_parts(st):
    return (st.tokens, st.ind, st.memory, st.live, st.acts, st.waiting, st.open_copies,
            st.pending)


class UnchangedApply(MsSystem):
    """The machine, checking that `apply` leaves its argument as it was."""

    def __init__(self, pn):
        super().__init__(pn)
        self.applied = {"test": 0, "other": 0}

    def apply(self, st, tr):
        before = ms_snapshot(st)
        out = super().apply(st, tr)
        assert ms_parts(st) == ms_parts(before), tr
        self.applied["test" if tr.kind == "test" else "other"] += 1
        return out


@pytest.mark.parametrize("policy", ["leftmost", "seeded"])
@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_machine_closure_owns_its_copy(path, policy):
    sys = UnchangedApply(translated(path))
    fused = OracleFused(sys, ms_snapshot)
    pick = leftmost_policy if policy == "leftmost" else seeded_policy(0)
    horizon = 3 if path.name == "omega.pcf" else 40
    mu = Distribution.dirac(fused.prepare(sys.initial_state()))
    exposed = [(el, ms_snapshot(el)) for el in mu.support()]
    for _ in range(horizon):
        mu = lift_step(mu, fused, pick)
        exposed.extend((el, ms_snapshot(el)) for el in mu.support())
    assert fused.closures > 0
    # The reference closures apply every non-branching kind of transition.
    assert sys.applied["other"] > 0
    assert sys.applied["test"] > 0 or "if " not in path.read_text()
    for el, snap in exposed:
        assert ms_parts(el) == ms_parts(snap)
        assert el._hash == hash(frozenset(el.tokens))


def count_whole_net_copies(monkeypatch, counts):
    """Count in `counts["copy"]` each whole-net copy: each
    `Net.__deepcopy__`, which copies the top level and shares the box
    contents.  The level copies a rule makes go through `Net.renamed`
    instead, so they are not counted."""
    deepcopy = Net.__deepcopy__

    def counted(self, memo):
        counts["copy"] += 1
        return deepcopy(self, memo)

    monkeypatch.setattr(Net, "__deepcopy__", counted)


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
from tokennets.msiam import MachineInvariantError, MsSystem
from tokennets.nets import (
    BOT, ONE, InvalidNetError, Net, NetRedex, Node, fresh_id, reduce, validate)
from tokennets.pcfll import (
    BASE, App, Closure, New, PcfRedex, TypedProgram, Var, closure_step, closure_step_det,
    parse, typecheck)
from tokennets.prognets import PnRedex, ProgramNet, step
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
rejects(InvalidNetError, step, ProgramNet(net, {ax.concl[1]: 0}, IntRegisterMemory({0: 0})), pure)
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
rejects(InvalidNetError, floating.splice, floating)
rejects(ValueError, Closure, New(), {"x": 0, "y": 0}, IntRegisterMemory())
rejects(ValueError, Closure(Var("x"), {}, IntRegisterMemory()).canonical_key)
stuck = Closure(Var("x"), {"x": 0}, IntRegisterMemory({0: 0}))
rejects(ValueError, closure_step, stuck)  # no redex
rejects(ValueError, closure_step, stuck, PcfRedex("test", New(), None))
rejects(ValueError, closure_step_det, stuck, PcfRedex("beta", New(), None))
applied_new = TypedProgram(App(New(), New()), BASE, {}, {}, set())
rejects(InvalidNetError, translate, applied_new, int_backend())  # `new` is not a function
identity = typecheck(parse(r"(\\x. x) new", int_backend().labels))
machine = MsSystem(translate(identity, int_backend()))
st = machine.own(machine.initial_state())
(link,) = machine.enumerate_redexes(st)
st = machine.step_det(st, link)
(move,) = machine.enumerate_redexes(st)
(orig,) = move.data
st.tokens.remove((st.live[orig], orig))
rejects(MachineInvariantError, machine.step_det, st, move)  # a token missing from the token set
print("ok")
"""


def test_rewrite_checks_survive_optimized_python():
    env = {**os.environ, "PYTHONPATH": str(CORPUS_DIR.parent / "src")}
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stdout + proc.stderr
